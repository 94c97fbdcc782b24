"""Bench: regenerate Fig. 2 — anatomy of one bulk-synchronous iteration.

Fig. 2 is the kernel's design schematic: common work, imbalance work on
the critical path, and waiting ranks polling at the barrier.  The bench
reproduces the quantitative version — phase durations for a 50 %-waiting,
2x-imbalance configuration — and checks the slack fraction the schematic
implies (waiting ranks idle for half the iteration at 2x imbalance).
"""

import pytest

from repro.analysis.render import render_table
from repro.experiments.figures import fig2_phase_timeline
from repro.workload.kernel import KernelConfig


def test_fig2_kernel_anatomy(benchmark, emit):
    config = KernelConfig(intensity=8.0, waiting_fraction=0.5, imbalance=2)
    data = benchmark(fig2_phase_timeline, config)

    slack_fraction = data["slack_time_s"] / data["iteration_time_s"]
    rows = [
        ["Iteration (critical path)", f"{1e3 * data['iteration_time_s']:.1f} ms"],
        ["Common work (waiting ranks)", f"{1e3 * data['common_work_time_s']:.1f} ms"],
        ["Slack / polling phase", f"{1e3 * data['slack_time_s']:.1f} ms"],
        ["Slack fraction", f"{slack_fraction:.0%}"],
        ["Waiting ranks", f"{data['waiting_fraction']:.0%}"],
        ["Imbalance", f"{data['imbalance']:.0f}x"],
    ]
    emit(
        "fig2_kernel_anatomy",
        render_table(["interval", "reproduced"], rows,
                     title="Fig. 2 — synthetic kernel iteration anatomy "
                           "(8 FLOPs/byte, 50% waiting at 2x)"),
    )

    # 2x imbalance => non-critical ranks finish in ~half the iteration.
    assert slack_fraction == pytest.approx(0.5, abs=0.05)
