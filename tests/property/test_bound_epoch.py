"""Property-based tests: the bound epoch kernel equals the unbound maps.

``ExecutionModel.bind(layout, eff)`` hoists the per-run constants out of
the forward map; both runtime controllers step their epochs through it.
Its outputs must be ``np.array_equal`` to the unbound ``frequencies`` /
``compute_time`` / ``power_at_freq`` / ``poll_power`` for every cap
(inside, below and above the settable range), every host kind (waiting
hosts that poll at the barrier, hosts with no FLOPs) and both the
``(hosts,)`` and the stacked ``(S, hosts)`` layouts — and must stay so
when the caps repeat and the kernel serves its previous results.  The
tracer that wraps ``Controller._run_epoch`` must still see every epoch.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.runtime.controller import Controller
from repro.runtime.frequency_governor import FrequencyGovernorAgent
from repro.runtime.monitor import MonitorAgent
from repro.runtime.trace import attach_tracer
from repro.sim.batch import stack_job_layouts
from repro.sim.engine import ExecutionModel
from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import INTENSITY_GRID, KernelConfig

MODEL = ExecutionModel()
#: Caps drawn across the RAPL floor (136 W) and past TDP (240 W).
CAPS = st.floats(60.0, 320.0, allow_nan=False)


@st.composite
def jobs(draw, hosts):
    # INTENSITY_GRID starts at 0.0: a zero-FLOP kernel (gflop == 0 hosts).
    intensity = draw(st.sampled_from(INTENSITY_GRID))
    if draw(st.booleans()):
        waiting = draw(st.sampled_from([0.25, 0.5, 0.75]))
        imbalance = draw(st.integers(2, min(3, hosts)))
    else:
        waiting, imbalance = 0.0, 1
    return Job(
        name="k",
        config=KernelConfig(
            intensity=intensity, waiting_fraction=waiting, imbalance=imbalance
        ),
        node_count=hosts,
    )


@st.composite
def kernel_cases(draw):
    """A layout (flat or stacked), efficiencies and two cap vectors."""
    hosts = draw(st.integers(2, 8))
    stacked = draw(st.booleans())
    if stacked:
        rows = draw(st.integers(1, 4))
        layout = stack_job_layouts(
            [draw(jobs(hosts)) for _ in range(rows)]
        )
        shape = (rows, hosts)
    else:
        job = draw(jobs(hosts))
        layout = WorkloadMix(name="k", jobs=(job,)).layout()
        shape = (hosts,)
    size = int(np.prod(shape))
    eff = np.array(
        draw(st.lists(st.floats(0.8, 1.25), min_size=size, max_size=size))
    ).reshape(shape)
    limits = [
        np.array(
            draw(st.lists(CAPS, min_size=size, max_size=size))
        ).reshape(shape)
        for _ in range(2)
    ]
    return layout, eff, limits


def _unbound(layout, eff, limits):
    power = MODEL.power_model
    caps = np.clip(limits, power.min_cap_w, power.tdp_w)
    freq = MODEL.frequencies(caps, layout, eff)
    return (
        caps,
        freq,
        MODEL.compute_time(freq, layout),
        power.power_at_freq(freq, layout.kappa, eff),
        MODEL.poll_power(caps, layout, eff),
    )


def _assert_equal(got, expected):
    names = ("caps", "freq", "compute_time", "compute_power", "poll_power")
    for name, g, e in zip(names, got, expected):
        assert g.shape == e.shape, name
        assert np.array_equal(g, e), name


class TestBoundEqualsUnbound:
    @given(case=kernel_cases())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical(self, case):
        layout, eff, (first, second) = case
        kernel = MODEL.bind(layout, eff)
        # A fresh value, a repeat (served from the kernel's last result),
        # a change, and a return to the first caps.
        for limits in (first, first, second, first):
            _assert_equal(kernel(limits), _unbound(layout, eff, limits))

    @given(case=kernel_cases())
    @settings(max_examples=30, deadline=None)
    def test_repeated_caps_hand_out_fresh_arrays(self, case):
        """Mutating one epoch's outputs cannot leak into the next call."""
        layout, eff, (limits, _) = case
        kernel = MODEL.bind(layout, eff)
        for out in kernel(limits):
            out[...] = np.nan
        _assert_equal(kernel(limits), _unbound(layout, eff, limits))

    def test_caps_below_floor_and_above_tdp_clamped(self):
        job = Job(name="k", config=KernelConfig(intensity=8.0), node_count=3)
        layout = WorkloadMix(name="k", jobs=(job,)).layout()
        caps = MODEL.bind(layout, np.ones(3))(np.array([50.0, 180.0, 400.0]))[0]
        np.testing.assert_array_equal(caps, [136.0, 180.0, 240.0])


class TestTracerSeesEveryEpoch:
    @given(
        agent=st.sampled_from(["monitor", "frequency_governor"]),
        epochs=st.integers(1, 40),
    )
    @settings(max_examples=20, deadline=None)
    def test_attach_tracer_records_every_epoch(self, agent, epochs):
        """``attach_tracer`` wraps ``Controller._run_epoch``; with the bound
        kernel (repeated caps included — a monitor never moves them) it
        still records every epoch, with the history's exact values."""
        job = Job(
            name="traced",
            config=KernelConfig(intensity=8.0, waiting_fraction=0.5,
                                imbalance=2),
            node_count=3,
        )
        chosen = (MonitorAgent() if agent == "monitor"
                  else FrequencyGovernorAgent(target_freq_ghz=1.8))
        controller = Controller(job, np.array([0.95, 1.0, 1.05]), chosen,
                                model=MODEL, noise_std=0.01, seed=epochs)
        with telemetry.disabled():
            writer = attach_tracer(controller)
            try:
                controller.run(max_epochs=epochs, min_epochs=epochs)
            finally:
                writer.close()
        assert writer.trace.epochs == len(controller.history) == epochs
        for column, field in (("power_w", "host_power_w"),
                              ("frequency_ghz", "mean_freq_ghz"),
                              ("power_limit_w", "power_limit_w")):
            np.testing.assert_array_equal(
                writer.trace.column(column),
                np.concatenate([getattr(r.sample, field)
                                for r in controller.history]),
            )
