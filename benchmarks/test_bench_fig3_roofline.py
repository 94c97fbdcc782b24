"""Bench: regenerate Fig. 3 — the kernel on the platform roofline.

Fig. 3 overlays the kernel's achieved GFLOPS on Intel Advisor's single-
core roofline: DRAM-bound on the left, bounded by the DP vector FMA peak
on the right.  The bench reproduces the envelope and the kernel operating
points and checks the two regimes the paper calls out.
"""

import numpy as np
import pytest

from repro.analysis.render import render_series
from repro.experiments.figures import fig3_roofline_data


def test_fig3_roofline(benchmark, emit):
    data = benchmark(fig3_roofline_data)

    text = render_series(
        data["kernel_intensity"].tolist(),
        {"achieved_gflops": data["kernel_gflops"].tolist()},
        title=(
            "Fig. 3 — kernel operating points on the Advisor roofline\n"
            "ceilings: DRAM 12.44 GB/s | L3 35.18 | L2 84.5 | L1 314.65 GB/s;\n"
            "DP vector FMA 38.49 GFLOPS (paper values)"
        ),
        x_label="intensity",
    )
    emit("fig3_roofline", text)

    # Left end: DRAM-bound (achieved = intensity * 12.44).
    assert data["kernel_gflops"][0] == pytest.approx(0.25 * 12.44, rel=1e-6)
    # Right end: FMA-bound at the paper's 38.49 GFLOPS ceiling.
    assert data["kernel_gflops"][-1] == pytest.approx(38.49, rel=1e-6)
    # The envelope is the pointwise minimum of DRAM and FMA ceilings.
    env = np.minimum(data["bw:DRAM"], data["compute:dp_vector_fma"])
    np.testing.assert_allclose(data["attainable"], env, rtol=1e-9)
