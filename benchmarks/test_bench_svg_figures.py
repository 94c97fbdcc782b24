"""Bench: render every SVG figure at paper scale.

Produces the graphical artefacts (``benchmarks/output/figures/*.svg``) a
reader can open next to the paper's figures, and times the full render.
"""

import xml.dom.minidom
from pathlib import Path

from repro.experiments.svg_figures import render_all_figures


def test_svg_figures(benchmark, paper_grid, paper_results, emit):
    out_dir = Path(__file__).parent / "output" / "figures"

    written = benchmark.pedantic(
        render_all_figures,
        args=(paper_grid, out_dir),
        kwargs={"results": paper_results, "heatmap_nodes": 100},
        rounds=1, iterations=1,
    )

    lines = [f"{name}: {path}" for name, path in sorted(written.items())]
    emit("svg_figures", "\n".join(lines))

    assert len(written) == 8
    for path in written.values():
        assert path.exists()
        xml.dom.minidom.parse(str(path))  # well-formed
        assert path.stat().st_size > 1000  # non-trivial content
