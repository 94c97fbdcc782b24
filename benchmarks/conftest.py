"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures at the
**paper's full scale** (2 000-node survey, 900-node mixes, 100 iterations)
and both prints the reproduced rows (visible with ``-s``) and writes them
to ``benchmarks/output/<name>.txt`` so the artefacts survive the run.
The engine cells here assert their own speedups and bit-identities;
the repository's performance contract is ``bench/run.py`` with the
bounds in ``BENCHMARK.json``, which CI's ``bench-gate`` job checks
against the parent commit.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.grid import ExperimentConfig, ExperimentGrid

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def paper_grid() -> ExperimentGrid:
    """The full paper-scale experiment environment (built lazily)."""
    return ExperimentGrid(ExperimentConfig())


@pytest.fixture(scope="session")
def paper_results(paper_grid):
    """The full policy x mix x budget grid at paper scale."""
    return paper_grid.run_all()


@pytest.fixture(scope="session")
def emit():
    """Write a reproduction artefact and echo it to stdout."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> Path:
        path = OUTPUT_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n===== {name} =====\n{text}\n")
        return path

    return _emit
