"""Unit tests for the registry of tracked paper artifacts."""

from repro.experiments.artifacts import ARTIFACTS, FIGURES_DIR, OUTPUT_DIR


def _paths():
    return [a.path for a in ARTIFACTS] + [
        f"{FIGURES_DIR}/{file}" for a in ARTIFACTS for file in a.svgs.values()
    ]


def test_names_are_unique():
    names = [a.name for a in ARTIFACTS]
    assert len(names) == len(set(names))


def test_paths_are_unique_and_under_the_output_dir():
    paths = _paths()
    assert len(paths) == len(set(paths))
    assert OUTPUT_DIR == "benchmarks/output"
    for path in paths:
        assert path.startswith(f"{OUTPUT_DIR}/"), path
        assert ".." not in path.split("/"), path


def test_registry_covers_the_tracked_set():
    # 21 text files (svg_figures.txt among them) plus the eight SVGs.
    paths = _paths()
    assert sum(p.endswith(".txt") for p in paths) == 21
    assert sum(p.endswith(".svg") for p in paths) == 8
