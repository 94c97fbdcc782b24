"""JSON export of characterizations and CSV export of grid results.

``characterize --save`` writes a mix characterization as JSON, tagged
with a versioned ``"format"`` key so a reader can tell the layout apart
from any later one.  Arrays are stored as plain lists —
characterizations are hundreds of floats, far below any size where a
binary format would matter, and JSON keeps the artefacts human-diffable.
``grid --csv`` writes the grid's summary rows.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from repro.characterization.mix_characterization import MixCharacterization

__all__ = [
    "characterization_to_dict",
    "save_characterization",
    "save_grid_results",
]

_CHAR_FORMAT = "repro.mix-characterization.v1"


def characterization_to_dict(char: MixCharacterization) -> Dict:
    """A JSON-ready dict of one mix characterization."""
    return {
        "format": _CHAR_FORMAT,
        "mix_name": char.mix_name,
        "job_boundaries": char.job_boundaries.tolist(),
        "monitor_power_w": char.monitor_power_w.tolist(),
        "needed_power_w": char.needed_power_w.tolist(),
        "needed_cap_w": char.needed_cap_w.tolist(),
        "min_cap_w": char.min_cap_w,
        "tdp_w": char.tdp_w,
    }


def save_characterization(char: MixCharacterization,
                          path: Union[str, Path]) -> Path:
    """Write a characterization to a JSON file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(characterization_to_dict(char), indent=2), encoding="utf-8"
    )
    return path


def save_grid_results(results, path: Union[str, Path]) -> Path:
    """Persist a grid's flat result rows as CSV (plotting-friendly).

    Accepts a :class:`~repro.experiments.grid.GridResults`; the CSV holds
    one row per (mix, budget level, policy) cell with the Fig. 7-level
    summary metrics.
    """
    from repro.analysis.export import write_csv

    return write_csv(results.rows(), path)
