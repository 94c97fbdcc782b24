"""Serialization of characterization artefacts and results.

A production site runs characterization once and reuses it across many
scheduling decisions; these helpers persist the artefacts the stack
produces (mix characterizations, budgets, grid results) as JSON so they
can be cached, diffed, and shipped between the runtime and resource-
manager sides — the "protocol" data the paper's future-work coordination
would exchange.
"""

from repro.io.serialize import (
    characterization_to_dict,
    characterization_from_dict,
    save_characterization,
    load_characterization,
    budgets_to_dict,
    budgets_from_dict,
    save_grid_results,
)

__all__ = [
    "characterization_to_dict",
    "characterization_from_dict",
    "save_characterization",
    "load_characterization",
    "budgets_to_dict",
    "budgets_from_dict",
    "save_grid_results",
]
