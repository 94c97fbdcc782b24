"""Serialization of characterization artefacts and grid results.

A production site runs characterization once and reuses it across many
scheduling decisions; these helpers write the artefacts the stack
produces (mix characterizations as JSON, grid results as CSV) so they
can be diffed and shipped between the runtime and resource-manager
sides — the "protocol" data the paper's future-work coordination would
exchange.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "serialize": ("characterization_to_dict", "save_characterization",
                  "save_grid_results"),
})
