"""Analysis utilities: statistics, ASCII rendering, CSV export.

Everything the benchmark harness needs to turn simulation results into the
rows and series the paper reports: 95 % confidence intervals over the 100
measured iterations (:mod:`.stats`), terminal-friendly renderings of heat
maps and tables (:mod:`.render`), and CSV export for downstream
plotting (:mod:`.export`).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "stats": ("mean_ci95",),
    "render": ("render_heatmap", "render_table", "render_series"),
    "export": ("rows_to_csv", "write_csv"),
})
