"""Analysis utilities: statistics, ASCII rendering, CSV export.

Everything the benchmark harness needs to turn simulation results into the
rows and series the paper reports: 95 % confidence intervals over the 100
measured iterations (:mod:`.stats`), terminal-friendly renderings of heat
maps / bar grids / tables (:mod:`.render`), and CSV export for downstream
plotting (:mod:`.export`).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "stats": ("mean_ci95", "bootstrap_ci", "summarize"),
    "render": ("render_heatmap", "render_bar_grid", "render_table",
               "render_series"),
    "export": ("rows_to_csv", "write_csv"),
})
