"""cProfile capture with tracing-span attribution.

``--profile`` runs on the CLI answer two questions the span tree alone
cannot: *which frames* burn the wall time a span reports, and *which
span* owns a hot frame.  This module captures a :mod:`cProfile` run
around a command and writes two artifacts next to ``trace.json`` under
the telemetry output directory:

``profile.pstats``
    The raw marshalled stats, loadable with ``pstats.Stats`` /
    ``snakeviz`` for interactive digging.
``profile.txt``
    A human-readable report: the span **self-time** table (wall time
    per span name minus its children — where the trace says the time
    went) followed by the hottest frames by cumulative time, each
    attributed to the enclosing tracing span.

Both read the tracer's exact per-name totals
(:meth:`~repro.telemetry.tracing.Tracer.totals`), not its bounded ring.
Frame→span attribution is a *heuristic*: a frame's module path is
mapped to its top-level ``repro`` package (``repro/sim/engine.py`` →
``sim``), and the frame is credited to the span name with the most
total wall time in that package (span names are dotted package paths
by convention — ``sim.engine.batch``, ``hierarchy.facility.run``).
Frames outside ``repro`` (numpy, stdlib) get no span.  That is precise
enough to answer "which subsystem's span owns this hot frame" without
instrumenting every call, and the report says so in its header.
"""

from __future__ import annotations

import cProfile
import pstats
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = ["profile_command", "write_profile"]


@contextmanager
def profile_command():
    """Context manager: profile the enclosed block, yield the profiler."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()


def _package_spans(totals) -> Dict[str, str]:
    """Top-level span package -> the span name with the most wall in it."""
    best: Dict[str, Tuple[float, str]] = {}
    for name, row in totals.items():
        package = name.split(".", 1)[0]
        current = best.get(package)
        if current is None or row["wall_s"] > current[0]:
            best[package] = (row["wall_s"], name)
    return {package: name for package, (_, name) in best.items()}


def _frame_package(filename: str) -> Optional[str]:
    """The ``repro`` subpackage a frame's file belongs to, if any."""
    parts = Path(filename).parts
    for i, part in enumerate(parts):
        if part == "repro" and i + 1 < len(parts):
            nxt = parts[i + 1]
            return nxt[:-3] if nxt.endswith(".py") else nxt
    return None


def write_profile(out_dir, profiler: cProfile.Profile, totals,
                  top: int = 25) -> Tuple[Path, Path]:
    """Write ``profile.pstats`` + ``profile.txt`` under ``out_dir``.

    ``totals`` is the tracer's per-name totals
    (``get_tracer().totals()``); it drives both the self-time table
    and the hot-frame span attribution.  Returns the two paths.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pstats_path = out / "profile.pstats"
    profiler.dump_stats(str(pstats_path))

    stats = pstats.Stats(profiler)
    package_span = _package_spans(totals)

    lines: List[str] = []
    lines.append("# Profile report")
    lines.append("# Frame->span attribution is heuristic: frames map to")
    lines.append("# the most-wall span name of their repro subpackage.")
    lines.append("")
    lines.append("== Span self time (wall seconds) ==")
    lines.append(f"{'span':<44} {'count':>6} {'wall_s':>10} {'self_s':>10}")
    for name, row in totals.items():
        lines.append(f"{name:<44} {row['count']:>6} {row['wall_s']:>10.4f}"
                     f" {row['self_s']:>10.4f}")

    lines.append("")
    lines.append(f"== Hottest frames by cumulative time (top {top}) ==")
    lines.append(
        f"{'frame':<58} {'ncalls':>9} {'tottime':>9} {'cumtime':>9}  span"
    )
    entries = sorted(
        stats.stats.items(),
        key=lambda item: item[1][3],  # cumulative time
        reverse=True,
    )
    for (filename, lineno, func), (_, ncalls, tottime, cumtime, _) in \
            entries[:top]:
        short = f"{Path(filename).name}:{lineno}({func})"
        package = _frame_package(filename)
        span_name = package_span.get(package, "-") if package else "-"
        lines.append(
            f"{short:<58} {ncalls:>9} {tottime:>9.4f} {cumtime:>9.4f}"
            f"  {span_name}"
        )
    txt_path = out / "profile.txt"
    txt_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return pstats_path, txt_path
