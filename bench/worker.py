"""One workload's benchmark process, driven by ``run.py`` over a pipe.

Usage: ``python bench/worker.py NAME SEED SCALE``.  The worker reads one
command per line on stdin and answers each with one JSON line on the
original stdout; anything the program prints goes to stderr.  Commands:

``warmup``  one untimed run at reduced size (fills the program's caches)
``run``     build fresh inputs, run the workload untraced, check outputs
``trace``   the same under the outside-in :class:`layers.LayerTimer`
``rss``     peak resident memory of this process so far
``quit``    exit

Each workload lives in its own worker so that its memory peak and its
module state are its own.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import json
import os
import resource
import sys
import traceback
from typing import Any, Dict

from clock import RefClock
from layers import LayerTimer
from workloads import WORKLOADS

#: Warm-up size relative to the measured size.
WARMUP_SCALE = 0.05


#: ``(module, accessor)`` of every process-wide characterization cache
#: the program can install; none may be active while a run is timed.
CACHES = (("repro.parallel.cache", "active_cache"),
          ("repro.parallel.char_store", "active_char_store"))


def _prepare() -> None:
    """Same starting state before every run: telemetry at its defaults
    but empty, no characterization cache installed, garbage collected."""
    from repro import telemetry

    telemetry.reset()
    for module, accessor in CACHES:
        try:
            active = getattr(importlib.import_module(module), accessor)()
        except ModuleNotFoundError:
            continue
        if active is not None:
            raise RuntimeError(f"{module}.{accessor}() is set")
    gc.collect()


def measure(name: str, seed: int, scale: float, traced: bool) -> Dict[str, Any]:
    """Build inputs, time one run of the workload, check its outputs."""
    workload = WORKLOADS[name]
    with RefClock() as build:
        inputs = workload.build(seed, scale)
    _prepare()
    with LayerTimer() if traced else contextlib.nullcontext() as timer:
        with RefClock() as run:
            raw = workload.execute(inputs)
    outcome = workload.assess(inputs, raw)
    result = dict(vars(outcome), wall_s=run.wall_s, ref_s=run.ref_s,
                  speed=run.speed, build_ref_s=build.ref_s,
                  kwargs=workload.knobs())
    if timer is not None:
        result["layers"] = timer.report()
        result["missing"] = timer.missing
    return result


def main() -> None:
    name, seed, scale = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    replies = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    for line in sys.stdin:
        command = line.strip()
        if command == "quit":
            break
        try:
            if command == "warmup":
                measure(name, seed, scale * WARMUP_SCALE, traced=False)
                reply: Dict[str, Any] = {}
            elif command in ("run", "trace"):
                reply = measure(name, seed, scale, command == "trace")
            elif command == "rss":
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                reply = {"peak_rss_mb": peak_kb / 1024.0}
            else:
                raise ValueError(f"unknown command {command!r}")
        except Exception:
            # A failed run is a result, not the end of the benchmark.
            reply = {"error": traceback.format_exc()}
        replies.write(json.dumps(reply) + "\n")


if __name__ == "__main__":
    main()
