"""Run-provenance ledger: every run stamped with *exactly what ran*.

The stack keeps hard determinism contracts (SeedSequence-derived child
seeds, bit-identical batch engines), but a saved report cannot by itself
say which config, seed lineage or fault schedule produced it.  This
module writes that down, in the spirit of NRM's daemon where every run
emits schema'd, replayable telemetry artifacts.

A ledger is one JSON bundle (:data:`PROVENANCE_SCHEMA`) with:

* the run ``kind`` and free-form ``inputs`` summary;
* a **config content-hash** (:func:`stable_digest` of the canonical
  form of the config, so "identical hash" literally means "identical
  physics inputs");
* the **seed lineage** (root seed plus any derivation notes);
* the **fault-schedule digest** (name + content hash + event count);
* the **span tree** (:meth:`~repro.telemetry.tracing.Tracer.state`),
  the exact **span totals** per name
  (:meth:`~repro.telemetry.tracing.Tracer.totals`) and the **metrics
  snapshot** (``{"counters": ...}``) — the full observability state;
* **environment**: package / Python / NumPy versions, git commit when
  available, host identity.

:func:`capture_ledger` builds the bundle from the live telemetry
context; :func:`write_ledger` / :func:`load_ledger` round-trip it
through disk with :func:`validate_ledger` enforcing the schema both
ways, so a ledger that loads is guaranteed to carry every field a
downstream comparator needs.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import platform
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

import numpy as np

__all__ = [
    "PROVENANCE_SCHEMA",
    "canonical",
    "stable_digest",
    "capture_ledger",
    "validate_ledger",
    "write_ledger",
    "load_ledger",
]

#: Schema tag; bump on breaking bundle-layout changes.
PROVENANCE_SCHEMA = "repro.provenance.v4"

#: Required top-level keys and the type each must carry.
_REQUIRED: Dict[str, type] = {
    "schema": str,
    "kind": str,
    "created_unix": float,
    "config_hash": str,
    "inputs": dict,
    "seed": dict,
    "fault_schedule": dict,
    "spans": list,
    "span_totals": dict,
    "metrics": dict,
    "events_by_source": dict,
    "versions": dict,
    "git": dict,
    "host": dict,
}


def canonical(obj: object) -> object:
    """A JSON-serialisable canonical form of ``obj`` for hashing.

    Handles the types run configs are built from: dataclasses (tagged
    with their class name so two option types with equal fields do not
    collide), numpy arrays (dtype + shape + SHA-256 of the C-order bytes)
    and scalars, enums, containers, and JSON primitives.  Floats rely on
    ``repr`` round-tripping (exact for IEEE-754 doubles) and arrays on
    their bytes, so bit-different inputs always produce different hashes.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "value": canonical(obj.value)}
    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:  # its bytes are pointers, not values
            raise TypeError("cannot canonicalise object arrays for hashing")
        return {
            "__ndarray__": obj.dtype.str,
            "shape": list(obj.shape),
            "sha256": hashlib.sha256(np.ascontiguousarray(obj)).hexdigest(),
        }
    if isinstance(obj, np.generic):
        return canonical(obj.item())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__dataclass__": type(obj).__name__, "fields": fields}
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items())}
    raise TypeError(f"cannot canonicalise {type(obj).__name__} for hashing")


def stable_digest(*parts: object) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``parts``."""
    text = json.dumps([canonical(p) for p in parts], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _git_info(repo_dir: Optional[Union[str, Path]] = None) -> Dict[str, object]:
    """Best-effort git identity of the source tree (never raises)."""
    cwd = str(repo_dir) if repo_dir is not None \
        else str(Path(__file__).resolve().parent)
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=5,
        )
        if commit.returncode != 0:
            return {"commit": None, "dirty": None}
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=cwd, capture_output=True,
            text=True, timeout=5,
        )
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        return {"commit": commit.stdout.strip(), "dirty": dirty}
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


def _fault_digest(fault_schedule) -> Dict[str, object]:
    """Name + content hash + event count of a schedule (or an empty stub)."""
    if fault_schedule is None:
        return {"name": None, "digest": None, "events": 0}
    return {
        "name": fault_schedule.name,
        "digest": stable_digest(fault_schedule),
        "events": len(fault_schedule.events),
    }


def capture_ledger(
    kind: str,
    config: object = None,
    *,
    inputs: Optional[Mapping[str, object]] = None,
    seed: Optional[int] = None,
    seed_lineage: Optional[Mapping[str, object]] = None,
    fault_schedule=None,
) -> Dict[str, object]:
    """Build a provenance bundle from the live telemetry context.

    Parameters
    ----------
    kind:
        What ran (``"grid"``, ``"site"``, ``"faults"``, ``"characterize"``,
        or any caller-chosen tag).
    config:
        The run's configuration object (dataclass, dict, array, ...);
        hashed with :func:`stable_digest` into
        ``config_hash``.  ``None`` hashes to the digest of ``None``.
    inputs:
        Free-form JSON-serialisable summary of the run inputs (mix
        names, policies, scale, ...), stored verbatim.
    seed / seed_lineage:
        Root seed and optional derivation notes (e.g. how
        ``SeedSequence`` child seeds were spawned from it).
    fault_schedule:
        Optional :class:`~repro.faults.schedule.FaultSchedule`; recorded
        as a name + content digest + event count.
    """
    from repro import __version__
    from repro.telemetry import context
    from repro.telemetry.tracing import get_tracer

    registry = context.get_registry()
    tracer = get_tracer()
    bundle: Dict[str, object] = {
        "schema": PROVENANCE_SCHEMA,
        "kind": str(kind),
        "created_unix": float(time.time()),
        "config_hash": stable_digest(config),
        "inputs": dict(inputs or {}),
        "seed": {
            "root": seed,
            "lineage": dict(seed_lineage or {}),
        },
        "fault_schedule": _fault_digest(fault_schedule),
        "spans": tracer.state(),
        "span_totals": tracer.totals(),
        "metrics": registry.snapshot(),
        "events_by_source": context.get_bus().counts_by_source(),
        "versions": {
            "repro": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "git": _git_info(),
        "host": {
            "hostname": socket.gethostname(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": __import__("os").cpu_count(),
            "argv": list(sys.argv),
        },
    }
    return bundle


def validate_ledger(bundle: Mapping[str, object]) -> List[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(bundle, Mapping):
        return [f"ledger must be a mapping, got {type(bundle).__name__}"]
    for key, expected in _REQUIRED.items():
        if key not in bundle:
            problems.append(f"missing required key {key!r}")
            continue
        value = bundle[key]
        if expected is float and isinstance(value, int):
            continue  # JSON round-trips may narrow exact floats to ints
        if not isinstance(value, expected):
            problems.append(
                f"key {key!r} must be {expected.__name__}, "
                f"got {type(value).__name__}"
            )
    if not problems and bundle["schema"] != PROVENANCE_SCHEMA:
        problems.append(
            f"schema {bundle['schema']!r} != {PROVENANCE_SCHEMA!r}"
        )
    if not problems:
        for span_dict in bundle["spans"]:
            if not isinstance(span_dict, Mapping) or "span_id" not in span_dict:
                problems.append("spans entries must be span dicts")
                break
    return problems


def write_ledger(bundle: Mapping[str, object],
                 path: Union[str, Path]) -> Path:
    """Validate and write the bundle as pretty JSON; returns the path."""
    problems = validate_ledger(bundle)
    if problems:
        raise ValueError("invalid provenance ledger: " + "; ".join(problems))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(bundle, indent=2, sort_keys=False, default=str)
                    + "\n", encoding="utf-8")
    return path


def load_ledger(path: Union[str, Path]) -> Dict[str, object]:
    """Read and validate a ledger written by :func:`write_ledger`."""
    bundle = json.loads(Path(path).read_text(encoding="utf-8"))
    problems = validate_ledger(bundle)
    if problems:
        raise ValueError(
            f"invalid provenance ledger {path}: " + "; ".join(problems)
        )
    return bundle
