"""Content-addressed characterization cache: skip redundant physics.

Repeated grid cells, online re-planning rounds, and replayed site
simulations keep re-deriving the same characterizations and executions.
This cache memoizes them behind a *stable content hash*: the key is a
SHA-256 digest of the canonical JSON form of every input that influences
the result (mix spec, model parameters, caps, efficiencies, options; each
array enters by the SHA-256 of its bytes), so two calls collide exactly
when the physics would be identical.

Storage is two-tier: an in-memory LRU (`max_entries`) backed by an
optional on-disk JSON store (one file per entry under ``cache_dir``).
Values are stored as JSON-ready payload dicts and decoded through
:mod:`repro.io.serialize` on every hit — the same code path the disk
store uses — so a memory hit, a disk hit, and a fresh compute are
guaranteed bit-identical (pinned by the round-trip tests).  A corrupted
or unreadable disk entry is treated as a miss and recomputed.

The cache is opt-in and process-global once activated (mirroring the
telemetry context): :func:`activate_cache` installs one, hot paths
consult :func:`active_cache`, and worker processes activate their own
instance pointing at the same ``cache_dir`` so a pool shares hits
through the filesystem.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.telemetry import emit, enabled, get_registry

__all__ = [
    "CharacterizationCache",
    "stable_digest",
    "canonical",
    "activate_cache",
    "active_cache",
    "deactivate_cache",
]

_PAYLOAD_FORMAT = "repro.cache-entry.v1"


def canonical(obj: object) -> object:
    """A JSON-serialisable canonical form of ``obj`` for hashing.

    Handles the types cache keys are built from: dataclasses (tagged
    with their class name so two option types with equal fields do not
    collide), numpy arrays (dtype + shape + SHA-256 of the C-order bytes)
    and scalars, enums, containers, and JSON primitives.  Floats rely on
    ``repr`` round-tripping (exact for IEEE-754 doubles) and arrays on
    their bytes, so bit-different inputs always produce different keys.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "value": canonical(obj.value)}
    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:  # its bytes are pointers, not values
            raise TypeError("cannot canonicalise object arrays for cache keying")
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
    raise TypeError(f"cannot canonicalise {type(obj).__name__} for cache keying")


def stable_digest(*parts: object) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``parts``."""
    text = json.dumps([canonical(p) for p in parts], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CharacterizationCache:
    """Two-tier (memory LRU + disk JSON) store of computed physics.

    Parameters
    ----------
    max_entries:
        In-memory LRU capacity.  256 comfortably holds a full paper
        grid (6 mixes x 3 budgets x 5 policies) plus characterizations.
    cache_dir:
        Optional directory for the persistent JSON store; created on
        first write.  ``None`` keeps the cache memory-only.
    """

    def __init__(self, max_entries: int = 256,
                 cache_dir: Optional[Union[str, Path]] = None) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = int(max_entries)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._memory: "OrderedDict[str, Dict]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_errors = 0

    # ------------------------------------------------------------------
    def key(self, namespace: str, *parts: object) -> str:
        """The cache key for ``parts`` under a namespace (``char``,
        ``simulate``, ...)."""
        return f"{namespace}-{stable_digest(*parts)}"

    def _path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key}.json"

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict]:
        """The stored payload dict for ``key``, or ``None`` on a miss.

        Checks memory first, then disk.  A disk entry that fails to
        parse or carries the wrong format tag counts as a miss (the
        caller recomputes and overwrites it).
        """
        if key in self._memory:
            self._memory.move_to_end(key)
            self._record(hit=True)
            return self._memory[key]["payload"]
        if self.cache_dir is not None:
            path = self._path(key)
            try:
                entry = json.loads(path.read_text(encoding="utf-8"))
                if entry.get("format") != _PAYLOAD_FORMAT:
                    raise ValueError(f"bad cache entry format {entry.get('format')!r}")
                payload = entry["payload"]
            except FileNotFoundError:
                pass
            except (OSError, ValueError, KeyError, TypeError):
                self.disk_errors += 1
                if enabled():
                    get_registry().counter("parallel.cache.disk_errors").inc()
                    emit("parallel.cache", "corrupt_entry", key=key)
            else:
                self._remember(key, payload)
                self._record(hit=True)
                return payload
        self._record(hit=False)
        return None

    def put(self, key: str, payload: Dict) -> None:
        """Store a JSON-ready payload under ``key`` (memory + disk)."""
        self._remember(key, payload)
        if self.cache_dir is not None:
            entry = {"format": _PAYLOAD_FORMAT, "key": key, "payload": payload}
            try:
                self.cache_dir.mkdir(parents=True, exist_ok=True)
                path = self._path(key)
                tmp = path.with_suffix(".tmp")
                tmp.write_text(json.dumps(entry), encoding="utf-8")
                tmp.replace(path)
            except OSError:
                # A read-only or full disk must never fail the computation;
                # the result simply stays memory-only.
                self.disk_errors += 1
                if enabled():
                    get_registry().counter("parallel.cache.disk_errors").inc()

    # ------------------------------------------------------------------
    def _remember(self, key: str, payload: Dict) -> None:
        self._memory[key] = {"payload": payload}
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)

    def _record(self, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        if enabled():
            name = "parallel.cache.hits" if hit else "parallel.cache.misses"
            get_registry().counter(name).inc()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Entries currently held in memory."""
        return len(self._memory)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/error counts since construction."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_errors": self.disk_errors,
            "memory_entries": len(self._memory),
        }


# ----------------------------------------------------------------------
# process-global activation (mirrors the telemetry context)
# ----------------------------------------------------------------------
_active: Optional[CharacterizationCache] = None


def activate_cache(cache: Optional[CharacterizationCache] = None,
                   **kwargs) -> CharacterizationCache:
    """Install a process-global cache; returns it.

    Pass an existing instance, or keyword arguments
    (``max_entries``/``cache_dir``) to construct one.
    """
    global _active
    _active = cache if cache is not None else CharacterizationCache(**kwargs)
    return _active


def active_cache() -> Optional[CharacterizationCache]:
    """The installed cache, or ``None`` when caching is off."""
    return _active


def deactivate_cache() -> None:
    """Remove the process-global cache (in-flight entries are dropped)."""
    global _active
    _active = None
