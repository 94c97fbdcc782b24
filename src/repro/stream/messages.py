"""Wire protocol of the streaming site daemon (``repro.stream.v1``).

Newline-delimited JSON in both directions, validated the same way the
telemetry provenance ledger is (:mod:`repro.telemetry.provenance`): a
schema tag pins the message version, a required-field table drives a
``validate_*`` pass that returns a list of human-readable problems, and
the daemon rejects a malformed message with an ``error`` reply instead of
dying — NRM's upstream/downstream API split, scaled to this repo.

Upstream (client -> daemon) operations:

``submit``
    Enqueue one job: a kernel spec plus node count, iterations, and the
    optional precharacterized power hint.
``set_budget``
    Move the facility budget mid-stream; admission re-runs against it.
``stats``
    Request the engine's :class:`~repro.stream.engine.StreamStats`.
``subscribe`` / ``unsubscribe``
    Start/stop the pub/sub telemetry feed (optionally filtered by event
    kind) bridged from the process :class:`~repro.telemetry.events.EventBus`.
``shutdown``
    Stop the daemon.

Downstream (daemon -> client) message types: ``ack``, ``error``,
``stats``, and ``event`` (one bus event, forwarded).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.manager.queue import JobRequest
from repro.workload.kernel import KernelConfig, Precision, VectorWidth

__all__ = [
    "STREAM_SCHEMA",
    "UPSTREAM_OPS",
    "DOWNSTREAM_TYPES",
    "validate_upstream",
    "validate_downstream",
    "encode_message",
    "decode_message",
    "job_payload",
    "job_request_from_payload",
    "submit_message",
    "set_budget_message",
    "stats_message",
    "subscribe_message",
    "unsubscribe_message",
    "shutdown_message",
    "ack_message",
    "error_message",
    "stats_reply",
    "event_message",
]

#: Schema tag every message must carry (versioned like the provenance
#: ledger's ``PROVENANCE_SCHEMA``).
STREAM_SCHEMA = "repro.stream.v1"

#: Upstream operation -> required operation-specific fields and types.
UPSTREAM_OPS: Dict[str, Dict[str, type]] = {
    "submit": {"job": dict},
    "set_budget": {"budget_w": (int, float)},
    "stats": {},
    "subscribe": {},
    "unsubscribe": {},
    "shutdown": {},
}

#: Downstream type -> required type-specific fields.
DOWNSTREAM_TYPES: Dict[str, Dict[str, type]] = {
    "ack": {"op": str},
    "error": {"reason": str},
    "stats": {"stats": dict},
    "event": {"source": str, "kind": str, "payload": dict},
}

#: Required fields of a ``submit`` job spec.
_JOB_REQUIRED: Dict[str, type] = {
    "name": str,
    "intensity": (int, float),
    "node_count": int,
    "iterations": int,
}


def _check_envelope(message: Any, key: str,
                    table: Dict[str, Dict[str, type]]) -> List[str]:
    problems: List[str] = []
    if not isinstance(message, dict):
        return [f"message must be an object, got {type(message).__name__}"]
    schema = message.get("schema")
    if schema != STREAM_SCHEMA:
        problems.append(
            f"schema mismatch: expected {STREAM_SCHEMA!r}, got {schema!r}"
        )
    tag = message.get(key)
    if not isinstance(tag, str):
        problems.append(f"missing {key!r} field")
        return problems
    if tag not in table:
        problems.append(
            f"unknown {key} {tag!r} (expected one of {sorted(table)})"
        )
        return problems
    for name, types in table[tag].items():
        value = message.get(name)
        if not isinstance(value, types) or isinstance(value, bool):
            expected = types.__name__ if isinstance(types, type) else \
                "/".join(t.__name__ for t in types)
            problems.append(
                f"{tag}: field {name!r} must be {expected}, "
                f"got {type(value).__name__}"
            )
    return problems


def validate_upstream(message: Any) -> List[str]:
    """Problems with a client -> daemon message ([] when valid)."""
    problems = _check_envelope(message, "op", UPSTREAM_OPS)
    if not problems and message["op"] == "submit":
        job = message["job"]
        for name, types in _JOB_REQUIRED.items():
            value = job.get(name)
            if not isinstance(value, types) or isinstance(value, bool):
                problems.append(f"submit: job field {name!r} invalid")
    return problems


def validate_downstream(message: Any) -> List[str]:
    """Problems with a daemon -> client message ([] when valid)."""
    return _check_envelope(message, "type", DOWNSTREAM_TYPES)


def encode_message(message: Dict[str, Any]) -> bytes:
    """One wire frame: compact JSON, newline-terminated."""
    return (json.dumps(message, separators=(",", ":"), sort_keys=True)
            + "\n").encode("utf-8")


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one wire frame (raises ``ValueError`` on malformed JSON)."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ValueError("frame must decode to an object")
    return message


# ----------------------------------------------------------------------
# job spec <-> JobRequest
def job_payload(request: JobRequest,
                time_s: Optional[float] = None) -> Dict[str, Any]:
    """The JSON job spec of one request (inverse of
    :func:`job_request_from_payload`)."""
    payload: Dict[str, Any] = {
        "name": request.name,
        "intensity": request.config.intensity,
        "vector": request.config.vector.value,
        "precision": request.config.precision.value,
        "waiting_fraction": request.config.waiting_fraction,
        "imbalance": request.config.imbalance,
        "node_count": request.node_count,
        "iterations": request.iterations,
    }
    if request.power_hint_w is not None:
        payload["power_hint_w"] = request.power_hint_w
    if time_s is not None:
        payload["time_s"] = time_s
    return payload


def job_request_from_payload(job: Dict[str, Any]) -> JobRequest:
    """Materialise a :class:`JobRequest` from a validated job spec.

    Domain errors (negative nodes, bad vector name, …) surface as
    ``ValueError`` for the daemon to turn into an ``error`` reply.
    """
    try:
        vector = VectorWidth(job.get("vector", "ymm"))
        precision = Precision(job.get("precision", "dp"))
    except ValueError as exc:
        raise ValueError(f"bad kernel spec: {exc}") from exc
    config = KernelConfig(
        intensity=float(job["intensity"]),
        vector=vector,
        precision=precision,
        waiting_fraction=float(job.get("waiting_fraction", 0.0)),
        imbalance=int(job.get("imbalance", 1)),
    )
    hint = job.get("power_hint_w")
    return JobRequest(
        name=str(job["name"]),
        config=config,
        node_count=int(job["node_count"]),
        iterations=int(job["iterations"]),
        power_hint_w=float(hint) if hint is not None else None,
    )


# ----------------------------------------------------------------------
# builders (every message carries the schema tag)
def _upstream(op: str, **fields: Any) -> Dict[str, Any]:
    return {"schema": STREAM_SCHEMA, "op": op, **fields}


def _downstream(type_: str, **fields: Any) -> Dict[str, Any]:
    return {"schema": STREAM_SCHEMA, "type": type_, **fields}


def submit_message(request: JobRequest,
                   time_s: Optional[float] = None) -> Dict[str, Any]:
    """Upstream ``submit`` for one request."""
    return _upstream("submit", job=job_payload(request, time_s=time_s))


def set_budget_message(budget_w: float) -> Dict[str, Any]:
    """Upstream ``set_budget``."""
    return _upstream("set_budget", budget_w=float(budget_w))


def stats_message() -> Dict[str, Any]:
    """Upstream ``stats`` request."""
    return _upstream("stats")


def subscribe_message(kinds: Optional[List[str]] = None) -> Dict[str, Any]:
    """Upstream ``subscribe`` (optionally filtered by event kinds)."""
    message = _upstream("subscribe")
    if kinds is not None:
        message["kinds"] = list(kinds)
    return message


def unsubscribe_message() -> Dict[str, Any]:
    """Upstream ``unsubscribe``."""
    return _upstream("unsubscribe")


def shutdown_message() -> Dict[str, Any]:
    """Upstream ``shutdown``."""
    return _upstream("shutdown")


def ack_message(op: str, **fields: Any) -> Dict[str, Any]:
    """Downstream ``ack`` of one upstream operation."""
    return _downstream("ack", op=op, **fields)


def error_message(reason: str, **fields: Any) -> Dict[str, Any]:
    """Downstream ``error``."""
    return _downstream("error", reason=reason, **fields)


def stats_reply(stats: Dict[str, Any]) -> Dict[str, Any]:
    """Downstream ``stats`` snapshot."""
    return _downstream("stats", stats=stats)


def event_message(source: str, kind: str,
                  payload: Dict[str, Any]) -> Dict[str, Any]:
    """Downstream ``event``: one forwarded telemetry bus event."""
    return _downstream("event", source=source, kind=kind, payload=payload)
