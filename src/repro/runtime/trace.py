"""GEOPM-style traces: the runtime's one per-epoch record.

Alongside its end-of-job report, GEOPM writes a *trace* — one row per
control epoch per host with the signals the agent sampled — as a
separate output the operator turns on.  Traces are what operators use to
debug a balancer that won't converge and what papers plot time series
from.  The controllers themselves keep only the report's sums and the
final epoch, so :func:`attach_tracer` is how a caller gets per-epoch
data: it wires a :class:`TraceWriter` into a
:class:`~repro.runtime.controller.Controller`, which then collects every
:class:`~repro.runtime.agent.PlatformSample` of each run into a columnar
trace with CSV export.

Traces ride the unified telemetry pipeline: :meth:`TraceWriter.record`
*publishes* each sample as a ``runtime.trace`` event on an
:class:`~repro.telemetry.events.EventBus` (the global bus by default)
and builds its :class:`JobTrace` from a subscription to those same
events — so any other subscriber (a live dashboard, the JSONL event
log) sees exactly what the trace file will contain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.runtime.agent import PlatformSample
from repro.telemetry import Event, EventBus, get_bus

__all__ = ["TraceRecord", "JobTrace", "TraceWriter", "attach_tracer"]

#: Columns of a trace row, in GEOPM's naming spirit.
TRACE_COLUMNS = (
    "epoch",
    "host",
    "epoch_time_s",
    "host_time_s",
    "power_w",
    "power_limit_w",
    "energy_j",
    "frequency_ghz",
)


@dataclass(frozen=True)
class TraceRecord:
    """One host's telemetry for one epoch."""

    epoch: int
    host: int
    epoch_time_s: float
    host_time_s: float
    power_w: float
    power_limit_w: float
    energy_j: float
    frequency_ghz: float

    def row(self) -> Dict[str, float]:
        """Flat dict in :data:`TRACE_COLUMNS` order."""
        return {
            "epoch": self.epoch,
            "host": self.host,
            "epoch_time_s": self.epoch_time_s,
            "host_time_s": self.host_time_s,
            "power_w": self.power_w,
            "power_limit_w": self.power_limit_w,
            "energy_j": self.energy_j,
            "frequency_ghz": self.frequency_ghz,
        }


@dataclass
class JobTrace:
    """A complete trace: all epochs of all hosts of one job."""

    job_name: str
    records: List[TraceRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def epochs(self) -> int:
        """Number of distinct epochs recorded."""
        return len({r.epoch for r in self.records})

    @property
    def hosts(self) -> int:
        """Number of distinct hosts recorded."""
        return len({r.host for r in self.records})

    def column(self, name: str, host: Optional[int] = None) -> np.ndarray:
        """One column as an array, optionally filtered to a single host.

        Rows are ordered by (epoch, host), so a single-host column is an
        epoch-ordered time series.
        """
        if name not in TRACE_COLUMNS:
            raise KeyError(f"unknown trace column {name!r}; have {TRACE_COLUMNS}")
        rows = (
            self.records
            if host is None
            else [r for r in self.records if r.host == host]
        )
        return np.array([getattr(r, name) for r in rows], dtype=float)

    def to_csv(self, path: Union[str, Path]) -> Path:
        """Write the trace as CSV; returns the path written.

        An empty trace (a zero-epoch run) still produces a well-formed
        file: the header row alone, so downstream CSV readers see the
        schema instead of a zero-byte file.
        """
        from repro.analysis.export import write_csv

        if not self.records:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(",".join(TRACE_COLUMNS) + "\r\n", encoding="utf-8")
            return path
        return write_csv([r.row() for r in self.records], path)


class TraceWriter:
    """Collects platform samples into a :class:`JobTrace` via the bus.

    Call :meth:`record` once per epoch with the sample the controller
    produced; hosts are numbered by array position.  Each call publishes
    one ``runtime.trace`` / ``epoch_sample`` event carrying the per-host
    columns; the writer's own subscription turns those events into
    :class:`TraceRecord` rows, so traces and the event log share one
    pipeline.  Publishing is unconditional — an explicitly attached
    tracer is a request for data, not subject to the global telemetry
    switch.

    Parameters
    ----------
    job_name:
        Job the trace belongs to (filters this writer's subscription,
        so concurrent writers on a shared bus do not cross-collect).
    bus:
        Event bus to publish on; defaults to the global telemetry bus.
    """

    def __init__(self, job_name: str, bus: Optional[EventBus] = None) -> None:
        self.trace = JobTrace(job_name=job_name)
        self.bus = bus if bus is not None else get_bus()
        self._token: Optional[int] = self.bus.subscribe(
            self._on_event, kinds=["epoch_sample"], sources=["runtime.trace"]
        )
        #: Undoes :func:`attach_tracer`'s wrapping on :meth:`close`.
        self._detach: Optional[Callable[[], None]] = None

    def record(self, sample: PlatformSample) -> None:
        """Publish one epoch's telemetry (every host) as a trace event."""
        self.bus.publish(
            "runtime.trace", "epoch_sample",
            job=self.trace.job_name,
            epoch=int(sample.epoch),
            epoch_time_s=float(sample.epoch_time_s),
            host_time_s=[float(v) for v in sample.host_time_s],
            power_w=[float(v) for v in sample.host_power_w],
            power_limit_w=[float(v) for v in sample.power_limit_w],
            energy_j=[float(v) for v in sample.host_energy_j],
            frequency_ghz=[float(v) for v in sample.mean_freq_ghz],
        )

    def _on_event(self, event: Event) -> None:
        """Expand one epoch_sample event into per-host trace rows."""
        payload = event.payload
        if payload.get("job") != self.trace.job_name:
            return
        for host, host_time in enumerate(payload["host_time_s"]):
            self.trace.records.append(
                TraceRecord(
                    epoch=payload["epoch"],
                    host=host,
                    epoch_time_s=payload["epoch_time_s"],
                    host_time_s=host_time,
                    power_w=payload["power_w"][host],
                    power_limit_w=payload["power_limit_w"][host],
                    energy_j=payload["energy_j"][host],
                    frequency_ghz=payload["frequency_ghz"][host],
                )
            )

    def close(self) -> None:
        """Detach from the bus and unwrap an attached controller (the
        collected trace stays readable)."""
        if self._token is not None:
            self.bus.unsubscribe(self._token)
            self._token = None
        if self._detach is not None:
            self._detach()
            self._detach = None


def attach_tracer(controller) -> TraceWriter:
    """Attach a tracer to a controller without touching its agent.

    Wraps the controller's ``_run_epoch`` so every sample is recorded
    before the agent sees it.  Each :meth:`Controller.run` starts a fresh
    :class:`JobTrace` (a trace read earlier stays intact), so
    ``writer.trace`` always holds the latest run.  :meth:`TraceWriter.close`
    restores the controller's own ``_run_epoch``.
    """
    writer = TraceWriter(job_name=controller.job.name)
    original = controller._run_epoch

    def traced(epoch, limits_w):
        sample = original(epoch, limits_w)
        if epoch == 0:
            writer.trace = JobTrace(job_name=writer.trace.job_name)
        writer.record(sample)
        return sample

    def detach():
        controller._run_epoch = original

    controller._run_epoch = traced
    writer._detach = detach
    return writer
