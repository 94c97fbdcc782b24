"""GEOPM-style job runtime: agents, reports, and the per-job controller.

The paper's application-level layer is GEOPM (ref. [4]): a per-job runtime
whose *agents* observe hardware telemetry each control epoch and adjust
RAPL limits.  The experiments use two of its stock agents plus the report
infrastructure:

* :class:`~repro.runtime.monitor.MonitorAgent` — telemetry only, never
  changes limits.  Its reports give the "maximum power each workload
  consumes under no power constraints" (paper §IV-B metric (a), Fig. 4).
* :class:`~repro.runtime.power_governor.PowerGovernorAgent` — enforces a
  uniform per-host cap from a job-level budget.
* :class:`~repro.runtime.power_balancer.PowerBalancerAgent` — the paper's
  §IV-B workhorse: lowers limits where they do not hurt the job's critical
  path and re-distributes the slack to hosts that do, yielding the
  "minimum power each workload needs" (metric (b), Fig. 5).

:class:`~repro.runtime.controller.Controller` drives an agent over control
epochs against the simulated platform, exactly where GEOPM's Controller
sits on real hardware, and emits :class:`~repro.runtime.reports.JobReport`
objects the resource-manager policies consume.
:class:`~repro.runtime.batch.ControllerBatch` advances many such runs in
lockstep as ``(runs, hosts)`` tensors, bit-identical per run to the serial
controller — the fast path for characterization grids and scenario sweeps.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "reports": ("HostReport", "JobReport", "report_from_sums"),
    "agent": ("Agent", "AgentBatch", "PlatformSample", "SampleBatch"),
    "monitor": ("MonitorAgent",),
    "power_governor": ("PowerGovernorAgent",),
    "power_balancer": ("PowerBalancerAgent", "BalancerOptions"),
    "frequency_governor": ("FrequencyGovernorAgent",
                           "FrequencyGovernorOptions"),
    "controller": ("Controller",),
    "batch": ("ControllerBatch", "ControllerBatchResult", "ControllerRunSpec",
              "run_controller_batch"),
    "trace": ("JobTrace", "TraceRecord", "TraceWriter", "attach_tracer"),
})
