"""Workload substrate: the synthetic arithmetic-intensity kernel and mixes.

The paper evaluates with a synthetic kernel (its §IV, Fig. 2; released by
the authors as the "arithmetic-intensity" benchmark) whose knobs are:

* **computational intensity** — FLOPs per byte of memory traffic,
* **vector length** — 128-bit (xmm) or 256-bit (ymm) FMA instructions,
* **percent of waiting ranks** — fraction of the job's processes on the
  non-critical path, polling at the bulk-synchronous barrier,
* **imbalance factor** — how much more work the critical path performs
  (2x / 3x in the paper's grid).

This subpackage models that kernel analytically (:mod:`.kernel`), lays out
jobs over nodes (:mod:`.job`), builds the configuration catalog spanning
the paper's Fig. 4/5 heat-map grid (:mod:`.catalog`), constructs the six
workload mixes of Table II (:mod:`.mixes`), and generates the Fig. 1
facility power trace (:mod:`.facility`).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "kernel": ("KernelConfig", "VectorWidth", "Precision", "activity_factor",
               "WAITING_IMBALANCE_GRID", "INTENSITY_GRID"),
    "job": ("Job", "WorkloadMix"),
    "catalog": ("ConfigCatalog", "build_catalog"),
    "mixes": ("MixBuilder", "MIX_NAMES"),
    "facility": ("FacilityTraceConfig", "generate_facility_trace"),
    "phases": ("WorkloadPhase", "PhasedWorkload", "PhasedRunResult",
               "simulate_phased_job"),
})
