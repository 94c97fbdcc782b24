"""The paper's contribution: system-wide power management policies.

Five policies with increasing visibility (paper §III):

=====================  =====================  ==============================
Policy                 System-power aware     Application-performance aware
=====================  =====================  ==============================
``Precharacterized``   no                     no (static per-job cap)
``StaticCaps``         yes (uniform)          no
``MinimizeWaste``      yes                    no (observed power only)
``JobAdaptive``        no (per-job silo)      yes
``MixedAdaptive``      yes                    yes — the proposed policy
=====================  =====================  ==============================

Every policy is a pure function from (mix characterization, system budget)
to per-host node power caps — see :class:`~repro.core.policy.Policy` — so
they are deterministic, unit-testable, and directly comparable.  Shared
water-filling/redistribution arithmetic lives in :mod:`repro.core.allocation`.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "allocation": ("PowerAllocation", "distribute_uniform",
                   "distribute_weighted", "fit_to_budget"),
    "policy": ("Policy", "apply_job_runtime"),
    "static_caps": ("StaticCapsPolicy",),
    "precharacterized": ("PrecharacterizedPolicy",),
    "minimize_waste": ("MinimizeWastePolicy",),
    "job_adaptive": ("JobAdaptivePolicy",),
    "mixed_adaptive": ("MixedAdaptivePolicy",),
    "frequency_capped": ("FrequencyCappedPolicy",),
    "registry": ("POLICY_NAMES", "create_policy", "default_policies"),
})
