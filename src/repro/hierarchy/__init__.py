"""Facility-scale hierarchical power simulation.

A facility → cluster → rack → node budget-broker tree over the existing
site-simulation physics: :mod:`repro.hierarchy.broker` is the pure
apportionment layer (pluggable uniform / demand-weighted / priority
policies), :mod:`repro.hierarchy.facility` plans the tree open loop and
runs the leaf clusters on the fused engine (:mod:`repro.hierarchy.fused`,
cross-cluster stacked engine passes) — ``workers=k`` splits the clusters
into k groups over :class:`~repro.parallel.runner.ParallelRunner` —
under a strict determinism contract: every worker count is
bit-identical.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "broker": ("BROKER_POLICIES", "BudgetBroker", "ChildSignal", "apportion"),
    "facility": ("ClusterOutcome", "ClusterSpec", "FacilityConfig",
                 "FacilitySimulationResult", "build_cluster",
                 "cluster_arrivals", "facility_budget_series",
                 "run_facility_simulation"),
    "fused": ("run_fused_facility_leaves",),
})
