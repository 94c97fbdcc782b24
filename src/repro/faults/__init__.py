"""Fault injection & graceful degradation for the power stack.

The robustness axis of the reproduction: deterministic, seedable fault
timelines (:mod:`repro.faults.schedule`), injection adapters for each
layer's clock (:mod:`repro.faults.injection` for the runtime controller;
the engine and site simulation consume schedules directly), the named
standard scenario suite (:mod:`repro.faults.scenarios`), and the
manager-side degradation ladder (:mod:`repro.faults.degradation`).

Design rule: **an empty schedule is a no-op by construction** — every
hook in the stack is gated on :attr:`FaultSchedule.active`, so fault-free
runs keep their exact pre-existing code paths and bit-identical results
(property-tested).  Every injected fault and every degradation decision
emits ``faults.*`` telemetry, so a run's exceptional-case record is as
observable as its steady state.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "schedule": ("FaultEvent", "FaultKind", "FaultSchedule",
                 "random_schedule"),
    "injection": ("RuntimeFaultInjector",),
    "scenarios": ("SCENARIO_NAMES", "STANDARD_SCENARIOS", "FaultScenario",
                  "build_scenario"),
    "degradation": ("DegradationConfig", "DegradationDecision",
                    "InfeasibleBudgetError", "plan_with_degradation",
                    "proportional_clamp_caps", "quarantine_caps"),
})
