"""Resource-manager substrate: job queue, node allocation, power manager.

This is the system-level layer of the paper's stack (the role SLURM plays
on Quartz): it owns the cluster, admits job submissions, allocates nodes,
derives the system power budget, asks a :class:`~repro.core.policy.Policy`
for per-host caps, programs them, and launches the mix.

* :mod:`repro.manager.queue` — job submission records and a FIFO queue.
* :mod:`repro.manager.scheduler` — node allocation over the cluster
  partition (the paper's 918 medium-frequency nodes).
* :mod:`repro.manager.power_manager` — the budget-enforcement and policy
  application point; the integration seam the paper argues resource
  managers and job runtimes must share.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "queue": ("JobRequest", "JobQueue"),
    "scheduler": ("Scheduler", "ScheduledMix"),
    "power_manager": ("PowerManager", "ManagedRun"),
    "online": ("OnlinePowerManager", "OnlineRun", "OnlineEpoch"),
    "admission": ("PowerAwareAdmission", "AdmissionDecision"),
    "emergency": ("EmergencyResponse", "respond_to_budget_change",
                  "respond_to_budget_drop"),
    "site_simulation": ("Arrival", "BatchExecution", "BatchRecord",
                        "SiteSimulationResult", "run_site_simulation"),
})
