"""Cluster configuration as a running control loop.

The title's "cluster configuration" is not a one-shot solve: devices
move, attach points change, and the delay matrix drifts.  This package
closes the loop:

* :mod:`repro.cluster.monitor` — load/utilization tracking and
  overload detection;
* :mod:`repro.cluster.migration` — reassignment cost model and the
  hysteresis rule that decides whether moving devices pays;
* :mod:`repro.cluster.controller` — epoch-driven reconfiguration
  strategies (static / always / hysteresis / polish) over a mobility
  stream;
* :mod:`repro.cluster.online` — streaming arrival of new devices with
  immediate irrevocable assignment;
* :mod:`repro.cluster.faults` — epoch-level server failure dynamics and
  the masked degraded problems they induce;
* :mod:`repro.cluster.degradation` — graceful degradation: shed load by
  priority when surviving capacity cannot host everyone.
"""

from repro._lazy import lazy_exports

# Resolved on first use: the serving tier needs only ``online``, and
# ``churn``/``controller``/``degradation`` would pull in the solvers.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.cluster.churn": ("ChurnEvent", "ChurnProcess", "MembershipController"),
    "repro.cluster.degradation": ("DegradedSolution", "solve_degraded"),
    "repro.cluster.faults": (
        "FaultEvent", "ServerFaultProcess", "degraded_problem", "served_cost",
        "serving_fraction",
    ),
    "repro.cluster.controller": (
        "ControllerDecision", "ReconfigurationController", "RECONFIGURE_STRATEGIES",
    ),
    "repro.cluster.migration": ("MigrationPolicy", "count_moves"),
    "repro.cluster.monitor": ("LoadMonitor",),
    "repro.cluster.online": ("OnlineAssigner",),
})

__all__ = [
    "ChurnEvent",
    "ChurnProcess",
    "MembershipController",
    "DegradedSolution",
    "solve_degraded",
    "FaultEvent",
    "ServerFaultProcess",
    "degraded_problem",
    "served_cost",
    "serving_fraction",
    "ControllerDecision",
    "ReconfigurationController",
    "RECONFIGURE_STRATEGIES",
    "MigrationPolicy",
    "count_moves",
    "LoadMonitor",
    "OnlineAssigner",
]
