"""repro — Topology Aware Cluster Configuration for edge computing.

Reproduction of Rajashekar et al., "Topology Aware Cluster
Configuration for Minimizing Communication Delay in Edge Computing"
(ICDCS 2022).  The library models IoT-to-edge assignment as a
generalized assignment problem over a real network topology, solves it
with RL-based heuristics (the paper's contribution) and a full field
of classical baselines, and validates solutions with a discrete-event
simulator.

Quickstart::

    import repro

    problem = repro.topology_instance(
        family="random_geometric", n_routers=50,
        n_devices=60, n_servers=6, tightness=0.8, seed=42,
    )
    result = repro.get_solver("tacc", seed=1).solve(problem)
    print(result.objective_value, result.feasible)
    report = repro.simulate_assignment(result.assignment, duration_s=30.0)
    print(report.mean_network_latency_ms, report.deadline_miss_rate)

Subpackages: :mod:`repro.topology`, :mod:`repro.model`,
:mod:`repro.solvers`, :mod:`repro.rl`, :mod:`repro.sim`,
:mod:`repro.workload`, :mod:`repro.cluster`, :mod:`repro.experiments`,
:mod:`repro.obs`.
"""

from repro import errors, obs
from repro._lazy import lazy_exports

# The rest resolves on first use, so a process that imports only the
# serving stack never loads the solvers, the simulator or scipy.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.model.instances": ("gap_instance", "random_instance", "topology_instance"),
    "repro.model.problem": ("AssignmentProblem",),
    "repro.model.solution": ("Assignment",),
    "repro.rl.agent": ("TaccSolver",),
    "repro.sim.runner": ("simulate_assignment",),
    "repro.solvers.registry": ("available_solvers", "get_solver", "register_solver"),
    "repro.topology.generators": ("make_topology",),
})

__version__ = "1.0.0"

__all__ = [
    "errors",
    "obs",
    "gap_instance",
    "random_instance",
    "topology_instance",
    "AssignmentProblem",
    "Assignment",
    "TaccSolver",
    "simulate_assignment",
    "available_solvers",
    "get_solver",
    "register_solver",
    "make_topology",
    "__version__",
]
