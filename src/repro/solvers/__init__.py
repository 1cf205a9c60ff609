"""Assignment solvers: exact, baseline heuristics, and metaheuristics.

The paper positions its RL heuristic against "the state-of-the-art";
this package implements that comparison field:

* :mod:`repro.solvers.exact` — branch-and-bound (the optimum for the
  gap tables), plus the unregistered brute-force oracle the tests
  check it against;
* :mod:`repro.solvers.greedy` — constructive heuristics, from the
  capacity-blind nearest-server strawman to regret-based greedy;
* :mod:`repro.solvers.local_search` — shift/swap hill climbing;
* :mod:`repro.solvers.annealing` — simulated annealing with penalties;
* :mod:`repro.solvers.genetic` — GA with repair;
* :mod:`repro.solvers.lp` — LP relaxation bound and LP rounding;
* :mod:`repro.solvers.lns` — adaptive large neighbourhood search;
* :mod:`repro.solvers.lagrangian` — Lagrangian relaxation with a
  self-certified dual bound;
* :mod:`repro.solvers.bottleneck` — min-max (worst device) delay;
* :mod:`repro.solvers.resilient` — budgeted fallback chain.

The RL solvers (the paper's contribution) live in :mod:`repro.rl` and
plug into the same :class:`~repro.solvers.base.Solver` interface; the
registry in :mod:`repro.solvers.registry` knows all of them by name.
"""

from repro._lazy import lazy_exports

# Resolved on first use, so importing one solver module (or the
# registry) loads only what it needs.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.solvers.annealing": ("SimulatedAnnealingSolver",),
    "repro.solvers.base": ("Solver", "SolverResult"),
    "repro.solvers.bottleneck": ("BottleneckSolver",),
    "repro.solvers.exact": ("BranchAndBoundSolver", "BruteForceSolver"),
    "repro.solvers.genetic": ("GeneticSolver",),
    "repro.solvers.greedy": (
        "GreedyFeasibleSolver", "NearestServerSolver", "RandomFeasibleSolver",
        "RegretGreedySolver",
    ),
    "repro.solvers.lagrangian": ("LagrangianSolver",),
    "repro.solvers.lns": ("LNSSolver",),
    "repro.solvers.local_search": ("LocalSearchSolver",),
    "repro.solvers.lp": ("LPRoundingSolver", "lp_lower_bound"),
    "repro.solvers.registry": ("available_solvers", "get_solver"),
})

__all__ = [
    "SimulatedAnnealingSolver",
    "Solver",
    "SolverResult",
    "BottleneckSolver",
    "BranchAndBoundSolver",
    "BruteForceSolver",
    "GeneticSolver",
    "GreedyFeasibleSolver",
    "NearestServerSolver",
    "RandomFeasibleSolver",
    "RegretGreedySolver",
    "LagrangianSolver",
    "LNSSolver",
    "LocalSearchSolver",
    "LPRoundingSolver",
    "lp_lower_bound",
    "available_solvers",
    "get_solver",
]
