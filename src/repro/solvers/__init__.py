"""Assignment solvers: exact, baseline heuristics, and market/metaheuristics.

The paper positions its RL heuristic against "the state-of-the-art";
this package implements that comparison field:

* :mod:`repro.solvers.exact` — brute force and branch-and-bound (the
  optimum for the gap tables);
* :mod:`repro.solvers.greedy` — constructive heuristics, from the
  capacity-blind nearest-server strawman to regret-based greedy;
* :mod:`repro.solvers.local_search` — shift/swap hill climbing and tabu;
* :mod:`repro.solvers.annealing` — simulated annealing with penalties;
* :mod:`repro.solvers.genetic` — GA with repair;
* :mod:`repro.solvers.lp` — LP relaxation bound and LP rounding;
* :mod:`repro.solvers.auction` — price-based market heuristic.

The RL solvers (the paper's contribution) live in :mod:`repro.rl` and
plug into the same :class:`~repro.solvers.base.Solver` interface; the
registry in :mod:`repro.solvers.registry` knows all of them by name.
"""

from repro._lazy import lazy_exports

# Resolved on first use, so importing one solver module (or the
# registry) loads only what it needs.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.solvers.annealing": ("SimulatedAnnealingSolver",),
    "repro.solvers.auction": ("AuctionSolver",),
    "repro.solvers.base": ("Solver", "SolverResult"),
    "repro.solvers.bottleneck": ("BottleneckSolver",),
    "repro.solvers.exact": ("BranchAndBoundSolver", "BruteForceSolver"),
    "repro.solvers.genetic": ("GeneticSolver",),
    "repro.solvers.greedy": (
        "BestFitSolver", "GreedyFeasibleSolver", "NearestServerSolver",
        "RandomFeasibleSolver", "RegretGreedySolver", "RoundRobinSolver",
        "WorstFitSolver",
    ),
    "repro.solvers.lagrangian": ("LagrangianSolver",),
    "repro.solvers.lns": ("LNSSolver",),
    "repro.solvers.local_search": ("LocalSearchSolver", "TabuSearchSolver"),
    "repro.solvers.lp": ("LPRoundingSolver", "lp_lower_bound"),
    "repro.solvers.portfolio": ("PortfolioSolver",),
    "repro.solvers.registry": ("available_solvers", "get_solver"),
})

__all__ = [
    "SimulatedAnnealingSolver",
    "AuctionSolver",
    "Solver",
    "SolverResult",
    "BottleneckSolver",
    "BranchAndBoundSolver",
    "BruteForceSolver",
    "GeneticSolver",
    "BestFitSolver",
    "GreedyFeasibleSolver",
    "NearestServerSolver",
    "RandomFeasibleSolver",
    "RegretGreedySolver",
    "RoundRobinSolver",
    "WorstFitSolver",
    "LagrangianSolver",
    "LNSSolver",
    "LocalSearchSolver",
    "TabuSearchSolver",
    "LPRoundingSolver",
    "PortfolioSolver",
    "lp_lower_bound",
    "available_solvers",
    "get_solver",
]
