"""Solver registry: every algorithm in the comparison, by name.

The benchmark harness sweeps algorithms by registry name, so adding a
solver here makes it appear in every table.  RL solvers are imported
lazily to keep ``repro.solvers`` and ``repro.rl`` free of import
cycles.  :class:`~repro.solvers.exact.BruteForceSolver` is deliberately
not registered: it is the exhaustive test oracle for tiny instances,
not a member of the comparison.
"""

from __future__ import annotations

from typing import Callable

from repro.contention.solvers import CongestionLocalSearchSolver
from repro.errors import SolverError
from repro.solvers.annealing import SimulatedAnnealingSolver
from repro.solvers.base import Solver
from repro.solvers.bottleneck import BottleneckSolver
from repro.solvers.exact import BranchAndBoundSolver
from repro.solvers.genetic import GeneticSolver
from repro.solvers.greedy import (
    GreedyFeasibleSolver,
    NearestServerSolver,
    RandomFeasibleSolver,
    RegretGreedySolver,
)
from repro.solvers.lagrangian import LagrangianSolver
from repro.solvers.lns import LNSSolver
from repro.solvers.local_search import LocalSearchSolver
from repro.solvers.lp import LPRoundingSolver
from repro.solvers.resilient import ResilientSolver


def _tacc_factory(**kwargs) -> Solver:
    from repro.rl.agent import TaccSolver

    return TaccSolver(**kwargs)


def _qlearning_factory(**kwargs) -> Solver:
    from repro.rl.qlearning import QLearningSolver

    return QLearningSolver(**kwargs)


def _bandit_factory(**kwargs) -> Solver:
    from repro.rl.bandit import BanditSolver

    return BanditSolver(**kwargs)


def _reinforce_factory(**kwargs) -> Solver:
    from repro.rl.reinforce import ReinforceSolver

    return ReinforceSolver(**kwargs)


def _sarsa_factory(**kwargs) -> Solver:
    from repro.rl.sarsa import SarsaSolver

    return SarsaSolver(**kwargs)


_REGISTRY: dict[str, Callable[..., Solver]] = {
    NearestServerSolver.name: NearestServerSolver,
    GreedyFeasibleSolver.name: GreedyFeasibleSolver,
    RegretGreedySolver.name: RegretGreedySolver,
    RandomFeasibleSolver.name: RandomFeasibleSolver,
    LocalSearchSolver.name: LocalSearchSolver,
    SimulatedAnnealingSolver.name: SimulatedAnnealingSolver,
    GeneticSolver.name: GeneticSolver,
    LPRoundingSolver.name: LPRoundingSolver,
    LNSSolver.name: LNSSolver,
    LagrangianSolver.name: LagrangianSolver,
    BottleneckSolver.name: BottleneckSolver,
    CongestionLocalSearchSolver.name: CongestionLocalSearchSolver,
    ResilientSolver.name: ResilientSolver,
    BranchAndBoundSolver.name: BranchAndBoundSolver,
    "tacc": _tacc_factory,
    "qlearning": _qlearning_factory,
    "bandit": _bandit_factory,
    "reinforce": _reinforce_factory,
    "sarsa": _sarsa_factory,
}


def available_solvers() -> list[str]:
    """All registered solver names, sorted."""
    return sorted(_REGISTRY)


def get_solver(name: str, **kwargs) -> Solver:
    """Instantiate a solver by registry name, passing ``kwargs`` through."""
    if name not in _REGISTRY:
        raise SolverError(f"unknown solver {name!r}; available: {available_solvers()}")
    return _REGISTRY[name](**kwargs)


def register_solver(name: str, factory: Callable[..., Solver]) -> None:
    """Add a custom solver to the registry (e.g. from user code)."""
    if name in _REGISTRY:
        raise SolverError(f"solver {name!r} is already registered")
    _REGISTRY[name] = factory
