"""Epoch-driven reconfiguration over a mobility stream.

The controller consumes the sequence of refreshed problems produced by
:class:`~repro.workload.mobility.RandomWaypointMobility` and maintains
the cluster's assignment under one of four strategies:

* ``static`` — solve once, never touch it again (the baseline that
  drifts as devices move);
* ``always`` — re-solve from scratch every epoch (the upper bound on
  responsiveness, maximum migration churn);
* ``hysteresis`` — re-solve only when the :class:`MigrationPolicy`
  says the net benefit clears migration costs, or when mobility made
  the incumbent infeasible;
* ``polish`` — run the shared shift/swap descent
  (:func:`~repro.solvers.local_search.descend`) from the incumbent
  each epoch (cheap, low-churn incremental repair); re-solve only when
  a degraded epoch left devices unassigned.

The F8 experiment plots per-epoch delay and cumulative migrations for
all four.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.migration import MigrationPolicy, count_moves
from repro.model.problem import AssignmentProblem
from repro.model.solution import Assignment
from repro.obs import names as obs_names
from repro.obs import runtime as obs_runtime
from repro.solvers.base import Solver
from repro.solvers.local_search import DelayEvaluator, descend
from repro.utils.validation import require

RECONFIGURE_STRATEGIES = ("static", "always", "hysteresis", "polish")


@dataclass
class ControllerDecision:
    """What the controller did at one epoch."""

    epoch: int
    reconfigured: bool
    moves: int
    cost: float
    feasible: bool
    vector: np.ndarray
    #: devices shed by graceful degradation this epoch (0 = full service)
    shed: int = 0


class ReconfigurationController:
    """Keeps an assignment current as the delay matrix drifts."""

    def __init__(
        self,
        solver: Solver,
        strategy: str = "hysteresis",
        policy: "MigrationPolicy | None" = None,
        polish_passes: int = 20,
    ) -> None:
        require(
            strategy in RECONFIGURE_STRATEGIES,
            f"unknown strategy {strategy!r}; known: {RECONFIGURE_STRATEGIES}",
        )
        self.solver = solver
        self.strategy = strategy
        self.policy = policy if policy is not None else MigrationPolicy()
        self.polish_passes = polish_passes
        self._vector: "np.ndarray | None" = None
        self.total_moves = 0
        self.reconfigurations = 0

    # ------------------------------------------------------------------
    def initialize(self, problem: AssignmentProblem) -> ControllerDecision:
        """Epoch 0: solve the initial configuration."""
        registry = obs_runtime.metrics()
        with registry.timer(
            obs_names.CLUSTER_RECONFIG_LATENCY, {"strategy": self.strategy}
        ):
            result = self.solver.solve(problem)
        registry.counter(obs_names.CLUSTER_RECONFIGS, {"strategy": self.strategy}).inc()
        self._vector = result.assignment.vector
        return ControllerDecision(
            epoch=0,
            reconfigured=True,
            moves=0,
            cost=result.assignment.total_delay(),
            feasible=result.feasible,
            vector=self._vector.copy(),
        )

    def observe(
        self,
        epoch: int,
        problem: AssignmentProblem,
        failed: "frozenset[int] | set[int] | None" = None,
    ) -> ControllerDecision:
        """React to the refreshed problem of one mobility epoch.

        With a non-empty ``failed`` server set the controller enters
        degraded mode: it re-solves the masked problem and, when the
        surviving capacity cannot host everyone, sheds low-priority
        devices instead of raising (see :func:`solve_degraded`).
        """
        require(self._vector is not None, "call initialize() before observe()")
        if failed:
            return self._observe_degraded(epoch, problem, frozenset(failed))
        registry = obs_runtime.metrics()
        strategy_labels = {"strategy": self.strategy}
        registry.counter(obs_names.CLUSTER_EPOCHS, strategy_labels).inc()
        incumbent = Assignment(problem, self._vector)
        current_cost = incumbent.total_delay()
        current_feasible = incumbent.is_feasible()

        if self.strategy == "static":
            return self._decision(epoch, False, 0, current_cost, current_feasible)

        if self.strategy == "polish":
            with registry.timer(obs_names.CLUSTER_RECONFIG_LATENCY, strategy_labels):
                if incumbent.is_complete:
                    evaluator = DelayEvaluator(problem, self._vector)
                    descend(problem, evaluator, self.polish_passes)
                    new_vector = evaluator.vector
                else:
                    # devices shed in a degraded epoch have no server
                    # to descend from: re-solve to bring them back
                    new_vector = self.solver.solve(problem).assignment.vector
            moves = count_moves(self._vector, new_vector)
            self._commit(new_vector, moves, reconfigured=moves > 0)
            polished = Assignment(problem, new_vector)
            return self._decision(
                epoch, moves > 0, moves, polished.total_delay(), polished.is_feasible()
            )

        # strategies that may re-solve
        with registry.timer(obs_names.CLUSTER_RECONFIG_LATENCY, strategy_labels):
            candidate = self.solver.solve(problem)
        candidate_vector = candidate.assignment.vector
        moves = count_moves(self._vector, candidate_vector)
        if self.strategy == "always":
            take = True
        else:  # hysteresis
            take = self.policy.should_migrate(
                current_cost,
                candidate.assignment.total_delay(),
                moves,
                force=not current_feasible,
            )
        if take and candidate.feasible:
            self._commit(candidate_vector, moves, reconfigured=True)
            return self._decision(
                epoch, True, moves, candidate.assignment.total_delay(), True
            )
        return self._decision(epoch, False, 0, current_cost, current_feasible)

    # ------------------------------------------------------------------
    def _observe_degraded(
        self, epoch: int, problem: AssignmentProblem, failed: frozenset[int]
    ) -> ControllerDecision:
        """Degraded-mode epoch: re-solve around the failed servers."""
        from repro.cluster.degradation import solve_degraded
        from repro.cluster.faults import degraded_problem

        registry = obs_runtime.metrics()
        strategy_labels = {"strategy": self.strategy}
        registry.counter(obs_names.CLUSTER_EPOCHS, strategy_labels).inc()
        degraded = degraded_problem(problem, failed)
        incumbent = Assignment(degraded, self._vector)
        if incumbent.is_feasible() and self.strategy in ("static", "hysteresis"):
            # nobody stranded and no overload: the incumbent survives
            return self._decision(
                epoch, False, 0, incumbent.total_delay(), True
            )
        with registry.timer(obs_names.CLUSTER_RECONFIG_LATENCY, strategy_labels):
            result = self.solver.solve(degraded)
            if result.feasible:
                vector, shed = result.assignment.vector, ()
            else:
                solution = solve_degraded(degraded, self.solver)
                vector, shed = solution.vector, solution.shed
        moves = count_moves(self._vector, vector)
        self._commit(vector, moves, reconfigured=True)
        committed = Assignment(degraded, vector)
        decision = self._decision(
            epoch, True, moves, committed.total_delay(),
            committed.is_feasible() if not shed else True,
        )
        decision.shed = len(shed)
        return decision

    def _commit(self, vector: np.ndarray, moves: int, reconfigured: bool) -> None:
        self._vector = vector.copy()
        self.total_moves += moves
        registry = obs_runtime.metrics()
        labels = {"strategy": self.strategy}
        registry.counter(obs_names.CLUSTER_MIGRATIONS, labels).inc(moves)
        if reconfigured:
            self.reconfigurations += 1
            registry.counter(obs_names.CLUSTER_RECONFIGS, labels).inc()

    def _decision(
        self, epoch: int, reconfigured: bool, moves: int, cost: float, feasible: bool
    ) -> ControllerDecision:
        assert self._vector is not None
        return ControllerDecision(
            epoch=epoch,
            reconfigured=reconfigured,
            moves=moves,
            cost=cost,
            feasible=feasible,
            vector=self._vector.copy(),
        )
