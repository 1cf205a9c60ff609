"""Congestion-aware local search.

A shift/swap descent that scores moves under the flow-based contention
cost instead of the static delay matrix, using
:class:`~repro.contention.model.IncrementalEvaluator` so every
candidate move is priced in O(links-on-path).  Its starting point is a
greedy construction scored the same way.

It degrades gracefully: on a matrix-only problem (no graph to route
over) it falls back to the delay-only feasible construction, so the
registry-wide solver contracts hold on every instance kind.  Reported
``objective_value`` stays the standard resolved objective (total delay
by default) — the contention cost is what the *search* minimizes, and
it is returned in ``extra`` for the experiment harness.
"""

from __future__ import annotations

import numpy as np

from repro.contention.model import (
    ContentionConfig,
    ContentionModel,
    IncrementalEvaluator,
)
from repro.model.problem import AssignmentProblem
from repro.model.solution import UNASSIGNED, Assignment
from repro.solvers.base import Solver
from repro.solvers.greedy import feasible_start
from repro.utils.validation import require

#: capacity slack tolerance, matching the delay-only neighbourhood code
_EPS = 1e-12


def _greedy_construct(
    model: ContentionModel, problem: AssignmentProblem
) -> IncrementalEvaluator:
    """Decreasing-demand greedy scored by the incremental cost delta.

    Each device takes the fitting server with the lowest marginal cost.
    Returns the evaluator holding the built vector; devices that fit
    nowhere stay unassigned.
    """
    n, m = problem.n_devices, problem.n_servers
    evaluator = IncrementalEvaluator(
        model, np.full(n, UNASSIGNED, dtype=np.int64)
    )
    residual = problem.capacity.copy()
    healthy = problem.healthy_mask()
    order = np.argsort(-np.mean(problem.demand, axis=1), kind="stable")
    for device in (int(d) for d in order):
        best_server = -1
        best_delta = np.inf
        for server in range(m):
            if not healthy[server]:
                continue
            if problem.demand[device, server] > residual[server] + _EPS:
                continue
            delta = evaluator.shift_delta(device, server)
            if delta < best_delta - 1e-15:
                best_delta = delta
                best_server = server
        if best_server < 0:
            continue  # unfittable: left unassigned, result will be infeasible
        evaluator.apply_shift(device, best_server)
        residual[best_server] -= problem.demand[device, best_server]
    return evaluator


class CongestionLocalSearchSolver(Solver):
    """Best-improvement shift/swap descent on the contention cost.

    Identical neighbourhood and feasibility rules to
    :class:`~repro.solvers.local_search.LocalSearchSolver`, but move
    deltas come from the incremental link re-pricing, so the search
    actively drains saturated links — the configuration that wins the
    p99 tail once oversubscription passes the knee.
    """

    name = "congestion_local_search"

    def __init__(
        self,
        use_swaps: bool = True,
        max_passes: int = 200,
        config: "ContentionConfig | None" = None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        require(max_passes >= 1, "max_passes must be >= 1")
        self.config = config if config is not None else ContentionConfig()
        self.use_swaps = use_swaps
        self.max_passes = max_passes

    def _solve(self, problem: AssignmentProblem, rng) -> tuple[Assignment, dict]:
        if problem.graph is None or problem.devices is None or problem.servers is None:
            with self.phase("construct"):
                assignment = feasible_start(problem, rng)
            return assignment, {"iterations": 0, "fallback": "local_search"}
        with self.phase("route"):
            model = ContentionModel(problem, self.config)
        with self.phase("construct"):
            evaluator = _greedy_construct(model, problem)
            if np.any(evaluator.vector == UNASSIGNED):
                # congestion greedy could not complete; retry from the
                # delay-only feasibility chain before giving up
                fallback = feasible_start(problem, rng)
                if not fallback.is_complete:
                    return fallback, {"iterations": 0}
                evaluator = IncrementalEvaluator(model, fallback.vector)
        vector = evaluator.vector
        loads = Assignment(problem, vector.copy()).loads()
        n, m = problem.n_devices, problem.n_servers
        healthy = problem.healthy_mask()
        passes = 0
        moves = 0
        improved = True
        with self.phase("descend"):
            while improved and passes < self.max_passes:
                passes += 1
                improved = False
                best_delta = -1e-15
                best_move = None
                for device in range(n):
                    current = int(vector[device])
                    for server in range(m):
                        if server == current or not healthy[server]:
                            continue
                        if (loads[server] + problem.demand[device, server]
                                > problem.capacity[server] + _EPS):
                            continue
                        delta = evaluator.shift_delta(device, server)
                        if delta < best_delta:
                            best_delta = delta
                            best_move = ("shift", device, server)
                if self.use_swaps:
                    for a in range(n):
                        for b in range(a + 1, n):
                            sa, sb = int(vector[a]), int(vector[b])
                            if sa == sb:
                                continue
                            load_a = (loads[sa] - problem.demand[a, sa]
                                      + problem.demand[b, sa])
                            load_b = (loads[sb] - problem.demand[b, sb]
                                      + problem.demand[a, sb])
                            if (load_a > problem.capacity[sa] + _EPS
                                    or load_b > problem.capacity[sb] + _EPS):
                                continue
                            delta = evaluator.swap_delta(a, b)
                            if delta < best_delta:
                                best_delta = delta
                                best_move = ("swap", a, b)
                if best_move is not None:
                    kind, x, y = best_move
                    if kind == "shift":
                        current = int(vector[x])
                        loads[current] -= problem.demand[x, current]
                        loads[y] += problem.demand[x, y]
                        evaluator.apply_shift(x, y)
                    else:
                        sa, sb = int(vector[x]), int(vector[y])
                        loads[sa] += problem.demand[y, sa] - problem.demand[x, sa]
                        loads[sb] += problem.demand[x, sb] - problem.demand[y, sb]
                        evaluator.apply_swap(x, y)
                    moves += 1
                    improved = True
        return (
            Assignment(problem, vector),
            {
                "iterations": moves,
                "passes": passes,
                "contention_cost": evaluator.total_cost,
            },
        )
