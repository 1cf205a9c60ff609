"""Neighbourhood search: best-improvement hill climbing.

It operates on the classic GAP neighbourhood:

* **shift** — move one device to a different server with room;
* **swap** — exchange the servers of two devices when both fit.

:func:`descend` is the one shift/swap descent in the library.  It owns
the server loads, the capacity checks and the move rule; an evaluator
prices and commits moves.  :class:`DelayEvaluator` prices them on the
delay matrix; :class:`~repro.contention.model.IncrementalEvaluator`
prices them under the contention cost.  :class:`LocalSearchSolver`,
the congestion local search, TACC's polish, the bottleneck solver's
tie-break and the reconfiguration controller's ``polish`` strategy all
run it.

A move is only a candidate if it keeps every server within capacity,
so the descent inherits the paper's "never overloaded" guarantee from
its feasible starting point.  A failed server has zero capacity (see
:class:`~repro.model.problem.AssignmentProblem`), so no move lands on
one.
"""

from __future__ import annotations

import numpy as np

from repro.model.problem import AssignmentProblem
from repro.model.solution import UNASSIGNED, Assignment
from repro.solvers.base import Solver
from repro.solvers.greedy import feasible_start, random_feasible_assignment
from repro.utils.validation import require


class DelayEvaluator:
    """Move deltas on the static delay matrix.

    Holds its own copy of the assignment vector in :attr:`vector`;
    ``apply_*`` update it in place.
    """

    def __init__(self, problem: AssignmentProblem, vector) -> None:
        self.delay = problem.delay
        self.vector = np.asarray(vector, dtype=np.int64).copy()

    def shift_delta(self, device: int, server: int) -> float:
        """Delay change of moving ``device`` to ``server``."""
        return self.delay[device, server] - self.delay[device, int(self.vector[device])]

    def swap_delta(self, a: int, b: int) -> float:
        """Delay change of exchanging the servers of ``a`` and ``b``."""
        sa, sb = int(self.vector[a]), int(self.vector[b])
        return (
            self.delay[a, sb]
            + self.delay[b, sa]
            - self.delay[a, sa]
            - self.delay[b, sb]
        )

    def apply_shift(self, device: int, server: int) -> None:
        self.vector[device] = server

    def apply_swap(self, a: int, b: int) -> None:
        vector = self.vector
        vector[a], vector[b] = vector[b], vector[a]


def descend(
    problem: AssignmentProblem, evaluator, max_passes: int, use_swaps: bool = True
) -> tuple[int, int]:
    """Best-improvement shift/swap descent on ``evaluator.vector``.

    Each pass scans every feasible shift (device-major), then, with
    ``use_swaps``, every feasible swap of a pair ``a < b``, and applies
    the single best strictly improving move (delta below ``-1e-15``;
    the first one found wins ties).  It stops after a pass with no
    such move or after ``max_passes`` passes.  ``evaluator`` supplies
    ``vector``, ``shift_delta``, ``swap_delta``, ``apply_shift`` and
    ``apply_swap``; the vector must be complete.  Returns
    ``(passes, moves)``.
    """
    vector = evaluator.vector
    require(
        not np.any(vector == UNASSIGNED),
        "descend needs a complete assignment vector",
    )
    n, m = problem.n_devices, problem.n_servers
    loads = np.zeros(m)
    np.add.at(loads, vector, problem.demand[np.arange(n), vector])
    # Python floats do the same IEEE arithmetic as numpy scalars at a
    # fraction of the cost per element read
    loads = loads.tolist()
    demand = problem.demand.tolist()
    limit = (problem.capacity + 1e-12).tolist()
    shift_delta, swap_delta = evaluator.shift_delta, evaluator.swap_delta
    passes = 0
    moves = 0
    improved = True
    while improved and passes < max_passes:
        passes += 1
        improved = False
        best_delta = -1e-15
        best_move = None
        servers = vector.tolist()
        for device, current in enumerate(servers):
            row = demand[device]
            for server in range(m):
                if server == current or loads[server] + row[server] > limit[server]:
                    continue
                delta = shift_delta(device, server)
                if delta < best_delta:
                    best_delta = delta
                    best_move = (False, device, server)
        if use_swaps:
            # each device's server load without that device
            rest = [loads[s] - demand[d][s] for d, s in enumerate(servers)]
            for a in range(n):
                sa, rest_a, row_a = servers[a], rest[a], demand[a]
                for b in range(a + 1, n):
                    sb = servers[b]
                    if sa == sb:
                        continue
                    if (rest_a + demand[b][sa] > limit[sa]
                            or rest[b] + row_a[sb] > limit[sb]):
                        continue
                    delta = swap_delta(a, b)
                    if delta < best_delta:
                        best_delta = delta
                        best_move = (True, a, b)
        if best_move is not None:
            is_swap, x, y = best_move
            if is_swap:
                sa, sb = servers[x], servers[y]
                loads[sa] += demand[y][sa] - demand[x][sa]
                loads[sb] += demand[x][sb] - demand[y][sb]
                evaluator.apply_swap(x, y)
            else:
                current = servers[x]
                loads[current] -= demand[x][current]
                loads[y] += demand[x][y]
                evaluator.apply_shift(x, y)
            moves += 1
            improved = True
    return passes, moves


class LocalSearchSolver(Solver):
    """Best-improvement hill climbing over shift (and optionally swap) moves.

    Starts from the greedy-feasible solution (or a random feasible one
    with ``start="random"``) and repeats full passes until no move
    improves or ``max_passes`` is reached.
    """

    name = "local_search"

    def __init__(
        self,
        start: str = "greedy",
        use_swaps: bool = True,
        max_passes: int = 200,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        require(start in ("greedy", "random"), f"unknown start {start!r}")
        require(max_passes >= 1, "max_passes must be >= 1")
        self.start = start
        self.use_swaps = use_swaps
        self.max_passes = max_passes

    def _initial(self, problem: AssignmentProblem, rng) -> Assignment:
        if self.start == "random":
            return random_feasible_assignment(problem, rng)
        return feasible_start(problem, rng)

    def _solve(self, problem: AssignmentProblem, rng) -> tuple[Assignment, dict]:
        with self.phase("construct"):
            assignment = self._initial(problem, rng)
        if not assignment.is_complete:
            return assignment, {"iterations": 0}
        evaluator = DelayEvaluator(problem, assignment.vector)
        with self.phase("descend"):
            passes, moves = descend(problem, evaluator, self.max_passes, self.use_swaps)
        return Assignment(problem, evaluator.vector), {
            "iterations": moves,
            "passes": passes,
        }
