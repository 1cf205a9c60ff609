"""Neighbourhood search: best-improvement hill climbing.

It operates on the classic GAP neighbourhood:

* **shift** — move one device to a different server with room;
* **swap** — exchange the servers of two devices when both fit.

:class:`LocalSearchSolver` descends to a local optimum from the greedy
start.  It maintains feasibility invariantly — a move is only a
candidate if it keeps every server within capacity — so it inherits
the paper's "never overloaded" guarantee from its feasible starting
point.  TACC's local polish (:mod:`repro.rl.agent`) reuses the
shift/swap helpers.
"""

from __future__ import annotations

from repro.model.problem import AssignmentProblem
from repro.model.solution import Assignment
from repro.solvers.base import Solver
from repro.solvers.greedy import feasible_start, random_feasible_assignment
from repro.utils.validation import require


def _shift_delta(problem: AssignmentProblem, vector, loads, device: int, server: int):
    """Objective delta and feasibility of moving ``device`` to ``server``."""
    current = int(vector[device])
    if current == server:
        return None
    new_load = loads[server] + problem.demand[device, server]
    if new_load > problem.capacity[server] + 1e-12:
        return None
    return problem.delay[device, server] - problem.delay[device, current]


def _apply_shift(problem: AssignmentProblem, vector, loads, device: int, server: int) -> None:
    current = int(vector[device])
    loads[current] -= problem.demand[device, current]
    loads[server] += problem.demand[device, server]
    vector[device] = server


def _swap_delta(problem: AssignmentProblem, vector, loads, a: int, b: int):
    """Objective delta and feasibility of exchanging devices ``a`` and ``b``."""
    sa, sb = int(vector[a]), int(vector[b])
    if sa == sb:
        return None
    load_a = loads[sa] - problem.demand[a, sa] + problem.demand[b, sa]
    load_b = loads[sb] - problem.demand[b, sb] + problem.demand[a, sb]
    if load_a > problem.capacity[sa] + 1e-12 or load_b > problem.capacity[sb] + 1e-12:
        return None
    return (
        problem.delay[a, sb]
        + problem.delay[b, sa]
        - problem.delay[a, sa]
        - problem.delay[b, sb]
    )


def _apply_swap(problem: AssignmentProblem, vector, loads, a: int, b: int) -> None:
    sa, sb = int(vector[a]), int(vector[b])
    loads[sa] += problem.demand[b, sa] - problem.demand[a, sa]
    loads[sb] += problem.demand[a, sb] - problem.demand[b, sb]
    vector[a], vector[b] = sb, sa


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
        vector = assignment.vector
        loads = assignment.loads()
        n, m = problem.n_devices, problem.n_servers
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
                    for server in range(m):
                        delta = _shift_delta(problem, vector, loads, device, server)
                        if delta is not None and delta < best_delta:
                            best_delta = delta
                            best_move = ("shift", device, server)
                if self.use_swaps:
                    for a in range(n):
                        for b in range(a + 1, n):
                            delta = _swap_delta(problem, vector, loads, a, b)
                            if delta is not None and delta < best_delta:
                                best_delta = delta
                                best_move = ("swap", a, b)
                if best_move is not None:
                    kind, x, y = best_move
                    if kind == "shift":
                        _apply_shift(problem, vector, loads, x, y)
                    else:
                        _apply_swap(problem, vector, loads, x, y)
                    moves += 1
                    improved = True
        return Assignment(problem, vector), {"iterations": moves, "passes": passes}
