"""LP relaxation: the classical bound and rounding comparator.

:func:`lp_lower_bound` solves the fractional relaxation of the GAP
with :func:`scipy.optimize.linprog` (HiGHS).  Its optimum is a valid
lower bound on any integral assignment — tighter than the
capacity-relaxed bound — and is what the optimality-gap table reports
when branch-and-bound is too slow.

:class:`LPRoundingSolver` is the Shmoys–Tardos-inspired comparator:
solve the relaxation, fix the (many) integral variables, round each
fractional device to its largest LP share, then run the standard
drain-the-overload repair so the output satisfies the hard capacity
constraint.  (The original Shmoys–Tardos rounding guarantees cost ≤
OPT with capacities ≤ 2c; since the paper's constraint is hard, we
trade the theoretical factor for feasibility via repair.)
"""

from __future__ import annotations

import numpy as np

from repro.errors import SolverError
from repro.model.problem import AssignmentProblem
from repro.model.solution import Assignment
from repro.solvers.base import Solver


def lp_relaxation(problem: AssignmentProblem) -> tuple[float, np.ndarray]:
    """Solve the fractional GAP relaxation.

    Returns ``(optimal_value, x)`` with ``x`` of shape ``(N, M)``,
    rows summing to one, capacities respected fractionally.  Raises
    :class:`~repro.errors.SolverError` if HiGHS fails (which for this
    always-feasible LP indicates a malformed instance).
    """
    # imported here, not at module level: the registry imports this
    # module, and scipy.optimize would otherwise load into every process
    # that names a solver (see docs/architecture.md, "Import layering")
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    n, m = problem.n_devices, problem.n_servers
    cost = problem.delay.reshape(-1)

    # equality: each device's row of x sums to 1
    eq_rows = np.repeat(np.arange(n), m)
    eq_cols = np.arange(n * m)
    a_eq = coo_matrix((np.ones(n * m), (eq_rows, eq_cols)), shape=(n, n * m))

    # inequality: per-server weighted column sums within capacity
    ub_rows = np.tile(np.arange(m), n)
    ub_cols = np.arange(n * m)
    a_ub = coo_matrix((problem.demand.reshape(-1), (ub_rows, ub_cols)), shape=(m, n * m))

    result = linprog(
        c=cost,
        A_eq=a_eq,
        b_eq=np.ones(n),
        A_ub=a_ub,
        b_ub=problem.capacity,
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not result.success:
        raise SolverError(f"LP relaxation failed: {result.message}")
    return float(result.fun), result.x.reshape(n, m)


def lp_lower_bound(problem: AssignmentProblem) -> float:
    """Fractional-optimum lower bound on the integral problem."""
    value, _ = lp_relaxation(problem)
    return value


class LPRoundingSolver(Solver):
    """LP relaxation + largest-share rounding + capacity repair."""

    name = "lp_rounding"

    def _solve(self, problem: AssignmentProblem, rng) -> tuple[Assignment, dict]:
        bound, fractional = lp_relaxation(problem)
        # round each device to its largest LP share (integral devices,
        # the majority in basic solutions, keep their LP server)
        vector = np.argmax(fractional, axis=1).astype(np.int64)
        self._repair(problem, vector)
        return Assignment(problem, vector), {"lower_bound": bound}

    @staticmethod
    def _repair(problem: AssignmentProblem, vector: np.ndarray) -> None:
        """Drain overloaded servers with minimum-delay-increase moves."""
        n = problem.n_devices
        loads = np.zeros(problem.n_servers)
        np.add.at(loads, vector, problem.demand[np.arange(n), vector])
        for _ in range(4 * n):  # each move strictly reduces total overload
            overloaded = np.flatnonzero(loads > problem.capacity + 1e-12)
            if overloaded.size == 0:
                return
            best = None  # (delay increase, device, source, target)
            for server in overloaded:
                for device in np.flatnonzero(vector == server):
                    room = problem.capacity - loads
                    fits = np.flatnonzero(problem.demand[device] <= room + 1e-12)
                    fits = fits[fits != server]
                    if fits.size == 0:
                        continue
                    target = int(fits[np.argmin(problem.delay[device, fits])])
                    increase = problem.delay[device, target] - problem.delay[device, server]
                    if best is None or increase < best[0]:
                        best = (increase, int(device), int(server), target)
            if best is None:
                return  # stuck: leave overloaded, caller reports infeasible
            _, device, source, target = best
            loads[source] -= problem.demand[device, source]
            loads[target] += problem.demand[device, target]
            vector[device] = target
