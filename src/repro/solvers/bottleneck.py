"""Bottleneck assignment: minimize the *worst* device's delay.

Real-time deployments often care about the slowest device (the paper's
"stringent deadlines" motivation), not the sum.  The classical
threshold method applies:

1. binary-search the smallest delay threshold ``t`` over the sorted
   distinct matrix entries such that the instance restricted to pairs
   with ``delay <= t`` still admits a (witnessed) feasible assignment;
2. within that restriction, descend on total delay with the standard
   feasibility-preserving local search, so ties under the bottleneck
   are broken toward low total delay.

Restriction is encoded without new machinery: forbidden pairs get a
demand larger than any capacity, so every existing feasibility check
excludes them automatically.

The feasibility oracle is the first-fit-decreasing witness (GAP
feasibility is NP-hard, so an exact oracle would cost exponential time
per probe); the found threshold is therefore an upper bound on the
true optimum bottleneck, tight in practice and never infeasible.
"""

from __future__ import annotations

import numpy as np

from repro.model.instances import _first_fit_decreasing
from repro.model.problem import AssignmentProblem
from repro.model.solution import Assignment
from repro.solvers.base import Solver
from repro.solvers.greedy import feasible_start
from repro.solvers.local_search import DelayEvaluator, descend
from repro.utils.validation import require


def _restricted(problem: AssignmentProblem, threshold: float) -> AssignmentProblem:
    """Copy of ``problem`` where pairs above ``threshold`` cannot fit."""
    blocked = problem.delay > threshold + 1e-15
    demand = problem.demand.copy()
    forbidden = float(np.max(problem.capacity)) * 2.0 + 1.0
    demand[blocked] = forbidden
    return AssignmentProblem(
        delay=problem.delay,
        demand=demand,
        capacity=problem.capacity,
        failed_servers=problem.failed_servers,
        name=f"{problem.name}|<= {threshold:.6g}s",
    )


class BottleneckSolver(Solver):
    """Threshold method for the min-max-delay assignment."""

    name = "bottleneck"

    def __init__(self, polish_passes: int = 30, **kwargs) -> None:
        super().__init__(**kwargs)
        require(polish_passes >= 0, "polish_passes must be >= 0")
        self.polish_passes = polish_passes

    def _solve(self, problem: AssignmentProblem, rng) -> tuple[Assignment, dict]:
        thresholds = np.unique(problem.delay)
        lo, hi = 0, thresholds.size - 1
        witness = _first_fit_decreasing(_restricted(problem, float(thresholds[hi])))
        if witness is None:
            # even unrestricted the witness fails: fall back outright
            fallback = feasible_start(problem, rng)
            return fallback, {"iterations": 1, "fallback": True}
        probes = 1
        best_witness = witness
        best_index = hi
        while lo < hi:
            mid = (lo + hi) // 2
            probes += 1
            candidate = _first_fit_decreasing(
                _restricted(problem, float(thresholds[mid]))
            )
            if candidate is not None:
                best_witness = candidate
                best_index = mid
                hi = mid
            else:
                lo = mid + 1
        threshold = float(thresholds[best_index])

        # secondary descent on total delay inside the restriction
        restricted = _restricted(problem, threshold)
        evaluator = DelayEvaluator(restricted, best_witness.vector)
        descend(restricted, evaluator, self.polish_passes)
        return Assignment(problem, evaluator.vector), {
            "iterations": probes,
            "bottleneck_s": threshold,
        }
