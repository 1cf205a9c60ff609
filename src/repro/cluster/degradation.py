"""Graceful degradation: shed load by priority instead of failing.

When enough servers are down, the surviving capacity simply cannot
host every device and the degraded problem is infeasible — previously
that surfaced as an :class:`InfeasibleSolutionError` (or a silently
stale assignment).  A production controller must instead *degrade
gracefully*: keep serving as many (and as important) devices as
possible, and say explicitly who was shed.

:func:`solve_degraded` implements that: it solves the degraded problem
over a shrinking active set, shedding the lowest-priority devices until
the solver finds a feasible assignment for the rest.  The default
priority sheds the heaviest devices first (freeing the most capacity
per device shed), which keeps the *count* of unserved devices minimal;
pass an explicit ``priority`` array to encode application importance
instead (lower value = shed first).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.model.problem import AssignmentProblem
from repro.model.solution import UNASSIGNED, Assignment
from repro.obs import names as obs_names
from repro.obs import runtime as obs_runtime
from repro.solvers.base import Solver
from repro.utils.validation import require


@dataclass(frozen=True)
class DegradedSolution:
    """Outcome of a degraded-mode solve."""

    vector: np.ndarray  # full-length; shed devices are UNASSIGNED (-1)
    shed: tuple[int, ...]  # device indices dropped, in shed order
    feasible: bool  # the served subset is feasibly assigned
    served_cost: float  # total delay over served devices
    rounds: int  # solver invocations used

    @property
    def n_served(self) -> int:
        """Devices still assigned to a server."""
        return int(np.count_nonzero(self.vector != UNASSIGNED))


def _subproblem(problem: AssignmentProblem, active: np.ndarray) -> AssignmentProblem:
    """The problem restricted to ``active`` device rows."""
    return AssignmentProblem(
        delay=problem.delay[active],
        demand=problem.demand[active],
        capacity=problem.capacity,
        failed_servers=problem.failed_servers,
        name=f"{problem.name}|active={int(np.count_nonzero(active))}",
    )


def shed_priority_by_demand(problem: AssignmentProblem) -> np.ndarray:
    """Default priority: heavier devices shed first (lower priority)."""
    healthy = problem.healthy_mask()
    # the cheapest healthy placement is what the device will actually cost
    return -np.min(problem.demand[:, healthy], axis=1)


def solve_degraded(
    problem: AssignmentProblem,
    solver: Solver,
    priority: "np.ndarray | None" = None,
    max_rounds: int = 32,
) -> DegradedSolution:
    """Serve the highest-priority feasible subset of devices.

    Tries the full device set first; while the solver's answer is
    infeasible, sheds the lowest-priority active devices and re-solves.
    Shedding is *batched*: each round drops at least enough demand to
    cover the aggregate capacity deficit (a necessary condition for
    feasibility), so the number of solver invocations stays logarithmic
    rather than linear in the shed count.  Never raises on infeasible
    input; at worst every device but the highest-priority one that fits
    is shed.
    """
    require(max_rounds >= 1, "max_rounds must be >= 1")
    n = problem.n_devices
    if priority is None:
        priority = shed_priority_by_demand(problem)
    priority = np.asarray(priority, dtype=np.float64).reshape(-1)
    require(priority.shape[0] == n, f"priority must have length {n}")

    healthy = problem.healthy_mask()
    total_capacity = float(np.sum(problem.capacity[healthy]))
    min_demand = np.min(problem.demand[:, healthy], axis=1)
    shed_order = np.argsort(priority, kind="stable")  # ascending: first out
    active = np.ones(n, dtype=bool)
    shed: list[int] = []
    next_to_shed = 0
    tracer = obs_runtime.tracer()
    registry = obs_runtime.metrics()

    with tracer.span(
        obs_names.SPAN_DEGRADED,
        devices=n,
        failed=len(problem.failed_servers),
    ):
        for round_index in range(1, max_rounds + 1):
            # necessary condition: the cheapest placements must fit at all
            deficit = float(np.sum(min_demand[active])) - total_capacity
            while deficit > 0 and next_to_shed < n - 1:
                device = int(shed_order[next_to_shed])
                next_to_shed += 1
                if not active[device]:
                    continue
                active[device] = False
                shed.append(device)
                deficit -= float(min_demand[device])
            if not np.any(active):
                break
            sub = _subproblem(problem, active)
            try:
                result = solver.solve(sub)
            except ReproError:
                result = None  # a solver crash is just another infeasible round
            if result is not None and result.feasible:
                vector = np.full(n, UNASSIGNED, dtype=np.int64)
                vector[active] = result.assignment.vector
                if shed:
                    registry.counter(obs_names.CLUSTER_LOAD_SHED).inc(len(shed))
                served = Assignment(problem, vector)
                return DegradedSolution(
                    vector=vector,
                    shed=tuple(shed),
                    feasible=True,
                    served_cost=served.total_delay(),
                    rounds=round_index,
                )
            # solver could not pack the active set: shed one more and retry
            while next_to_shed < n:
                device = int(shed_order[next_to_shed])
                next_to_shed += 1
                if active[device]:
                    active[device] = False
                    shed.append(device)
                    break
            else:
                break  # nothing left to shed

    # every round failed: serve nobody rather than report a bogus vector
    if shed:
        registry.counter(obs_names.CLUSTER_LOAD_SHED).inc(len(shed))
    return DegradedSolution(
        vector=np.full(n, UNASSIGNED, dtype=np.int64),
        shed=tuple(shed) + tuple(
            int(d) for d in shed_order if active[int(d)]
        ),
        feasible=False,
        served_cost=0.0,
        rounds=max_rounds,
    )
