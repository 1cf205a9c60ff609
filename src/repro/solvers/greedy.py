"""Constructive greedy heuristics — the classical baselines.

Ordered roughly by sophistication:

* :class:`RandomFeasibleSolver` — the strawman that ignores delay;
* :class:`NearestServerSolver` — chases delay and *ignores capacity*;
  the proximity heuristic the paper's "no edge device overloaded"
  guarantee is contrasted with.  On tight instances it overloads.
* :class:`GreedyFeasibleSolver` — delay-greedy restricted to servers
  with residual capacity (devices in decreasing-demand order); the
  same loop's best-fit / worst-fit packing orientations back
  :func:`feasible_start`'s fallback chain;
* :class:`RegretGreedySolver` — Martello–Toth style: always commit the
  device that would lose the most if its best server filled up.

All of these also serve as starting points for the metaheuristics and
as the incumbent initializer for branch-and-bound.
"""

from __future__ import annotations

import numpy as np

from repro.model.problem import AssignmentProblem
from repro.model.solution import Assignment
from repro.solvers.base import Solver


def greedy_feasible_assignment(
    problem: AssignmentProblem,
    order: "np.ndarray | None" = None,
    prefer: str = "delay",
) -> Assignment:
    """Shared constructive loop used by several solvers and initializers.

    Walks devices in ``order`` (default: decreasing mean demand) and
    assigns each to a server with enough residual capacity, preferring
    by ``prefer``:

    * ``"delay"`` — minimum delay among fitting servers;
    * ``"best_fit"`` — smallest residual-after-fit (tight packing);
    * ``"worst_fit"`` — largest residual (load spreading), ties by delay.

    Devices that fit nowhere are left unassigned (the caller decides
    whether that is an error); no server is ever overloaded.
    """
    if order is None:
        order = np.argsort(-np.mean(problem.demand, axis=1))
    residual = problem.capacity.copy()
    assignment = Assignment(problem)
    for device in (int(d) for d in order):
        fits = np.flatnonzero(problem.demand[device] <= residual + 1e-12)
        if fits.size == 0:
            continue
        if prefer == "delay":
            chosen = fits[np.argmin(problem.delay[device, fits])]
        elif prefer == "best_fit":
            chosen = fits[np.argmin(residual[fits] - problem.demand[device, fits])]
        elif prefer == "worst_fit":
            spare = residual[fits] - problem.demand[device, fits]
            best_spare = np.max(spare)
            tied = fits[spare >= best_spare - 1e-12]
            chosen = tied[np.argmin(problem.delay[device, tied])]
        else:  # pragma: no cover - guarded by callers
            raise ValueError(f"unknown preference {prefer!r}")
        chosen = int(chosen)
        assignment.assign(device, chosen)
        residual[chosen] -= problem.demand[device, chosen]
    return assignment


def feasible_start(
    problem: AssignmentProblem,
    rng: "np.random.Generator | None" = None,
) -> Assignment:
    """Best-effort *complete* feasible assignment for initializers.

    Delay-greedy packs aggressively and can strand devices on hard
    correlated instances (GAP class d), so this walks a fallback chain:
    delay-greedy → worst-fit (the generators' feasibility witness) →
    best-fit → random restarts.  Returns the first complete assignment;
    if even the witness ordering fails (a genuinely infeasible
    instance) the delay-greedy partial is returned and the caller's
    feasibility check reports it.
    """
    first = greedy_feasible_assignment(problem, prefer="delay")
    if first.is_complete:
        return first
    for prefer in ("worst_fit", "best_fit"):
        candidate = greedy_feasible_assignment(problem, prefer=prefer)
        if candidate.is_complete:
            return candidate
    if rng is not None:
        for _ in range(20):
            candidate = _one_random_attempt(problem, rng)
            if candidate is not None:
                return candidate
    return first


def _one_random_attempt(
    problem: AssignmentProblem, rng: np.random.Generator
) -> "Assignment | None":
    """One randomized constructive pass; None if a device fits nowhere."""
    assignment = Assignment(problem)
    residual = problem.capacity.copy()
    for device in rng.permutation(problem.n_devices):
        device = int(device)
        fits = np.flatnonzero(problem.demand[device] <= residual + 1e-12)
        if fits.size == 0:
            return None
        chosen = int(fits[rng.integers(fits.size)])
        assignment.assign(device, chosen)
        residual[chosen] -= problem.demand[device, chosen]
    return assignment


def random_feasible_assignment(
    problem: AssignmentProblem,
    rng: np.random.Generator,
    attempts: int = 20,
) -> Assignment:
    """A random complete assignment, feasible if any attempt succeeds.

    Shuffles device order and picks uniformly among fitting servers;
    falls back to the constructive chain when randomness keeps failing
    (tight instances), so metaheuristic populations always start from
    complete assignments.
    """
    for _ in range(attempts):
        assignment = _one_random_attempt(problem, rng)
        if assignment is not None:
            return assignment
    return feasible_start(problem)


class NearestServerSolver(Solver):
    """Assign every device to its minimum-delay server, capacity-blind.

    The delay-optimal relaxation: its objective equals the problem's
    :meth:`~repro.model.problem.AssignmentProblem.delay_lower_bound`,
    but on loaded instances it overloads servers — which is exactly the
    failure mode the paper's feasibility guarantee addresses.
    """

    name = "nearest"

    def _solve(self, problem: AssignmentProblem, rng) -> tuple[Assignment, dict]:
        vector = np.argmin(problem.delay, axis=1)
        return Assignment(problem, vector), {}


class GreedyFeasibleSolver(Solver):
    """Delay-greedy over fitting servers, devices by decreasing demand."""

    name = "greedy"

    def _solve(self, problem: AssignmentProblem, rng) -> tuple[Assignment, dict]:
        return greedy_feasible_assignment(problem, prefer="delay"), {}


class RegretGreedySolver(Solver):
    """Max-regret greedy (Martello & Toth's MTHG adapted to delay costs).

    At each step, for every unassigned device compute the regret —
    the delay difference between its best and second-best *fitting*
    servers — and commit the device with the largest regret to its
    best server.  Devices whose options are about to disappear get
    priority, which is what lifts this above plain delay-greedy on
    tight instances.
    """

    name = "regret"

    def _solve(self, problem: AssignmentProblem, rng) -> tuple[Assignment, dict]:
        n, m = problem.n_devices, problem.n_servers
        residual = problem.capacity.copy()
        assignment = Assignment(problem)
        unassigned = set(range(n))
        iterations = 0
        while unassigned:
            iterations += 1
            best_device, best_regret, best_server = -1, -np.inf, -1
            for device in unassigned:
                fits = np.flatnonzero(problem.demand[device] <= residual + 1e-12)
                if fits.size == 0:
                    continue
                delays = problem.delay[device, fits]
                order = np.argsort(delays)
                first = float(delays[order[0]])
                second = float(delays[order[1]]) if fits.size > 1 else float("inf")
                regret = second - first
                if regret > best_regret:
                    best_device = device
                    best_regret = regret
                    best_server = int(fits[order[0]])
            if best_device < 0:
                break  # nobody fits anywhere; complete-and-repair below
            assignment.assign(best_device, best_server)
            residual[best_server] -= problem.demand[best_device, best_server]
            unassigned.remove(best_device)
        stranded = len(unassigned)
        if stranded:
            # place stranded devices at their delay argmin (overloading),
            # then drain the overloads with global min-increase moves —
            # the same repair LP rounding uses
            from repro.solvers.lp import LPRoundingSolver

            vector = assignment.vector
            for device in unassigned:
                vector[device] = int(np.argmin(problem.delay[device]))
            LPRoundingSolver._repair(problem, vector)
            assignment = Assignment(problem, vector)
            if not assignment.is_feasible():
                # single-move repair cannot always untangle a tight packing;
                # fall back to the feasible constructive chain (worse delay,
                # but the baseline stays capacity-safe like its namesake)
                fallback = feasible_start(problem, rng)
                if fallback.is_feasible():
                    assignment = fallback
        return assignment, {"iterations": iterations, "stranded": stranded}


class RandomFeasibleSolver(Solver):
    """Uniformly random feasible assignment (the floor of the comparison)."""

    name = "random"

    def _solve(self, problem: AssignmentProblem, rng) -> tuple[Assignment, dict]:
        return random_feasible_assignment(problem, rng), {}
