"""The offline planning workloads: ``plan_route`` and ``plan_search``.

A plan is one seeded instance built with ``topology_instance``, solved,
checked and scored.  A round is a fixed list of plans of the workload's
two kinds; a run repeats the same round a number of times fixed by
``--seconds`` (not by the clock), which keeps the work, ``delay_ratio``
and the solver counts identical between runs of one seed.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from repro.contention import ContentionModel
from repro.model.instances import topology_instance
from repro.solvers import get_solver
from repro.utils.rng import derive_seed

#: a plan slower than this misses the goodput limit
PLAN_LIMIT_S = 60.0
_EPS = 1e-9


@dataclass(frozen=True)
class PlanKind:
    """One kind of plan: the instance shape and the solver that plans it."""

    family: str
    n_routers: int
    n_devices: int
    n_servers: int
    oversubscription: float
    solver: str
    solver_kwargs: "tuple[tuple[str, object], ...]" = ()


#: workload -> (its two plan kinds, plans of each kind in a round,
#: seconds one round takes on a 2-core x86 box; sets the repeat count)
WORKLOADS: "dict[str, tuple[tuple[PlanKind, PlanKind], int, float]]" = {
    # routing and delay-matrix construction dominate; greedy is ~20 ms.
    # 300 routers rather than 400: at 400 one random_geometric build
    # alone takes 8-12 s, and three repeats of a round would not fit in
    # a run
    "plan_route": ((
        PlanKind("random_geometric", 300, 2000, 32, 1.0, "greedy"),
        PlanKind("edge_hierarchy", 300, 2000, 32, 4.0, "greedy"),
    ), 1, 7.5),
    # neighbourhood descent dominates: delay-objective local search and
    # contention local search (IncrementalEvaluator deltas).  Passes are
    # capped below the fewest any seed needs, so every plan does the
    # same number of full passes and run time does not swing with how
    # many passes a seed happens to take
    "plan_search": ((
        PlanKind("random_geometric", 40, 300, 12, 1.0, "local_search",
                 (("max_passes", 8),)),
        PlanKind("edge_hierarchy", 40, 100, 6, 8.0, "congestion_local_search",
                 (("max_passes", 10),)),
    ), 3, 6.6),
}

#: a plan's best-of needs a few repeats even when one round is long
MIN_REPEATS = 3


@dataclass
class PlanOutcome:
    """One plan: its wall time, instance build time, quality and checks."""

    seconds: float
    build_s: float
    delay_ratio: float
    problems: "list[str]"


def _plan(kind: PlanKind, seed: int) -> PlanOutcome:
    """Build, solve, score and check one instance."""
    start = time.perf_counter()
    problem = topology_instance(
        family=kind.family, n_routers=kind.n_routers,
        n_devices=kind.n_devices, n_servers=kind.n_servers, tightness=0.7,
        seed=seed, oversubscription=kind.oversubscription,
    )
    built = time.perf_counter()
    # the delay-objective search never routes flows, so only the other
    # kinds pay for (and are checked against) the contention model
    model = None if kind.solver == "local_search" else ContentionModel(problem)
    result = get_solver(kind.solver, seed=seed, **dict(kind.solver_kwargs)).solve(problem)
    evaluation = None if model is None else model.evaluate(result.assignment.vector)
    seconds = time.perf_counter() - start

    problems = []
    vector = result.assignment.vector
    if not result.assignment.is_complete:
        problems.append("incomplete assignment")
    loads = result.assignment.loads()
    if np.any(loads > problem.capacity + _EPS):
        problems.append("server over capacity")
    if not result.feasible:
        problems.append("solver reported infeasible")
    if model is not None:
        recomputed = model.total_cost(vector)
        if not math.isclose(evaluation.total_cost, recomputed, rel_tol=1e-9):
            problems.append(f"evaluate() {evaluation.total_cost!r} "
                            f"!= total_cost() {recomputed!r}")
        reported = result.extra.get("contention_cost")
        if reported is not None and not math.isclose(
                reported, recomputed, rel_tol=1e-9):
            problems.append(f"solver contention_cost {reported!r} "
                            f"!= total_cost() {recomputed!r}")
    delay = float(np.sum(problem.delay[np.arange(problem.n_devices), vector]))
    return PlanOutcome(
        seconds=seconds,
        build_s=built - start,
        delay_ratio=delay / problem.delay_lower_bound(),
        problems=problems,
    )


def run(workload: str, seed: int, seconds: float, tracer=None) -> dict:
    """Run one plan workload; returns its raw measurements."""
    kinds, per_kind, round_s = WORKLOADS[workload]
    if tracer is not None:
        tracer.begin_measurement()
    # one seeded round of plans, repeated; each plan, and each plan's
    # instance build (the set-up), is timed by its fastest repeat, which
    # on a shared host is the program's own speed
    plans = [(kind, derive_seed(seed, workload, index, k))
             for index in range(per_kind) for k, kind in enumerate(kinds)]
    best = [math.inf] * len(plans)
    best_build = [math.inf] * len(plans)
    first: "list[PlanOutcome]" = []
    problems: "list[str]" = []
    failed = 0
    repeats = max(MIN_REPEATS, int(seconds / round_s))
    for repeat in range(repeats):
        for j, (kind, plan_seed) in enumerate(plans):
            outcome = _plan(kind, plan_seed)
            best[j] = min(best[j], outcome.seconds)
            best_build[j] = min(best_build[j], outcome.build_s)
            if repeat == 0:
                first.append(outcome)
            elif outcome.delay_ratio != first[j].delay_ratio:
                outcome.problems.append("a repeated plan gave a different answer")
            problems += outcome.problems
            failed += bool(outcome.problems)
    if tracer is not None:
        tracer.finish()

    best_ms = [t * 1e3 for t in best]
    return {
        "setup_s": sum(best_build),
        "throughput": len(plans) / sum(best),
        "latency_p50_ms": float(np.percentile(best_ms, 50)),
        "latency_p99_ms": float(np.percentile(best_ms, 99)),
        "goodput": sum(not o.problems and t <= PLAN_LIMIT_S
                       for o, t in zip(first, best)) / len(plans),
        "delay_ratio": statistics.fmean(o.delay_ratio for o in first),
        "attempted": len(plans) * repeats,
        "failed": failed,
        "problems": problems,
        "report": [
            ("plans x repeats", f"{len(plans)} x {repeats}"),
        ],
    }
