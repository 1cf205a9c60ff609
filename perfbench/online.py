"""The online workloads: ``serve`` and ``shard``.

Both run in this one process and thread, on in-process transports.

* ``serve``: one ``AssignmentService`` with its write-ahead log on (in a
  temporary directory under the checkout) and re-optimization off.
* ``shard``: a ``ShardRouter`` (default hedging) over four in-process
  shard services, each behind a ``NetemBackend`` wire that adds a
  0.5 ms + U[0, 0.5) ms forward delay and loses nothing; no WAL.

Traffic: a short closed-loop warm-up fills the cluster, then, six
times over, open-loop Poisson churn at a ``lo`` and a ``hi`` rate and a
closed loop of 32 coroutine clients.  ``hi`` gets most of the time, so
one gen2 GC pass landing in it is a smaller share of its samples and
moves its p99 less.
"""

from __future__ import annotations

import asyncio
import math
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from loadgen import DeviceActors, PhaseResult, closed_loop, open_loop, pool
from repro.model.instances import topology_instance
from repro.model.solution import UNASSIGNED
from repro.netem import NetemBackend, NetemEngine, NetemRule, NetemScript
from repro.serve import AssignmentService, InProcessClient, ServiceConfig
from repro.serve.state import ServiceState
from repro.shard import InProcessBackend, ShardRouter, build_plan
from repro.utils.rng import derive_seed
from repro.wal import WriteAheadLog

#: workload -> (lo, hi) open-loop rates in requests per second
RATES = {"serve": (1000.0, 3000.0), "shard": (500.0, 1000.0)}
CLIENTS = 32
N_SHARDS = 4
#: an open-loop request answered later than this misses goodput
GOODPUT_LIMIT_MS = 25.0
#: the held set churns between these shares of all devices
HELD_SHARE = (0.3, 0.5)
INSTANCE = {"family": "random_geometric", "n_routers": 100,
            "n_devices": 2000, "n_servers": 32, "tightness": 0.7}
#: set-up is timed this many times (once before the traffic, the rest
#: after the checks) and reported by its fastest sample
SETUPS = 8
QUIESCE_S = 5.0
#: share of --seconds given to each kind of traffic; after the warm-up,
#: lo, hi and closed segments take turns CYCLES times, so each kind is
#: sampled across the whole run rather than in one stretch of it, and a
#: slow spell of a shared host falls on all three alike.  Every figure
#: pools the samples of all segments of its kind, GC pauses included
PHASES = {"warmup": 0.05, "lo": 0.15, "hi": 0.6, "closed": 0.2}
CYCLES = 6


@dataclass
class Tier:
    """One set-up serving tier and the handles the checks need."""

    problem: object
    client: object
    services: "dict[str, AssignmentService]"
    router: "ShardRouter | None" = None
    plan: object = None
    wal_dir: "str | None" = None

    async def stop(self) -> None:
        if self.router is not None:
            await self.router.stop()
        for service in self.services.values():
            if service.started:
                await service.stop()

    def global_vector(self) -> np.ndarray:
        """device -> global server (UNASSIGNED when not held)."""
        if self.router is None:
            return self.services["serve"].state.vector.copy()
        vector = np.full(self.problem.n_devices, UNASSIGNED, dtype=np.int64)
        for name, service in self.services.items():
            for device in np.flatnonzero(service.state.vector != UNASSIGNED):
                vector[device] = self.plan.global_server(
                    name, int(service.state.vector[device]))
        return vector


async def _setup(workload: str, seed: int, tmp: str) -> Tier:
    problem = topology_instance(seed=derive_seed(seed, "online"), **INSTANCE)
    if workload == "serve":
        wal_dir = tempfile.mkdtemp(prefix="wal-", dir=tmp)
        service = AssignmentService(problem, ServiceConfig(wal_dir=wal_dir))
        await service.start()
        return Tier(problem, InProcessClient(service), {"serve": service},
                    wal_dir=wal_dir)
    plan = build_plan(problem, N_SHARDS, seed=seed)
    if plan.n_shards != N_SHARDS:
        raise RuntimeError(f"plan has {plan.n_shards} shards, want {N_SHARDS}")
    engine = NetemEngine(NetemScript(seed=seed, rules=(
        NetemRule(kind="delay", edge="*", direction="forward",
                  delay_s=0.0005, jitter_s=0.0005),
    )))
    services, backends = {}, {}
    for spec in plan.shards:
        service = AssignmentService(plan.subproblem(problem, spec.name))
        await service.start()
        services[spec.name] = service
        backends[spec.name] = NetemBackend(
            InProcessBackend(spec.name, service), engine)
    router = ShardRouter(plan, backends)
    await router.start()
    return Tier(problem, router, services, router=router, plan=plan)


def _check(workload: str, tier: Tier, actors: DeviceActors,
           phases: "list[PhaseResult]") -> "list[str]":
    problems = []
    errors = sum(p.statuses.get("error", 0) for p in phases)
    if errors:
        problems.append(f"{errors} error responses")
    vector = tier.global_vector()
    held = set(int(d) for d in np.flatnonzero(vector != UNASSIGNED))
    if held != set(actors.held):
        problems.append(
            f"held sets differ: program {len(held)}, generator {len(actors.held)}")
    for name, service in tier.services.items():
        state = service.state
        if not math.isclose(state.total_delay_s, state.recompute_total_delay_s(),
                            rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{name}: incremental total_delay_s drifted")
    if workload == "serve":
        state = tier.services["serve"].state
        fresh = ServiceState(tier.problem, wal=WriteAheadLog(tier.wal_dir))
        fresh.recover()
        if not np.array_equal(fresh.vector, state.vector):
            problems.append("state recovered from the WAL differs from the live one")
    else:
        holders = np.zeros(tier.problem.n_devices, dtype=np.int64)
        for service in tier.services.values():
            holders += service.state.vector != UNASSIGNED
        if np.any(holders > 1):
            problems.append(f"{int(np.sum(holders > 1))} devices held by two shards")
        # the router exposes its location map only as an attribute
        locations = getattr(tier.router, "_locations", None)
        if locations is None:
            problems.append("router location map not found")
        elif set(locations) != set(actors.held):
            problems.append("router location map differs from the held set")
    return problems


async def _quiesce(resident: "set[asyncio.Task]", limit_s: float) -> bool:
    """Wait until only ``resident`` tasks remain; False after ``limit_s``."""
    deadline = time.perf_counter() + limit_s
    while asyncio.all_tasks() - resident:
        if time.perf_counter() > deadline:
            return False
        await asyncio.sleep(0.01)
    return True


def _delay_ratio(problem, phases: "list[PhaseResult]") -> float:
    """Delay of every placement answered, over its nearest server's."""
    placed = np.concatenate([np.frombuffer(p.placed, dtype=np.int64)
                             for p in phases]).reshape(-1, 2)
    devices, servers = placed[:, 0], placed[:, 1]
    chosen = float(np.sum(problem.delay[devices, servers]))
    return chosen / float(np.sum(np.min(problem.delay[devices], axis=1)))


async def _run(workload: str, seed: int, seconds: float, tmp: str,
               tracer) -> dict:
    start = time.perf_counter()
    tier = await _setup(workload, seed, tmp)
    setup = [time.perf_counter() - start]
    resident = asyncio.all_tasks()  # the services' consumers and this task
    if tracer is not None:
        # the topology and model layers run only in set-up here, so what
        # they recorded is kept
        tracer.begin_measurement()

    actors = DeviceActors(tier.problem.n_devices, derive_seed(seed, "actors"),
                          *HELD_SHARE)
    rng = np.random.default_rng(derive_seed(seed, "arrivals"))
    span = {name: share * seconds for name, share in PHASES.items()}
    lo_rate, hi_rate = RATES[workload]
    warmup = await closed_loop(tier.client, actors, CLIENTS, span["warmup"])
    segments: "dict[str, list[PhaseResult]]" = {"lo": [], "hi": [], "closed": []}
    for _ in range(CYCLES):
        for name, rate in (("lo", lo_rate), ("hi", hi_rate)):
            segments[name].append(await open_loop(
                tier.client, actors, name, rate, span[name] / CYCLES, rng))
        segments["closed"].append(await closed_loop(
            tier.client, actors, CLIENTS, span["closed"] / CYCLES))
    if tracer is not None:
        tracer.finish(tier.router)
    # every client has its answer, but hedge copies the router abandoned
    # and their clean-up releases may still be in flight: the invariants
    # hold once the tier is quiet, so wait for that before checking
    settled = await _quiesce(resident, QUIESCE_S)
    await tier.stop()
    phases = [warmup] + [p for segs in segments.values() for p in segs]
    problems = _check(workload, tier, actors, phases)
    if not settled:
        problems.append(f"tier still busy {QUIESCE_S} s after the last answer")
    # the other set-up samples come after the checks, so the fastest one
    # does not hang on one moment of a noisy host
    for _ in range(SETUPS - 1):
        start = time.perf_counter()
        spare = await _setup(workload, seed, tmp)
        setup.append(time.perf_counter() - start)
        await spare.stop()

    lo, hi, closed = (pool(name, segs) for name, segs in segments.items())
    open_phases = (lo, hi)
    sent = sum(p.attempted for p in open_phases)
    return {
        "setup_s": min(setup),
        "throughput": closed.attempted / closed.duration_s,
        "latency_p50_ms": float(np.percentile(lo.latency_ms, 50)),
        "latency_p99_ms": float(np.percentile(hi.latency_ms, 99)),
        "goodput": sum(p.good_within(GOODPUT_LIMIT_MS) for p in open_phases) / sent,
        "delay_ratio": _delay_ratio(tier.problem, phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "problems": problems,
        "phases": {p.name: p for p in (lo, hi, closed)},
        "report": [
            (f"{p.name} ({RATES[workload][i]:.0f} req/s open loop)",
             f"p50 {np.percentile(p.latency_ms, 50):.3f} ms, "
             f"p99 {np.percentile(p.latency_ms, 99):.3f} ms "
             f"over {len(p.latency_ms)} requests")
            for i, p in enumerate(open_phases)
        ] + [(f"closed loop ({CLIENTS} clients)",
              f"{closed.attempted} completions in {closed.duration_s:.2f} s")],
    }


def run(workload: str, seed: int, seconds: float, tmp: str, tracer=None) -> dict:
    """Run one online workload; tracing (if any) stops before the checks."""
    return asyncio.run(_run(workload, seed, seconds, tmp, tracer))
