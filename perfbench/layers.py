"""The layer map and the wrappers that observe each layer in a traced run.

Every per-layer metric comes from timing or counting calls into one
public function or method of ``repro``.  :data:`LAYER_MAP` is the single
table of those targets.  :class:`LayerTracer` wraps each target for the
duration of a traced run, records what the calls did, and afterwards
checks that every target meant for the workload was actually called, so
a rename or a bypass fails the run instead of silently zeroing a layer.

The wrappers live only in this benchmark; nothing in ``repro`` changes.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

PLAN = ("plan_route", "plan_search")
ONLINE = ("serve", "shard")
ALL = PLAN + ONLINE

#: key -> (target "module:qualname", workloads that must call it).
#: The key names the recorder; the metrics derived from it are listed in
#: README.md next to the end-to-end metric each one should move.
LAYER_MAP: "dict[str, tuple[str, tuple[str, ...]]]" = {
    "topology.generate": ("repro.topology.generators:make_topology", ALL),
    "topology.place": ("repro.topology.placement:place_edge_servers", ALL),
    "topology.attach": ("repro.topology.generators:attach_iot_devices", ALL),
    "model.delay_matrix": (
        "repro.model.problem:AssignmentProblem.from_topology", ALL),
    "model.feasibility": (
        "repro.model.instances:ensure_feasible_capacity", ALL),
    "contention.incidence": (
        "repro.contention.incidence:build_incidence", PLAN),
    "contention.eval": ("repro.contention.model:ContentionModel.evaluate", PLAN),
    "contention.shift_delta": (
        "repro.contention.model:IncrementalEvaluator.shift_delta",
        ("plan_search",)),
    "contention.swap_delta": (
        "repro.contention.model:IncrementalEvaluator.swap_delta",
        ("plan_search",)),
    "solvers.solve": ("repro.solvers.base:Solver.solve", PLAN),
    "solvers.phase": ("repro.solvers.base:Solver.phase", ("plan_search",)),
    "serve.state.assign": ("repro.serve.state:ServiceState.assign", ONLINE),
    "serve.state.release": ("repro.serve.state:ServiceState.release", ONLINE),
    "serve.wal.append": ("repro.wal.log:WriteAheadLog.append", ("serve",)),
    "serve.wal.snapshot": (
        "repro.wal.log:WriteAheadLog.write_snapshot", ("serve",)),
    "serve.batch": ("repro.serve.batcher:MicroBatcher.next_batch", ONLINE),
    "serve.admission": (
        "repro.serve.admission:AdmissionController.check", ONLINE),
    "serve.submit": (
        "repro.serve.service:AssignmentService.submit_nowait", ONLINE),
    "shard.route": ("repro.shard.router:ShardRouter.submit_nowait", ("shard",)),
    "shard.wire": ("repro.netem.transport:NetemBackend.request", ("shard",)),
    "shard.backend": (
        "repro.shard.backend:InProcessBackend.request", ("shard",)),
}

#: router counters read (not wrapped) after a shard run
ROUTER_COUNTERS = ("hedges_total", "hedge_wins_total")

#: the request a routed call belongs to, inherited by the router's tasks
_CURRENT_ROUTE: "contextvars.ContextVar[_Route | None]" = (
    contextvars.ContextVar("perfbench_route", default=None)
)
#: backend call durations made inside the current wire call
_CURRENT_WIRE: "contextvars.ContextVar[list[float] | None]" = (
    contextvars.ContextVar("perfbench_wire", default=None)
)


class LayerMapError(RuntimeError):
    """A mapped target is missing, or was never called where it must be."""


@dataclass
class _Route:
    """One client request through the router: its start and child calls."""

    start: float
    wire: "list[tuple[float, float]]" = field(default_factory=list)


def _resolve(target: str):
    module_name, qualname = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LayerMapError(f"layer target {target}: {exc}") from exc
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LayerMapError(f"layer target {target} is missing")
    name = parts[-1]
    if inspect.isclass(owner):
        raw = owner.__dict__.get(name)
    else:
        raw = getattr(owner, name, None)
    if raw is None:
        raise LayerMapError(f"layer target {target} is missing")
    return owner, name, raw


def _covered(intervals: "list[tuple[float, float]]", lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class LayerTracer:
    """Installs the wrappers, records samples, and checks coverage."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.calls: "dict[str, int]" = {key: 0 for key in LAYER_MAP}
        self.seconds: "dict[str, list[float]]" = {key: [] for key in LAYER_MAP}
        self.phase_s: "dict[str, float]" = {}
        self.passes = 0
        self.moves = 0
        self.batch_sizes: "list[int]" = []
        self.batch_reasons: "list[str]" = []
        self.admission_rejected = 0
        self.server_ms: "list[float]" = []
        self.router_self_s: "list[float]" = []
        self.backend_calls = 0
        self.routed = 0
        self.gc_pauses_s: "list[float]" = []
        self.gc_gen2 = 0
        self._gc_started = 0.0
        self.router_counters: "dict[str, int]" = {}
        self._patches: "list[tuple[object, str, object]]" = []

    # ------------------------------------------------------------------
    # install / finish
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every mapped target; raises LayerMapError when one is gone."""
        for key, (target, _) in LAYER_MAP.items():
            owner, name, raw = _resolve(target)
            wrapped = self._wrap(key, raw)
            self._patch(owner, name, wrapped)
            if not inspect.isclass(owner):
                # modules that imported the function by name call their
                # own binding, so rebind it there too
                for module in list(sys.modules.values()):
                    if (module is not owner
                            and getattr(module, "__name__", "").startswith("repro")
                            and getattr(module, name, None) is raw):
                        self._patch(module, name, wrapped)

    def begin_measurement(self) -> None:
        """Set-up is over: start watching the collector."""
        gc.callbacks.append(self._on_gc)

    def finish(self, router=None) -> None:
        """Check coverage, keep the router counters, restore everything."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        silent = [
            f"{key} ({LAYER_MAP[key][0]})"
            for key, (_, workloads) in LAYER_MAP.items()
            if self.workload in workloads and self.calls[key] == 0
        ]
        if silent:
            raise LayerMapError(
                f"workload {self.workload!r} never called: " + ", ".join(silent)
            )
        if router is not None:
            self.router_counters = {c: getattr(router, c) for c in ROUTER_COUNTERS}

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]
                              if inspect.isclass(owner) else getattr(owner, name)))
        setattr(owner, name, value)

    def _on_gc(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_gen2 += 1
            self.gc_pauses_s.append(time.perf_counter() - self._gc_started)

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap(self, key: str, raw):
        if isinstance(raw, classmethod):
            return classmethod(self._timed(key, raw.__func__))
        special = {
            "solvers.solve": self._wrap_solve,
            "solvers.phase": self._wrap_phase,
            "serve.batch": self._wrap_batch,
            "serve.admission": self._wrap_admission,
            "serve.submit": self._wrap_submit,
            "shard.route": self._wrap_route,
            "shard.wire": self._wrap_wire,
            "shard.backend": self._wrap_backend,
        }.get(key)
        if special is not None:
            return special(key, raw)
        if inspect.iscoroutinefunction(raw):
            # a synchronous timer would time only the coroutine's creation
            raise LayerMapError(f"layer target {LAYER_MAP[key][0]} is a coroutine")
        return self._timed(key, raw)

    def _record(self, key: str, seconds: float) -> None:
        self.calls[key] += 1
        self.seconds[key].append(seconds)

    def _timed(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._record(key, time.perf_counter() - start)
        return wrapper

    def _wrap_solve(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(solver, problem):
            start = time.perf_counter()
            result = fn(solver, problem)
            self._record(key, time.perf_counter() - start)
            self.passes += int(result.extra.get("passes", 0))
            self.moves += int(result.iterations)
            return result
        return wrapper

    def _wrap_phase(self, key: str, fn):
        tracer = self

        class _Timed:
            def __init__(self, inner, name: str) -> None:
                self.inner, self.name = inner, name

            def __enter__(self):
                self.start = time.perf_counter()
                return self.inner.__enter__()

            def __exit__(self, *exc):
                try:
                    return self.inner.__exit__(*exc)
                finally:
                    took = time.perf_counter() - self.start
                    tracer._record(key, took)
                    tracer.phase_s[self.name] = (
                        tracer.phase_s.get(self.name, 0.0) + took
                    )

        @functools.wraps(fn)
        def wrapper(solver, name):
            return _Timed(fn(solver, name), name)
        return wrapper

    def _wrap_batch(self, key: str, fn):
        @functools.wraps(fn)
        async def wrapper(batcher):
            flushed = await fn(batcher)
            # the call's duration is mostly idle waiting: count, don't time
            self.calls[key] += 1
            if flushed is not None:
                batch, reason = flushed
                self.batch_sizes.append(len(batch))
                self.batch_reasons.append(reason)
            return flushed
        return wrapper

    def _wrap_admission(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(controller, *args, **kwargs):
            decision = fn(controller, *args, **kwargs)
            self.calls[key] += 1
            if not decision.admitted:
                self.admission_rejected += 1
            return decision
        return wrapper

    def _wrap_submit(self, key: str, fn):
        def observe(future) -> None:
            if not future.cancelled() and future.exception() is None:
                latency = future.result().latency_ms
                if latency is not None:
                    self.server_ms.append(latency)

        @functools.wraps(fn)
        def wrapper(service, request):
            future = fn(service, request)
            self.calls[key] += 1
            future.add_done_callback(observe)
            return future
        return wrapper

    def _wrap_route(self, key: str, fn):
        def finish(route: _Route, future) -> None:
            end = time.perf_counter()
            self._record(key, end - route.start)
            self.routed += 1
            self.router_self_s.append(
                (end - route.start) - _covered(route.wire, route.start, end)
            )

        @functools.wraps(fn)
        def wrapper(router, request):
            route = _Route(start=time.perf_counter())
            # the router's tasks copy this context, so wire calls made on
            # behalf of this request find their route record
            token = _CURRENT_ROUTE.set(route)
            try:
                future = fn(router, request)
            finally:
                _CURRENT_ROUTE.reset(token)
            future.add_done_callback(functools.partial(finish, route))
            return future
        return wrapper

    def _wrap_wire(self, key: str, fn):
        @functools.wraps(fn)
        async def wrapper(backend, request):
            inner: "list[float]" = []
            token = _CURRENT_WIRE.set(inner)
            start = time.perf_counter()
            try:
                return await fn(backend, request)
            finally:
                end = time.perf_counter()
                _CURRENT_WIRE.reset(token)
                route = _CURRENT_ROUTE.get()
                if route is not None:
                    route.wire.append((start, end))
                # wire time is the wrapper's duration minus the backend
                # call it made (found through the same task's context)
                self._record(key, (end - start) - sum(inner))
        return wrapper

    def _wrap_backend(self, key: str, fn):
        @functools.wraps(fn)
        async def wrapper(backend, request):
            start = time.perf_counter()
            try:
                return await fn(backend, request)
            finally:
                took = time.perf_counter() - start
                self._record(key, took)
                self.backend_calls += 1
                inner = _CURRENT_WIRE.get()
                if inner is not None:
                    inner.append(took)
        return wrapper
