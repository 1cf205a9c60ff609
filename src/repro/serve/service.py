"""The asyncio assignment service: admission → micro-batch → state.

:class:`AssignmentService` is the long-running component the paper's
real-time framing implies: it accepts assignment requests, answers
within a latency budget, and survives load.  One event loop, three
moving parts:

* **admission** happens synchronously at submit time against the
  bounded queue (:mod:`repro.serve.admission`) — overload turns into
  explicit ``rejected`` responses with a retry hint, never into
  unbounded memory;
* the **batch consumer** drains the queue through the deadline-aware
  :class:`~repro.serve.batcher.MicroBatcher` and applies each request
  to the single-writer :class:`~repro.serve.state.ServiceState` in
  strict FIFO order, so batched and serial execution produce
  identical assignments;
* the **re-optimization loop** periodically solves a snapshot of the
  active devices with a full offline solver *off the hot path* (in a
  worker thread) and compare-and-swaps the improved assignment in.

``submit_nowait`` is the ordering primitive: it performs admission and
enqueueing synchronously on the event loop and returns a future, so a
caller that invokes it in trace order is guaranteed FIFO processing
even though responses resolve later, batch by batch.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import InfeasibleSolutionError, ReproError, ValidationError
from repro.model.problem import AssignmentProblem
from repro.model.solution import UNASSIGNED
from repro.obs import names as obs_names
from repro.obs import runtime as obs_runtime
from repro.obs.trace import context_from_wire as trace_context_from_wire
from repro.serve.admission import AdmissionController
from repro.serve.batcher import MicroBatcher
from repro.serve.deadline import expired
from repro.serve.protocol import Request, Response
from repro.serve.state import ServiceState
from repro.utils.validation import require
from repro.wal import WriteAheadLog

#: EWMA weight for the measured drain rate fed back into admission
_DRAIN_EWMA_ALPHA = 0.3


@dataclass(frozen=True)
class ServiceConfig:
    """Every serving knob in one place (see docs/serve.md)."""

    rule: str = "reserve"
    headroom: float = 0.85
    max_batch: int = 32
    max_wait_s: float = 0.002
    max_queue: int = 1024
    watermark: float = 0.5
    reopt_interval_s: "float | None" = None  # None disables the loop
    reopt_solver: str = "local_search"
    reopt_seed: int = 0
    wal_dir: "str | None" = None  # None = no durability
    wal_snapshot_every: int = 256

    def __post_init__(self) -> None:
        require(self.max_batch >= 1, "max_batch must be >= 1")
        require(self.max_wait_s >= 0, "max_wait_s must be >= 0")
        require(self.max_queue >= 1, "max_queue must be >= 1")
        if self.reopt_interval_s is not None:
            require(self.reopt_interval_s > 0, "reopt_interval_s must be > 0")
        require(self.wal_snapshot_every >= 1,
                "wal_snapshot_every must be >= 1")


class AssignmentService:
    """Request/response front over one live cluster state."""

    def __init__(
        self,
        problem: AssignmentProblem,
        config: "ServiceConfig | None" = None,
    ) -> None:
        self.config = config or ServiceConfig()
        wal = None
        if self.config.wal_dir is not None:
            wal = WriteAheadLog(
                self.config.wal_dir,
                snapshot_every=self.config.wal_snapshot_every,
            )
        self.state = ServiceState(
            problem, rule=self.config.rule, headroom=self.config.headroom,
            wal=wal,
        )
        self.recovery_ms = 0.0
        if wal is not None:
            started = time.perf_counter()
            self.state.recover()
            self.recovery_ms = (time.perf_counter() - started) * 1e3
        self.admission = AdmissionController(
            max_queue=self.config.max_queue,
            watermark=self.config.watermark,
            drain_rate_hz=max(
                1.0, self.config.max_batch / max(self.config.max_wait_s, 1e-4)
            ),
        )
        self._queue: "asyncio.Queue | None" = None
        self._batcher: "MicroBatcher | None" = None
        self._consumer: "asyncio.Task | None" = None
        self._reopt_task: "asyncio.Task | None" = None
        self._pending = 0  # requests admitted but not yet processed
        self._drain_rate_hz = 0.0
        self._last_flush_t = 0.0
        self.reopt_swaps = 0
        self.reopt_gain_ms_total = 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether the consumer loop is running."""
        return self._consumer is not None and not self._consumer.done()

    async def start(self) -> None:
        """Spawn the batch consumer (and the re-opt loop, if configured)."""
        require(not self.started, "service is already started")
        self._queue = asyncio.Queue()
        self._batcher = MicroBatcher(
            self._queue,
            max_batch=self.config.max_batch,
            max_wait_s=self.config.max_wait_s,
        )
        self._last_flush_t = time.perf_counter()
        self._consumer = asyncio.create_task(self._consume(), name="serve-consumer")
        if self.config.reopt_interval_s is not None:
            # load the solver stack now rather than in the first round's
            # worker thread, where the import would contend with requests
            import repro.solvers.registry  # noqa: F401

            self._reopt_task = asyncio.create_task(
                self._reopt_loop(), name="serve-reopt"
            )

    async def stop(self) -> None:
        """Drain the queue, answer everything in flight, stop the loops."""
        if self._reopt_task is not None:
            self._reopt_task.cancel()
            try:
                await self._reopt_task
            except asyncio.CancelledError:
                pass
            self._reopt_task = None
        if self._batcher is not None and self._consumer is not None:
            await self._batcher.close()
            await self._consumer
        self._consumer = None
        self._batcher = None
        self._queue = None

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit_nowait(self, request: Request) -> "asyncio.Future[Response]":
        """Admit (or reject) now; the returned future resolves post-batch.

        Must be called from the event loop thread.  Calls made in
        order are processed in order — this is the service's only
        ordering guarantee, and all the determinism tests need.
        """
        require(self.started, "service is not started")
        registry = obs_runtime.metrics()
        registry.counter(obs_names.SERVE_REQUESTS, {"op": request.op}).inc()
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Response]" = loop.create_future()
        if request.op == "stats":
            future.set_result(
                Response(id=request.id, status="ok", stats=self._stats())
            )
            return future
        decision = self.admission.check(self._pending, request.priority)
        if not decision.admitted:
            registry.counter(
                obs_names.SERVE_REJECTED,
                {"reason": decision.reason, "priority": request.priority},
            ).inc()
            future.set_result(
                Response(
                    id=request.id,
                    status="rejected",
                    retry_after_ms=decision.retry_after_ms,
                    detail=decision.reason,
                )
            )
            return future
        registry.counter(obs_names.SERVE_ADMITTED, {"priority": request.priority}).inc()
        self._pending += 1
        assert self._queue is not None
        self._queue.put_nowait((request, future, time.perf_counter()))
        return future

    async def submit(self, request: Request) -> Response:
        """Submit one request and await its response."""
        return await self.submit_nowait(request)

    # ------------------------------------------------------------------
    # batch consumer
    # ------------------------------------------------------------------
    async def _consume(self) -> None:
        assert self._batcher is not None
        while True:
            flushed = await self._batcher.next_batch()
            if flushed is None:
                return
            batch, reason = flushed
            registry = obs_runtime.metrics()
            recorder = obs_runtime.spans()
            registry.counter(
                obs_names.SERVE_BATCH_FLUSHES, {"reason": reason}
            ).inc()
            registry.histogram(obs_names.SERVE_BATCH_SIZE).observe(len(batch))
            latency = registry.timer(obs_names.SERVE_ASSIGN_LATENCY)
            for request, future, enqueued_t in batch:
                response = self._serve_one(
                    recorder, request, enqueued_t, reason, len(batch)
                )
                self._pending -= 1
                if response.latency_ms is not None:
                    latency.observe(response.latency_ms / 1e3)
                if not future.done():  # client may have gone away
                    future.set_result(response)
            now = time.perf_counter()
            window = max(now - self._last_flush_t, 1e-9)
            self._last_flush_t = now
            rate = len(batch) / window
            self._drain_rate_hz = (
                rate
                if self._drain_rate_hz == 0.0
                else (1 - _DRAIN_EWMA_ALPHA) * self._drain_rate_hz
                + _DRAIN_EWMA_ALPHA * rate
            )
            self.admission.observe_drain_rate(self._drain_rate_hz)
            registry.gauge(obs_names.SERVE_QUEUE_DEPTH).set(self._pending)
            registry.gauge(obs_names.SERVE_ACTIVE_DEVICES).set(self.state.active_count)
            # yield once per batch so submitters/readers interleave fairly
            await asyncio.sleep(0)

    def _serve_one(
        self,
        recorder,
        request: Request,
        enqueued_t: float,
        reason: str,
        batch_size: int,
    ) -> Response:
        """One request through its (traced) application.

        The ``serve/request`` span parents onto the wire context the
        sender stamped, covering queue exit through state mutation;
        the inner ``serve/batch`` span isolates the batcher's share
        and carries the flush reason — the two hops the stitched
        waterfall shows on the shard side.
        """
        context = trace_context_from_wire(request.trace)
        with recorder.start_span(
            obs_names.XSPAN_SERVE, context, op=request.op
        ) as span:
            span.event(
                "dequeued",
                queue_wait_ms=round(
                    (time.perf_counter() - enqueued_t) * 1e3, 3
                ),
            )
            if request.deadline_ms is not None:
                span.event(
                    "deadline",
                    remaining_ms=round(
                        float(request.deadline_ms) - time.time() * 1e3, 3
                    ),
                )
            with recorder.start_span(
                obs_names.XSPAN_BATCH, span.context,
                reason=reason, size=batch_size,
            ):
                response = self._apply(request, enqueued_t)
            span.annotate(status=response.status)
            return response

    def _apply(self, request: Request, enqueued_t: float) -> Response:
        """Execute one admitted request against the state."""
        registry = obs_runtime.metrics()

        def latency_ms() -> float:
            return (time.perf_counter() - enqueued_t) * 1e3

        if expired(request.deadline_ms):
            # the budget died in the queue: answer fast, mutate nothing —
            # the client has already given up on this response
            registry.counter(obs_names.SERVE_DEADLINE_EXCEEDED).inc()
            return Response(
                id=request.id, status="timeout",
                detail="deadline expired before apply",
                latency_ms=latency_ms(),
            )
        try:
            if request.op == "assign":
                server = self.state.assign(int(request.device))
                registry.counter(obs_names.SERVE_ASSIGNED).inc()
                return Response(
                    id=request.id, status="ok", server=server,
                    latency_ms=latency_ms(),
                )
            if request.op == "release":
                server = self.state.release(int(request.device))
                registry.counter(obs_names.SERVE_RELEASED).inc()
                return Response(
                    id=request.id, status="ok", server=server,
                    latency_ms=latency_ms(),
                )
            if request.op == "migrate":
                released = self.state.migrate_out(
                    list(request.devices or ()), int(request.epoch)
                )
                if released is None:
                    # epoch moved on: the router retries with fresh gossip
                    return Response(
                        id=request.id, status="rejected",
                        detail="stale epoch",
                        latency_ms=latency_ms(),
                    )
                registry.counter(obs_names.SERVE_RELEASED).inc(len(released))
                return Response(
                    id=request.id, status="ok",
                    latency_ms=latency_ms(),
                    stats={"released": released, "epoch": self.state.epoch},
                )
        except ValidationError as exc:
            registry.counter(obs_names.SERVE_ERRORS).inc()
            return Response(
                id=request.id, status="error", detail=str(exc),
                latency_ms=latency_ms(),
            )
        except InfeasibleSolutionError as exc:
            if request.op == "release":
                # releasing a device that is not held is protocol misuse
                registry.counter(obs_names.SERVE_ERRORS).inc()
                return Response(
                    id=request.id, status="error", detail=str(exc),
                    latency_ms=latency_ms(),
                )
            return Response(
                id=request.id, status="infeasible", detail=str(exc),
                latency_ms=latency_ms(),
            )
        registry.counter(obs_names.SERVE_ERRORS).inc()
        return Response(
            id=request.id, status="error", detail=f"unhandled op {request.op!r}",
        )

    def _stats(self) -> dict:
        """Service-level snapshot (state + queue + admission + reopt)."""
        stats = {
            **self.state.stats(),
            "queue_depth": self._pending,
            "queue_max": self.admission.max_queue,
            "drain_rate_hz": round(self._drain_rate_hz, 3),
            "admitted_total": self.admission.admitted_total,
            "rejected_total": self.admission.rejected_total,
            "reopt_swaps": self.reopt_swaps,
            "reopt_gain_ms_total": round(self.reopt_gain_ms_total, 6),
        }
        if self.config.wal_dir is not None:
            stats["wal_recovered_records"] = self.state.recovered_records
            stats["wal_recovery_ms"] = round(self.recovery_ms, 3)
            stats["wal_seq"] = self.state.wal_seq
            stats["wal_appends_total"] = self.state.wal_appends_total
            stats["wal_snapshots_total"] = self.state.wal_snapshots_total
        registry = obs_runtime.metrics()
        if registry.enabled:
            # a compact live-metrics snapshot rides the stats response so
            # `repro shard stats` sees each process's counters without a
            # side channel; the null registry keeps this off the request
            # path entirely when obs is disabled
            stats["metrics"] = registry.snapshot()
        return stats

    # ------------------------------------------------------------------
    # re-optimization loop
    # ------------------------------------------------------------------
    async def _reopt_loop(self) -> None:
        assert self.config.reopt_interval_s is not None
        while True:
            await asyncio.sleep(self.config.reopt_interval_s)
            try:
                await self.reoptimize_once()
            except ReproError:
                # a failed round must never take the serving path down
                obs_runtime.metrics().counter(
                    obs_names.SERVE_REOPT_RUNS, {"outcome": "failed"}
                ).inc()

    async def reoptimize_once(self) -> bool:
        """One snapshot → solve → compare-and-swap round; True on swap.

        The solve runs in a worker thread so the event loop keeps
        serving; the swap is rejected when any assign/release landed
        after the snapshot (the next round sees the fresher state).
        """
        registry = obs_runtime.metrics()
        epoch, vector = self.state.snapshot()
        active = np.flatnonzero(vector != UNASSIGNED)
        if active.size < 2:
            registry.counter(obs_names.SERVE_REOPT_RUNS, {"outcome": "kept"}).inc()
            return False
        problem = self.state.problem
        old_cost = float(np.sum(problem.delay[active, vector[active]]))
        with obs_runtime.tracer().span(
            obs_names.SPAN_REOPT, active=int(active.size)
        ):
            improved = await asyncio.to_thread(
                _solve_snapshot,
                problem,
                active,
                self.config.reopt_solver,
                self.config.reopt_seed,
            )
        if improved is None:
            registry.counter(obs_names.SERVE_REOPT_RUNS, {"outcome": "failed"}).inc()
            return False
        new_vector, new_cost = improved
        if new_cost >= old_cost - 1e-12:
            registry.counter(obs_names.SERVE_REOPT_RUNS, {"outcome": "kept"}).inc()
            return False
        if not self.state.try_swap(epoch, new_vector):
            registry.counter(obs_names.SERVE_REOPT_RUNS, {"outcome": "stale"}).inc()
            return False
        gain_ms = (old_cost - new_cost) * 1e3
        self.reopt_swaps += 1
        self.reopt_gain_ms_total += gain_ms
        registry.counter(obs_names.SERVE_REOPT_RUNS, {"outcome": "swapped"}).inc()
        registry.gauge(obs_names.SERVE_REOPT_GAIN).set(gain_ms)
        return True


def _solve_snapshot(
    problem: AssignmentProblem,
    active: np.ndarray,
    solver_name: str,
    seed: int,
) -> "tuple[np.ndarray, float] | None":
    """Solve the active-device subproblem; returns (full vector, cost).

    Runs in a worker thread.  Returns ``None`` when the solver fails
    or lands infeasible — the caller keeps the standing assignment.
    """
    from repro.solvers.registry import get_solver

    sub = AssignmentProblem(
        delay=problem.delay[active],
        demand=problem.demand[active],
        capacity=problem.capacity,
        failed_servers=problem.failed_servers,
        name=f"{problem.name}|reopt={active.size}",
    )
    try:
        result = get_solver(solver_name, seed=seed).solve(sub)
    except ReproError:
        return None
    if not result.feasible:
        return None
    full = np.full(problem.n_devices, UNASSIGNED, dtype=np.int64)
    full[active] = result.assignment.vector
    return full, float(result.objective_value)
