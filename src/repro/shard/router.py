"""The shard router: one protocol front end over many shard backends.

:class:`ShardRouter` is deliberately shaped like an
:class:`~repro.serve.service.AssignmentService` — it exposes
``started`` and ``submit_nowait`` — so the existing
:class:`~repro.serve.server.TCPServer` serves it unchanged, and it is
simultaneously shaped like a client (``send``/``flush``/``request``/
``close``) so the existing load generator drives it unchanged.  The
sharded tier is therefore invisible on the wire: same line-JSON
protocol, same semantics, more cores behind it.

Routing
-------
A device's **home shard** is the consistent-hash owner of its topology
region (:class:`~repro.shard.partition.ShardPlan`).  An assign walks
the ring's preference order starting at home: the first shard whose
circuit breaker admits the request and answers ``ok`` wins.  A shard
that is down (transport failure, circuit open) or full (``infeasible``)
spills the device to the next ring successor — this is the failover
path a shard kill exercises.  The router remembers where every device
actually landed, so releases and migrations always reach the shard
that holds the device, wherever it spilled.

Shard sub-problems index servers locally; the router rewrites each
``ok`` assign response's ``server`` back to the global index, so
clients observe one coherent cluster.

Gray failures
-------------
Crashes trip circuit breakers; *slowness* does not — a gray shard
answers every probe yet drags the tail.  Three defenses compose here
(see ``docs/robustness.md``):

* **deadlines** — every request carries an absolute ``deadline_ms``
  (stamped from ``default_deadline_ms`` when the client sent none) and
  no forward awaits past it; an expired budget yields a ``timeout``
  response, never an unbounded hang;
* **hedged requests** — when a primary shard exceeds its own
  p95-derived hedge delay (:class:`~repro.shard.latency.LatencyTracker`),
  the router races a second copy of the assign to the next admitting
  ring successor; first ``ok`` wins, and the loser's eventual landing
  is released fire-and-forget so no ghost capacity accumulates;
* **outlier ejection** — a shard whose latency p95 is a configured
  multiple of its peers' median is demoted to the back of every
  preference walk for a cooldown, complementing the breaker (which
  only sees hard failures) with a latency-aware signal.

The request path claims breaker admission via
:meth:`~repro.shard.backend.CircuitBreaker.acquire` (half-open admits
exactly one probe); planning code keeps the pure
:meth:`~repro.shard.backend.CircuitBreaker.allows` check.

Rebalance
---------
A periodic loop gossips ``stats`` from every shard, then moves one
bounded batch of devices per round: devices stranded off their home
shard are repatriated first (failover debt), then load is shaved from
the most- to the least-utilized shard when the utilization gap exceeds
the configured threshold.  Shaved devices are marked and exempted
from repatriation so the two policies never ping-pong the same
devices between donor and target.  Each batch uses the ``migrate`` op's
epoch compare-and-set — a donor whose state moved since the gossip
snapshot rejects the batch and the round simply retries later, so
migration always yields to foreground traffic.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, replace

from repro.errors import DeadlineExceededError, ShardUnavailableError
from repro.obs import names as obs_names
from repro.obs import runtime as obs_runtime
from repro.obs.trace import context_from_wire as trace_context_from_wire
from repro.serve.deadline import deadline_ms_in, expired, remaining_s
from repro.serve.protocol import Request, Response
from repro.shard.latency import LatencyTracker
from repro.shard.partition import ShardPlan
from repro.utils.validation import require

#: how many assigns between latency-outlier ejection refreshes
_EJECTION_REFRESH_EVERY = 16

#: total copies of one release the router may put on a gray edge
_RELEASE_COPIES_MAX = 4

#: same-shard re-sends an assign may add when no fresh candidate admits
_ASSIGN_RESENDS_MAX = 3

#: concurrent copies of one assign the router may keep in flight
_ASSIGN_INFLIGHT_MAX = 4


def _swallow_result(task: "asyncio.Task") -> None:
    """Reap an abandoned duplicate-release task without side effects."""
    if task.cancelled():
        return
    task.exception()


@dataclass(frozen=True)
class RouterConfig:
    """Every router knob in one place (see docs/serve.md)."""

    rebalance_interval_s: "float | None" = None  # None disables the loop
    migration_batch: int = 32
    utilization_gap: float = 0.25
    #: budget stamped on requests that arrive without a deadline
    #: (relative, in ms); ``None`` leaves undated requests unbounded
    default_deadline_ms: "float | None" = None
    #: race a second assign to the ring successor when the primary
    #: exceeds its p95-derived hedge delay
    hedge: bool = True
    #: bound on the gossip stats fan-out per shard
    stats_timeout_s: float = 2.0

    def __post_init__(self) -> None:
        if self.rebalance_interval_s is not None:
            require(self.rebalance_interval_s > 0,
                    "rebalance_interval_s must be > 0")
        require(self.migration_batch >= 1, "migration_batch must be >= 1")
        require(0 < self.utilization_gap <= 1,
                "utilization_gap must be in (0, 1]")
        if self.default_deadline_ms is not None:
            require(self.default_deadline_ms > 0,
                    "default_deadline_ms must be > 0")
        require(self.stats_timeout_s > 0, "stats_timeout_s must be > 0")


class ShardRouter:
    """Consistent-hash front end over per-region shard backends."""

    def __init__(
        self,
        plan: ShardPlan,
        backends: "dict[str, object]",
        config: "RouterConfig | None" = None,
        latency: "LatencyTracker | None" = None,
    ) -> None:
        require(
            set(backends) == {s.name for s in plan.shards},
            "backends must cover exactly the plan's shards",
        )
        self.plan = plan
        self.backends = dict(backends)
        self.config = config or RouterConfig()
        self.latency = latency or LatencyTracker()
        self._locations: "dict[int, str]" = {}  # device -> holding shard
        self._shaved: "set[int]" = set()  # deliberately moved off home
        self._gossip: "dict[str, dict]" = {}    # shard -> last stats seen
        self._trips_seen: "dict[str, int]" = {}  # breaker trips published
        self._rebalance_task: "asyncio.Task | None" = None
        self._cleanup_tasks: "set[asyncio.Task]" = set()
        self._detached: "set[asyncio.Task]" = set()  # abandoned hedge copies
        self._started = False
        self._assign_seq = 0
        self.spillovers_total = 0
        self.unroutable_total = 0
        self.migrated_total = 0
        self.migration_lost_total = 0
        self.hedges_total = 0
        self.hedge_wins_total = 0
        self.timeouts_total = 0
        self.ghost_releases_total = 0

    # ------------------------------------------------------------------
    # lifecycle (service-shaped, so TCPServer can wrap the router)
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether the router is accepting requests."""
        return self._started

    async def start(self) -> None:
        """Accept requests; spawn the rebalance loop when configured."""
        require(not self._started, "router is already started")
        self._started = True
        if self.config.rebalance_interval_s is not None:
            self._rebalance_task = asyncio.create_task(
                self._rebalance_loop(), name="shard-rebalance"
            )

    async def stop(self) -> None:
        """Stop the rebalance loop and close every backend."""
        self._started = False
        if self._rebalance_task is not None:
            self._rebalance_task.cancel()
            try:
                await self._rebalance_task
            except asyncio.CancelledError:
                pass
            self._rebalance_task = None
        # Drain abandoned hedge copies and the releases they spawn. A
        # copy still in flight may yet land on a second shard, and its
        # done-callback only then spawns the release that undoes it, so
        # wait until neither set has anything left — otherwise the
        # owner stops the shards under a landed copy and the device
        # stays held twice.
        while self._detached or self._cleanup_tasks:
            await asyncio.gather(
                *self._detached, *self._cleanup_tasks,
                return_exceptions=True,
            )
        for backend in self.backends.values():
            await backend.close()

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit_nowait(self, request: Request) -> "asyncio.Future[Response]":
        """Route one request; the future resolves with the response."""
        require(self._started, "router is not started")
        if (
            request.deadline_ms is None
            and self.config.default_deadline_ms is not None
        ):
            request = replace(
                request,
                deadline_ms=deadline_ms_in(self.config.default_deadline_ms),
            )
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Response]" = loop.create_future()
        task = loop.create_task(self._route(request))

        def _finish(t: "asyncio.Task") -> None:
            if future.done():
                return
            exc = t.exception()
            if exc is not None:
                future.set_result(
                    Response(
                        id=request.id, status="error",
                        detail=f"router failure: {exc}",
                    )
                )
            else:
                future.set_result(t.result())

        task.add_done_callback(_finish)
        return future

    # client-shaped aliases so the load generator drives the router
    # exactly like an InProcessClient
    def send(self, request: Request) -> "asyncio.Future[Response]":
        """Alias of :meth:`submit_nowait` (client surface)."""
        return self.submit_nowait(request)

    async def flush(self) -> None:
        """No client-side buffering, nothing to flush."""

    async def request(self, request: Request) -> Response:
        """Submit one request and await its response."""
        return await self.submit_nowait(request)

    async def close(self) -> None:
        """Client-surface alias of :meth:`stop`."""
        if self._started:
            await self.stop()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _forward(self, name: str, request: Request) -> Response:
        """Forward to one backend with a transport-local request id.

        Client ids are only unique per client connection; a TCP
        backend multiplexes every connection (and the router's own
        gossip/migrate traffic) over one pipelined client, so a
        verbatim forward would collide in its in-flight table.  Send
        id 0 — "stamp me" — and restore the caller's id on the way
        back so its pipeline still matches the response.
        """
        outbound = replace(request, id=0) if request.id != 0 else request
        recorder = obs_runtime.spans()
        with recorder.start_span(
            obs_names.XSPAN_FORWARD,
            trace_context_from_wire(request.trace),
            shard=name,
            breaker=self.backends[name].breaker.state,
        ) as span:
            if span.context is not None:
                # the shard's spans parent onto this forward, so each
                # racing copy stitches as its own subtree
                outbound = replace(outbound, trace=span.context.to_dict())
            response = await self.backends[name].request(outbound)
            span.annotate(status=response.status)
        if response.id != request.id:
            response = replace(response, id=request.id)
        return response

    async def _timed_forward(self, name: str, request: Request) -> Response:
        """Forward and feed the round-trip into the latency tracker.

        Only completed round trips are observed — hard failures are
        the breaker's signal; the tracker exists to see the *slow*
        successes a breaker is blind to.
        """
        start_t = time.perf_counter()
        response = await self._forward(name, request)
        self.latency.observe(name, time.perf_counter() - start_t)
        return response

    def _timeout(self, request: Request, where: str) -> Response:
        """A deadline ran out: answer ``timeout`` (not a protocol error)."""
        self.timeouts_total += 1
        obs_runtime.metrics().counter(obs_names.SHARD_TIMEOUTS).inc()
        return Response(
            id=request.id, status="timeout",
            detail=f"deadline expired {where}",
        )

    async def _route(self, request: Request) -> Response:
        registry = obs_runtime.metrics()
        recorder = obs_runtime.spans()
        start_t = time.perf_counter()
        with recorder.start_span(
            obs_names.XSPAN_ROUTE,
            trace_context_from_wire(request.trace),
            op=request.op,
        ) as span:
            if span.context is not None:
                # every forward below parents onto the route span;
                # hedge/spill/breaker events land here via the recorder's
                # current-span context variable
                request = replace(request, trace=span.context.to_dict())
            try:
                if expired(request.deadline_ms):
                    span.event("deadline_expired", where="before routing")
                    return self._timeout(request, "before routing")
                if request.op == "stats":
                    return Response(
                        id=request.id, status="ok", stats=await self._stats()
                    )
                if request.op == "assign":
                    response = await self._route_assign(request)
                elif request.op == "release":
                    response = await self._route_release(request)
                else:
                    response = Response(
                        id=request.id, status="error",
                        detail=f"router does not accept op {request.op!r}",
                    )
                span.annotate(status=response.status)
                if request.deadline_ms is not None:
                    span.annotate(deadline_remaining_ms=round(
                        float(request.deadline_ms) - time.time() * 1e3, 3
                    ))
                return response
            finally:
                registry.timer(obs_names.SHARD_ROUTE_LATENCY).observe(
                    time.perf_counter() - start_t
                )

    async def _route_assign(self, request: Request) -> Response:
        registry = obs_runtime.metrics()
        recorder = obs_runtime.spans()
        device = int(request.device)
        if not 0 <= device < self.plan.n_devices:
            return Response(
                id=request.id, status="error",
                detail=f"device {device} out of range "
                       f"[0, {self.plan.n_devices})",
            )
        self._assign_seq += 1
        if self._assign_seq % _EJECTION_REFRESH_EVERY == 0:
            self.latency.refresh_ejections()
        preference = self.latency.demote_ejected(
            self.plan.preference_of_device(device)
        )
        rank_of = {name: i for i, name in enumerate(preference)}
        tried: "set[str]" = set()

        def next_candidate() -> "str | None":
            # first untried shard whose breaker admits the request;
            # acquire() (not allows()) so a half-open circuit hands out
            # exactly one probe even with a hedge racing the primary
            for name in preference:
                if name in tried:
                    continue
                tried.add(name)
                if self.backends[name].breaker.acquire():
                    return name
                recorder.event(
                    "breaker_denied", shard=name,
                    state=self.backends[name].breaker.state,
                )
            return None

        # One loop owns the whole attempt: launch the first admitting
        # shard, hedge another copy (up to ``_ASSIGN_INFLIGHT_MAX`` in
        # flight) whenever the oldest copy exceeds its hedge delay,
        # walk on when a copy spills (full/unreachable), and bound
        # every wait by the remaining deadline budget.  A copy that
        # fails while another is stuck re-arms hedging, so a held
        # message can never pin the request past its deadline.
        tasks: "dict[asyncio.Task, tuple[str, bool]]" = {}
        resends = 0
        while True:
            if expired(request.deadline_ms):
                self._abandon(tasks, device)
                return self._timeout(request, "while routing assign")
            if not tasks:
                primary = next_candidate()
                if primary is None:
                    break  # nothing in flight and nowhere left to try
                tasks[asyncio.create_task(
                    self._timed_forward(primary, request)
                )] = (primary, False)
            timeout = remaining_s(request.deadline_ms)
            may_hedge = (
                self.config.hedge
                and 1 <= len(tasks) < _ASSIGN_INFLIGHT_MAX
                and (len(tried) < len(preference)
                     or resends < _ASSIGN_RESENDS_MAX)
            )
            if may_hedge:
                slowest = next(iter(tasks.values()))[0]
                delay = self.latency.hedge_delay_s(slowest)
                if timeout is not None:
                    # never schedule the hedge past the budget: a
                    # p95-derived delay wider than what's left would
                    # doom the request to its primary
                    delay = min(delay, timeout / 2)
                timeout = delay
            done, _ = await asyncio.wait(
                set(tasks), timeout=timeout,
                return_when=asyncio.FIRST_COMPLETED,
            )
            if not done:
                if may_hedge and not expired(request.deadline_ms):
                    backup = next_candidate()
                    if backup is None and resends < _ASSIGN_RESENDS_MAX:
                        # no fresh shard admits the request, but the
                        # copy in flight may just be one held message:
                        # duplicate it on the same shard — the shard
                        # rejects a duplicate assign as infeasible, so
                        # this can never double-apply
                        backup = slowest
                        resends += 1
                    if backup is not None:
                        self.hedges_total += 1
                        registry.counter(
                            obs_names.SHARD_HEDGES, {"shard": slowest}
                        ).inc()
                        recorder.event(
                            "hedge", slow=slowest, to=backup,
                            resend=backup == slowest,
                            inflight=len(tasks) + 1,
                        )
                        tasks[asyncio.create_task(
                            self._timed_forward(backup, request)
                        )] = (backup, True)
                continue
            for task in done:
                name, is_hedge = tasks.pop(task)
                try:
                    response = task.result()
                except ShardUnavailableError:
                    self._note_breaker(name)
                    recorder.event(
                        "shard_unavailable", shard=name,
                        breaker=self.backends[name].breaker.state,
                    )
                    # ambiguous: the request may have applied before the
                    # answer was lost — best-effort release so a ghost
                    # assignment can't hold capacity forever
                    self._spawn_cleanup(
                        name, device, obs_names.SHARD_GHOST_RELEASES
                    )
                    if tasks:
                        # a copy is still in flight (a held primary):
                        # transport failures are transient, so let the
                        # hedging path re-try this shard later instead
                        # of burning the candidate for good — each
                        # retry is paced by the hedge delay and gated
                        # by the breaker
                        tried.discard(name)
                    continue
                except DeadlineExceededError:
                    self._spawn_cleanup(
                        name, device, obs_names.SHARD_GHOST_RELEASES
                    )
                    self._abandon(tasks, device)
                    return self._timeout(request, f"at shard {name!r}")
                if response.status == "infeasible":
                    recorder.event("spill", shard=name)
                    continue  # this shard is full for the device: spill
                if response.ok:
                    if is_hedge:
                        self.hedge_wins_total += 1
                        registry.counter(
                            obs_names.SHARD_HEDGE_WINS, {"shard": name}
                        ).inc()
                        recorder.event("hedge_win", shard=name)
                    self._abandon(tasks, device)
                    registry.counter(
                        obs_names.SHARD_ROUTED,
                        {"shard": name, "op": "assign"},
                    ).inc()
                    if rank_of[name] > 0:
                        self.spillovers_total += 1
                        registry.counter(obs_names.SHARD_SPILLOVERS).inc()
                    self._locations[device] = name
                    self._shaved.discard(device)  # fresh assign resets intent
                    registry.gauge(obs_names.SHARD_ACTIVE_DEVICES).set(
                        len(self._locations)
                    )
                    return self._globalize(name, response)
                # rejected/error pass through untranslated
                self._abandon(tasks, device)
                return response
        self.unroutable_total += 1
        registry.counter(obs_names.SHARD_UNROUTABLE).inc()
        return Response(
            id=request.id, status="rejected",
            detail="no shard available for device",
            retry_after_ms=50.0,
        )

    def _abandon(
        self, tasks: "dict[asyncio.Task, tuple[str, bool]]", device: int
    ) -> None:
        """Detach still-racing copies; release any possible landing.

        A hedge loser is never cancelled — a pipelined TCP client has
        already sent the bytes, so cancelling the task would only orphan
        the in-flight future.  Instead the loser runs to completion and
        a done-callback releases its landing (the winner's shard holds
        the device; a second landing is ghost capacity).  A loser that
        *fails* with a lost answer or a deadline cut is just as
        ambiguous — the assign may have applied before the failure —
        so those spawn the same best-effort ghost release.
        """
        for task, (name, _) in tasks.items():
            def _reap(t: "asyncio.Task", name: str = name) -> None:
                if t.cancelled():
                    return
                exc = t.exception()
                if exc is not None:
                    if isinstance(exc, ShardUnavailableError):
                        self._note_breaker(name)
                    if isinstance(
                        exc, (ShardUnavailableError, DeadlineExceededError)
                    ):
                        # as ambiguous as the in-loop handlers: the
                        # request may have applied before the answer
                        # was lost or the deadline cut the await
                        self._spawn_cleanup(
                            name, device, obs_names.SHARD_GHOST_RELEASES
                        )
                    return
                if t.result().ok:
                    self._spawn_cleanup(
                        name, device, obs_names.SHARD_HEDGE_CLEANUPS
                    )
            task.add_done_callback(_reap)
            # after _reap, so a drained copy has already spawned its
            # release when stop() sees it leave the set
            self._detached.add(task)
            task.add_done_callback(self._detached.discard)
        tasks.clear()

    def _spawn_cleanup(self, name: str, device: int, metric: str) -> None:
        """Fire-and-forget a release of ``device`` on shard ``name``."""
        if metric == obs_names.SHARD_GHOST_RELEASES:
            self.ghost_releases_total += 1
        obs_runtime.metrics().counter(metric, {"shard": name}).inc()

        async def _cleanup() -> None:
            # a lost cleanup is a capacity leak until the rebalancer
            # notices, so ride out transient drops with a few paced
            # attempts before giving up
            for pause_s in (0.0, 0.05, 0.2):
                if pause_s:
                    await asyncio.sleep(pause_s)
                try:
                    await self._forward(
                        name, Request(op="release", device=device)
                    )
                    return
                except (ShardUnavailableError, DeadlineExceededError,
                        OSError):
                    continue  # best effort: the shard may be gone

        task = asyncio.create_task(_cleanup(), name=f"cleanup-{name}")
        self._cleanup_tasks.add(task)
        task.add_done_callback(self._cleanup_tasks.discard)

    async def _hedged_release(self, name: str, request: Request) -> Response:
        """Forward a release, re-sending to the *same* shard (up to
        :data:`_RELEASE_COPIES_MAX` copies) while every copy in flight
        exceeds the shard's hedge delay.

        Unlike assign hedging this never changes shards — the device
        lives on ``name`` — it just rides out dropped or long-held
        messages on a gray edge.  Duplicate releases are safe: if an
        earlier copy already applied, the shard answers the next with a
        ``not assigned`` error, which the reconcile path in
        :meth:`_route_release` rewrites to ``ok``.
        """
        first = asyncio.ensure_future(self._timed_forward(name, request))
        tasks = {first}
        copies = 1
        deadline_exc: "DeadlineExceededError | None" = None
        unavailable_exc: "ShardUnavailableError | None" = None
        while tasks:
            remaining = remaining_s(request.deadline_ms)
            if remaining is not None and remaining <= 0:
                for loser in tasks:
                    loser.add_done_callback(_swallow_result)
                raise deadline_exc or DeadlineExceededError(
                    f"release to shard {name!r} ran out of budget"
                )
            timeout = remaining
            resend = self.config.hedge and copies < _RELEASE_COPIES_MAX
            if resend:
                delay = self.latency.hedge_delay_s(name)
                if remaining is not None:
                    # as for assigns: re-sends scheduled past the
                    # budget would never happen at all
                    delay = min(delay, remaining / 2)
                timeout = delay
            done, tasks = await asyncio.wait(
                tasks, timeout=timeout, return_when=asyncio.FIRST_COMPLETED
            )
            if not done:
                if not resend or expired(request.deadline_ms):
                    continue  # the top of the loop settles the verdict
                # every copy in flight is stuck past the hedge delay
                copies += 1
                self.hedges_total += 1
                obs_runtime.metrics().counter(
                    obs_names.SHARD_HEDGES, {"shard": name}
                ).inc()
                obs_runtime.spans().event(
                    "hedge", slow=name, to=name, resend=True,
                    inflight=len(tasks) + 1,
                )
                tasks.add(
                    asyncio.ensure_future(self._timed_forward(name, request))
                )
                continue
            for task in done:
                try:
                    response = task.result()
                except DeadlineExceededError as exc:
                    deadline_exc = exc
                    continue
                except ShardUnavailableError as exc:
                    self._note_breaker(name)
                    unavailable_exc = exc
                    continue
                if task is not first:
                    self.hedge_wins_total += 1
                    obs_runtime.metrics().counter(
                        obs_names.SHARD_HEDGE_WINS, {"shard": name}
                    ).inc()
                for loser in tasks:
                    # the loser is a duplicate of the same release: its
                    # eventual landing needs no cleanup, only reaping
                    loser.add_done_callback(_swallow_result)
                return response
        # every copy failed: prefer the conservative verdict (deadline
        # keeps the location for a retry; unavailability forgets it)
        raise deadline_exc or unavailable_exc

    async def _route_release(self, request: Request) -> Response:
        registry = obs_runtime.metrics()
        device = int(request.device)
        name = self._locations.get(device)
        if name is None:
            # not tracked: let the home shard produce the protocol error
            name = self.plan.shard_of_device(device) \
                if 0 <= device < self.plan.n_devices \
                else self.plan.shards[0].name
        try:
            response = await self._hedged_release(name, request)
        except DeadlineExceededError:
            # unknown whether the shard applied it: keep the location so
            # a retry (or the rebalancer) still reaches the holder
            return self._timeout(request, f"at shard {name!r}")
        except ShardUnavailableError:
            self._note_breaker(name)
            # the holder died and its state died with it: the device
            # IS released, just by crash instead of by request
            self._forget(device)
            return Response(
                id=request.id, status="ok",
                detail=f"released by failure of shard {name}",
            )
        if response.ok:
            registry.counter(
                obs_names.SHARD_ROUTED, {"shard": name, "op": "release"}
            ).inc()
            self._forget(device)
            registry.gauge(obs_names.SHARD_ACTIVE_DEVICES).set(
                len(self._locations)
            )
            return self._globalize(name, response)
        if (
            response.status == "error"
            and "not assigned" in response.detail
            and self._locations.get(device) == name
        ):
            # the router saw this device assigned but the shard no
            # longer holds it — the shard crashed and came back empty.
            # Reconcile: the assignment is gone, so the release is done.
            # The post-await re-check keeps a concurrent release's
            # legitimate duplicate-release error from being rewritten,
            # and the detail match keeps real shard faults visible.
            self._forget(device)
            return Response(
                id=request.id, status="ok",
                detail=f"reconciled after restart of shard {name}",
            )
        return response

    def _forget(self, device: int) -> None:
        """Drop all per-device routing state (location + shave mark)."""
        self._locations.pop(device, None)
        self._shaved.discard(device)

    def _globalize(self, name: str, response: Response) -> Response:
        """Rewrite a shard-local server index to the global one."""
        if response.server is None:
            return response
        return Response(
            id=response.id,
            status=response.status,
            server=self.plan.global_server(name, int(response.server)),
            latency_ms=response.latency_ms,
            retry_after_ms=response.retry_after_ms,
            detail=response.detail,
            stats=response.stats,
        )

    def _note_breaker(self, name: str) -> None:
        """Publish any new breaker trips for ``name`` as counter increments."""
        trips = self.backends[name].breaker.trips
        seen = self._trips_seen.get(name, 0)
        if trips > seen:
            self._trips_seen[name] = trips
            obs_runtime.metrics().counter(
                obs_names.SHARD_BREAKER_TRIPS, {"shard": name}
            ).inc(trips - seen)

    # ------------------------------------------------------------------
    # stats aggregation
    # ------------------------------------------------------------------
    async def _stats(self) -> dict:
        """Cluster-wide snapshot: per-shard stats plus aggregates."""
        per_shard: "dict[str, dict]" = {}
        results = await asyncio.gather(
            *(self._shard_stats(name) for name in self.backends),
            return_exceptions=True,
        )
        for name, result in zip(self.backends, results):
            if isinstance(result, dict):
                per_shard[name] = result
                self._gossip[name] = result
        ejected = self.latency.refresh_ejections()
        totals = {
            "devices": int(self.plan.n_devices),
            "servers": int(self.plan.n_servers),
            "shards": len(self.backends),
            "shards_up": len(per_shard),
            "active_devices": sum(
                s.get("active_devices", 0) for s in per_shard.values()
            ),
            "assigns_total": sum(
                s.get("assigns_total", 0) for s in per_shard.values()
            ),
            "releases_total": sum(
                s.get("releases_total", 0) for s in per_shard.values()
            ),
            "total_delay_ms": round(
                sum(s.get("total_delay_ms", 0.0) for s in per_shard.values()),
                6,
            ),
            "spillovers_total": self.spillovers_total,
            "unroutable_total": self.unroutable_total,
            "migrated_total": self.migrated_total,
            "migration_lost_total": self.migration_lost_total,
            "hedges_total": self.hedges_total,
            "hedge_wins_total": self.hedge_wins_total,
            "timeouts_total": self.timeouts_total,
            "ghost_releases_total": self.ghost_releases_total,
            "ejected_shards": sorted(ejected),
            "breaker_states": {
                name: backend.breaker.state
                for name, backend in self.backends.items()
            },
            "per_shard": per_shard,
        }
        return totals

    async def _shard_stats(self, name: str) -> dict:
        backend = self.backends[name]
        # acquire(), not allows(): a gossip probe through a half-open
        # circuit IS the one trial that decides whether it closes
        if not backend.breaker.acquire():
            raise ShardUnavailableError(f"shard {name!r} circuit open")
        probe = Request(
            op="stats",
            deadline_ms=deadline_ms_in(self.config.stats_timeout_s * 1e3),
        )
        try:
            response = await backend.request(probe)
        except DeadlineExceededError as exc:
            raise ShardUnavailableError(
                f"shard {name!r} stats timed out"
            ) from exc
        if not response.ok or response.stats is None:
            raise ShardUnavailableError(f"shard {name!r} gave no stats")
        return response.stats

    # ------------------------------------------------------------------
    # rebalance loop
    # ------------------------------------------------------------------
    async def _rebalance_loop(self) -> None:
        assert self.config.rebalance_interval_s is not None
        while True:
            await asyncio.sleep(self.config.rebalance_interval_s)
            try:
                with obs_runtime.tracer().span(obs_names.SPAN_REBALANCE):
                    await self.rebalance_once()
            except ShardUnavailableError:
                obs_runtime.metrics().counter(
                    obs_names.SHARD_MIGRATION_ROUNDS, {"outcome": "failed"}
                ).inc()

    async def rebalance_once(self) -> int:
        """One gossip + bounded-migration round; returns devices moved."""
        registry = obs_runtime.metrics()
        # gossip: refresh every reachable shard's stats (epochs included)
        await self._stats()
        batch = self._pick_migration_batch()
        if not batch:
            registry.counter(
                obs_names.SHARD_MIGRATION_ROUNDS, {"outcome": "skipped"}
            ).inc()
            return 0
        donor, target, devices, kind = batch
        gossip = self._gossip.get(donor)
        if gossip is None or "epoch" not in gossip:
            registry.counter(
                obs_names.SHARD_MIGRATION_ROUNDS, {"outcome": "skipped"}
            ).inc()
            return 0
        migrate = Request(
            op="migrate",
            devices=tuple(int(d) for d in devices),
            epoch=int(gossip["epoch"]),
        )
        try:
            response = await self.backends[donor].request(migrate)
        except ShardUnavailableError:
            registry.counter(
                obs_names.SHARD_MIGRATION_ROUNDS, {"outcome": "failed"}
            ).inc()
            return 0
        if response.status == "rejected":
            # epoch CAS lost to foreground traffic: retry next round
            registry.counter(
                obs_names.SHARD_MIGRATION_ROUNDS, {"outcome": "stale"}
            ).inc()
            return 0
        if not response.ok or response.stats is None:
            registry.counter(
                obs_names.SHARD_MIGRATION_ROUNDS, {"outcome": "failed"}
            ).inc()
            return 0
        released = [int(d) for d in response.stats.get("released", ())]
        moved = 0
        for device in released:
            self._forget(device)
            landed = await self._readmit(device, target, donor)
            if landed is None:
                self.migration_lost_total += 1
                registry.counter(obs_names.SHARD_MIGRATION_LOST).inc()
            else:
                self._locations[device] = landed
                if kind == "shave" and landed != self.plan.shard_of_device(
                    device
                ):
                    # deliberately off home: exempt from repatriation so
                    # the next round doesn't drag it straight back to
                    # the donor and undo the shave
                    self._shaved.add(device)
                if landed == target:
                    moved += 1
        self.migrated_total += moved
        registry.counter(obs_names.SHARD_MIGRATIONS).inc(moved)
        registry.counter(
            obs_names.SHARD_MIGRATION_ROUNDS,
            {"outcome": "moved" if moved else "failed"},
        ).inc()
        return moved

    async def _readmit(
        self, device: int, target: str, donor: str
    ) -> "str | None":
        """Re-place a released device: target first, donor as rollback,
        then the rest of the ring.  Returns the shard that took it."""
        order = [target, donor] + [
            n for n in self.plan.preference_of_device(device)
            if n not in (target, donor)
        ]
        request = Request(op="assign", device=device)
        for name in order:
            backend = self.backends[name]
            if not backend.breaker.acquire():
                continue
            try:
                response = await backend.request(request)
            except ShardUnavailableError:
                continue
            if response.ok:
                return name
        return None

    def _pick_migration_batch(
        self,
    ) -> "tuple[str, str, list[int], str] | None":
        """Choose (donor, target, devices, kind) for this round, or ``None``.

        Priority 1 — repatriation: devices stranded off their home
        shard (failover debt) go home as soon as home is reachable —
        except devices the shaver moved on purpose, which would
        otherwise ping-pong between donor and target forever.
        Priority 2 — load shaving: when the gossip utilization gap
        exceeds the threshold, move the most-loaded shard's devices
        toward the least-loaded one, preferring devices not homed on
        the donor so a shave retires failover debt first.

        Pure planning: breaker reads here stay :meth:`allows` — no
        probe slot is consumed by *considering* a shard.
        """
        limit = self.config.migration_batch
        # repatriation: group strays by (current shard, home shard)
        strays: "dict[tuple[str, str], list[int]]" = {}
        for device, current in self._locations.items():
            if device in self._shaved:
                continue
            home = self.plan.shard_of_device(device)
            if home != current and self.backends[home].breaker.allows():
                strays.setdefault((current, home), []).append(device)
        if strays:
            (donor, home), devices = max(
                strays.items(), key=lambda kv: (len(kv[1]), kv[0])
            )
            return donor, home, sorted(devices)[:limit], "repatriate"
        # load shaving needs fresh gossip from at least two shards
        utils = {
            name: float(g.get("mean_utilization", 0.0))
            for name, g in self._gossip.items()
            if self.backends[name].breaker.allows()
        }
        if len(utils) < 2:
            return None
        donor = max(utils, key=lambda n: (utils[n], n))
        target = min(utils, key=lambda n: (utils[n], n))
        if utils[donor] - utils[target] < self.config.utilization_gap:
            return None
        held = sorted(
            d for d, where in self._locations.items() if where == donor
        )
        devices = (
            [d for d in held if self.plan.shard_of_device(d) != donor]
            + [d for d in held if self.plan.shard_of_device(d) == donor]
        )[:limit]
        if not devices:
            return None
        return donor, target, devices, "shave"
