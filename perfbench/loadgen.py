"""Open- and closed-loop request generators for the online workloads.

The open loop draws Poisson send times up front and times every request
from the moment it was *due*, not from when it was actually sent, so a
stall in the program (or in this generator) shows as latency of every
request scheduled behind it.  How late the generator itself ran is kept
as ``lag`` so a run that measured the generator instead of the program
is visible.

Devices are response-aware actors: only an ``assign`` answered ``ok``
makes a device releasable, and the held set is kept between a floor and
a ceiling so no assign ever meets a full cluster.
"""

from __future__ import annotations

import asyncio
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from repro.serve.protocol import Request, Response

#: statuses that count as a failed request
FAILED_STATUSES = ("error", "timeout", "infeasible", "rejected")


class DeviceActors:
    """Seeded assign/release churn over a device population."""

    def __init__(self, n_devices: int, seed: int, low: float, high: float) -> None:
        self.rng = np.random.default_rng(seed)
        self.idle: "list[int]" = list(range(n_devices))
        self.held: "list[int]" = []
        self.low = int(low * n_devices)
        self.high = int(high * n_devices)
        self._next_id = 0

    def next_request(self) -> "Request | None":
        """The next op, or ``None`` when every device is in flight."""
        held = len(self.held)
        release = held > 0 and (
            held >= self.high or not self.idle
            or (held > self.low and float(self.rng.random()) < 0.5)
        )
        self._next_id += 1
        if release:
            device = self.held.pop(int(self.rng.integers(held)))
            return Request(op="release", id=self._next_id, device=device)
        if not self.idle:
            return None
        device = self.idle.pop(int(self.rng.integers(len(self.idle))))
        return Request(op="assign", id=self._next_id, device=device)

    def settle(self, request: Request, response: Response) -> None:
        """Fold one answer back into the held/idle sets."""
        device = int(request.device)
        if request.op == "assign":
            (self.held if response.ok else self.idle).append(device)
        else:
            (self.idle if response.ok else self.held).append(device)


@dataclass
class PhaseResult:
    """What one load phase measured."""

    name: str
    duration_s: float
    # samples are kept in flat arrays, not lists of Python objects: a
    # list would hand the collector a few long-lived objects per request
    # and make gen2 passes more frequent than the program alone causes
    latency_ms: array = field(default_factory=lambda: array("d"))
    ok: array = field(default_factory=lambda: array("b"))
    lag_ms: array = field(default_factory=lambda: array("d"))
    statuses: "dict[str, int]" = field(default_factory=dict)
    #: device, server, device, server, ... of every assign answered ``ok``
    placed: array = field(default_factory=lambda: array("q"))

    @property
    def attempted(self) -> int:
        return sum(self.statuses.values())

    @property
    def failed(self) -> int:
        return sum(self.statuses.get(s, 0) for s in FAILED_STATUSES)

    def good_within(self, limit_ms: float) -> int:
        """Requests answered ``ok`` within ``limit_ms`` of their due time."""
        return sum(
            1 for ok, ms in zip(self.ok, self.latency_ms) if ok and ms <= limit_ms
        )

    def record(self, request: Request, response: Response,
               latency_ms: float) -> None:
        status = response.status
        self.statuses[status] = self.statuses.get(status, 0) + 1
        self.latency_ms.append(latency_ms)
        self.ok.append(status == "ok")
        if request.op == "assign" and response.ok:
            self.placed.extend((request.device, response.server))


def pool(name: str, segments: "list[PhaseResult]") -> PhaseResult:
    """One result holding every sample of ``segments``."""
    pooled = PhaseResult(name=name, duration_s=sum(s.duration_s for s in segments))
    for seg in segments:
        pooled.latency_ms += seg.latency_ms
        pooled.ok += seg.ok
        pooled.lag_ms += seg.lag_ms
        pooled.placed += seg.placed
        for status, count in seg.statuses.items():
            pooled.statuses[status] = pooled.statuses.get(status, 0) + count
    return pooled


async def open_loop(
    client, actors: DeviceActors, name: str, rate_hz: float,
    duration_s: float, rng: np.random.Generator,
) -> PhaseResult:
    """Send Poisson arrivals at ``rate_hz`` for ``duration_s``; await all."""
    result = PhaseResult(name=name, duration_s=duration_s)
    gaps = rng.exponential(1.0 / rate_hz, size=int(rate_hz * duration_s * 1.5) + 64)
    pending: "set[asyncio.Future]" = set()

    def done(request: Request, due: float, future: asyncio.Future) -> None:
        pending.discard(future)
        response = future.result()
        result.record(request, response, (time.perf_counter() - due) * 1e3)
        actors.settle(request, response)

    start = time.perf_counter()
    due = start
    for gap in gaps:
        due += float(gap)
        if due - start >= duration_s:
            break
        now = time.perf_counter()
        if due > now:
            await asyncio.sleep(due - now)
        request = actors.next_request()
        if request is None:
            continue
        result.lag_ms.append((time.perf_counter() - due) * 1e3)
        future = client.send(request)
        pending.add(future)
        future.add_done_callback(lambda f, r=request, d=due: done(r, d, f))
    while pending:
        await asyncio.wait(set(pending))
        await asyncio.sleep(0)  # let the completion callbacks run
    return result


async def closed_loop(
    client, actors: DeviceActors, clients: int, duration_s: float,
) -> PhaseResult:
    """``clients`` coroutines, each waiting for its answer before sending.

    Clients stop sending after ``duration_s``; the phase lasts until the
    last answer, and that is the duration it reports.
    """
    result = PhaseResult(name="closed", duration_s=duration_s)
    started = time.perf_counter()
    end = started + duration_s

    async def worker() -> None:
        while time.perf_counter() < end:
            request = actors.next_request()
            if request is None:
                await asyncio.sleep(0)
                continue
            sent = time.perf_counter()
            response = await client.send(request)
            result.record(request, response, (time.perf_counter() - sent) * 1e3)
            actors.settle(request, response)

    await asyncio.gather(*(worker() for _ in range(clients)))
    result.duration_s = time.perf_counter() - started
    return result
