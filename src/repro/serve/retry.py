"""Client-side retries: budgeted, deadline-aware, decorrelated jitter.

:class:`RetryingClient` wraps any client surface (``send``/``flush``/
``request``/``close``) and re-issues requests that come back
``rejected`` (admission control says later) or ``timeout`` (the
deadline ran out somewhere downstream).  Three guards keep retries
from amplifying an outage into a storm:

* **one absolute deadline** — the first attempt stamps ``deadline_ms``
  and every retry inherits it, so the *sequence* is bounded, not each
  attempt; when the budget is gone the client stops, whatever the
  attempt count says;
* **a retry budget** — a token bucket earned by sending requests and
  spent by retrying them (:class:`RetryBudget`): at most a configured
  fraction of traffic can be retries, so a dying cluster sees load
  shed, not multiplied;
* **decorrelated jitter** — each backoff is drawn from
  ``[base, 3 × previous]`` (:func:`decorrelated_jitter_s`), the spread
  that keeps a thundering herd from re-synchronizing the way plain
  exponential backoff does.

Backoff draws come from a :func:`~repro.utils.rng.derive_seed`-derived
stream, so a seeded load test retries identically run over run.
"""

from __future__ import annotations

import asyncio
import dataclasses

from repro.obs import names as obs_names
from repro.obs import runtime as obs_runtime
from repro.obs.trace import context_from_wire as trace_context_from_wire
from repro.serve.deadline import deadline_ms_in, expired, remaining_s
from repro.serve.protocol import Request, Response
from repro.utils.rng import decorrelated_jitter_s, derive_seed, make_rng
from repro.utils.validation import require

#: response statuses worth a retry (everything else is terminal)
RETRYABLE_STATUSES = ("rejected", "timeout")


class RetryBudget:
    """Token bucket bounding what fraction of traffic may be retries.

    Every first attempt *earns* ``earn_per_request`` tokens (capped);
    every retry *spends* one.  With the default 0.1 earn rate, retries
    are capped at ~10% of offered load in steady state — enough to
    absorb gray loss, never enough to double traffic into an outage.
    """

    def __init__(
        self, initial: float = 10.0, earn_per_request: float = 0.1,
        cap: float = 50.0,
    ) -> None:
        require(initial >= 0, "initial must be >= 0")
        require(earn_per_request >= 0, "earn_per_request must be >= 0")
        require(cap >= initial, "cap must be >= initial")
        self._tokens = float(initial)
        self._cap = float(cap)
        self._earn = float(earn_per_request)
        self.spent_total = 0
        self.denied_total = 0

    @property
    def tokens(self) -> float:
        """Tokens currently available to spend on retries."""
        return self._tokens

    def earn(self) -> None:
        """Credit one first attempt."""
        self._tokens = min(self._cap, self._tokens + self._earn)

    def try_spend(self) -> bool:
        """Claim one retry token; ``False`` means shed, don't retry."""
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.spent_total += 1
            return True
        self.denied_total += 1
        return False


class RetryingClient:
    """A retrying, deadline-stamping wrapper around any client."""

    def __init__(
        self,
        inner,
        max_attempts: int = 3,
        base_backoff_s: float = 0.01,
        max_backoff_s: float = 0.5,
        deadline_budget_ms: "float | None" = None,
        budget: "RetryBudget | None" = None,
        seed: int = 0,
        name: str = "client",
    ) -> None:
        require(max_attempts >= 1, "max_attempts must be >= 1")
        require(base_backoff_s > 0, "base_backoff_s must be > 0")
        require(max_backoff_s >= base_backoff_s,
                "max_backoff_s must be >= base_backoff_s")
        if deadline_budget_ms is not None:
            require(deadline_budget_ms > 0, "deadline_budget_ms must be > 0")
        self.inner = inner
        self.max_attempts = int(max_attempts)
        self.base_backoff_s = float(base_backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        self.deadline_budget_ms = deadline_budget_ms
        self.budget = budget or RetryBudget()
        self._rng = make_rng(derive_seed(seed, "retry", name))
        self.retries_total = 0

    def send(self, request: Request) -> "asyncio.Future[Response]":
        """Client surface: a future resolving with the (retried) answer."""
        return asyncio.ensure_future(self.request(request))

    async def flush(self) -> None:
        """Delegate to the wrapped client."""
        await self.inner.flush()

    async def request(self, request: Request) -> Response:
        """Send with retries under one absolute deadline."""
        registry = obs_runtime.metrics()
        recorder = obs_runtime.spans()
        if request.deadline_ms is None and self.deadline_budget_ms is not None:
            # the whole retry sequence shares this one deadline: retries
            # spend the remaining budget, they don't reset it
            request = dataclasses.replace(
                request, deadline_ms=deadline_ms_in(self.deadline_budget_ms)
            )
        with recorder.start_span(
            obs_names.XSPAN_RETRY,
            trace_context_from_wire(request.trace),
            op=request.op,
        ) as span:
            if span.context is not None:
                # downstream spans parent onto the retry scope, so all
                # attempts of one request stitch under one node
                request = dataclasses.replace(
                    request, trace=span.context.to_dict()
                )
            response = await self._request_with_retries(
                registry, span, request
            )
            span.annotate(status=response.status)
            return response

    async def _request_with_retries(
        self, registry, span, request: Request
    ) -> Response:
        self.budget.earn()
        prev_backoff_s = self.base_backoff_s
        attempts = 1
        response = await self.inner.request(request)
        for _ in range(self.max_attempts - 1):
            if response.status not in RETRYABLE_STATUSES:
                break
            if expired(request.deadline_ms):
                span.event("deadline_expired", attempts=attempts)
                break
            if not self.budget.try_spend():
                registry.counter(
                    obs_names.SERVE_RETRY_BUDGET_EXHAUSTED
                ).inc()
                span.event("retry_budget_exhausted", attempts=attempts)
                break
            backoff_s = decorrelated_jitter_s(
                prev_backoff_s, self.base_backoff_s, self.max_backoff_s,
                self._rng,
            )
            if response.retry_after_ms is not None:
                # the server's hint is a floor, not a replacement: jitter
                # still spreads the herd the hint would re-synchronize
                backoff_s = max(backoff_s, response.retry_after_ms / 1e3)
            prev_backoff_s = backoff_s
            await asyncio.sleep(backoff_s)
            self.retries_total += 1
            attempts += 1
            registry.counter(obs_names.SERVE_CLIENT_RETRIES).inc()
            span.event(
                "retry",
                attempt=attempts,
                after=response.status,
                backoff_ms=round(backoff_s * 1e3, 3),
                deadline_remaining_ms=(
                    None if request.deadline_ms is None
                    else round(remaining_s(request.deadline_ms) * 1e3, 3)
                ),
            )
            response = await self.inner.request(request)
        span.annotate(attempts=attempts)
        return response

    async def close(self) -> None:
        """Delegate to the wrapped client."""
        await self.inner.close()
