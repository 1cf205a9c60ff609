"""RetryingClient and RetryBudget: bounded, budgeted, deadline-aware."""

from __future__ import annotations

import asyncio

from repro.serve.protocol import Request, Response
from repro.serve.retry import (
    RetryBudget,
    RetryingClient,
    decorrelated_jitter_s,
)
from repro.utils.rng import make_rng


def run(coro):
    return asyncio.run(coro)


class ScriptedClient:
    """An inner client answering from a fixed status script."""

    def __init__(self, statuses, retry_after_ms=None):
        self.statuses = list(statuses)
        self.retry_after_ms = retry_after_ms
        self.requests: "list[Request]" = []

    async def request(self, request: Request) -> Response:
        self.requests.append(request)
        status = self.statuses.pop(0) if self.statuses else "ok"
        return Response(
            id=request.id, status=status,
            retry_after_ms=self.retry_after_ms if status == "rejected"
            else None,
        )

    async def flush(self) -> None:
        pass

    async def close(self) -> None:
        pass


class TestDecorrelatedJitter:
    def test_draw_stays_in_the_envelope(self):
        rng = make_rng(7)
        prev = 0.01
        for _ in range(200):
            draw = decorrelated_jitter_s(prev, 0.01, 0.5, rng)
            assert 0.01 <= draw <= max(0.5, 3 * prev)
            assert draw <= 0.5
            prev = draw

    def test_cap_binds(self):
        class One:
            def random(self):
                return 1.0

        assert decorrelated_jitter_s(10.0, 0.01, 0.5, One()) == 0.5


class TestRetryBudget:
    def test_spend_denied_when_empty(self):
        budget = RetryBudget(initial=1.0, earn_per_request=0.0, cap=1.0)
        assert budget.try_spend()
        assert not budget.try_spend()
        assert budget.spent_total == 1
        assert budget.denied_total == 1

    def test_requests_earn_fractional_tokens_up_to_cap(self):
        budget = RetryBudget(initial=0.0, earn_per_request=0.5, cap=1.0)
        assert not budget.try_spend()
        budget.earn()
        budget.earn()
        budget.earn()  # capped: still exactly one token
        assert budget.tokens == 1.0
        assert budget.try_spend()
        assert not budget.try_spend()


class TestRetryingClient:
    def test_retries_until_ok(self):
        inner = ScriptedClient(["rejected", "timeout", "ok"])
        client = RetryingClient(inner, max_attempts=3,
                                base_backoff_s=1e-4, max_backoff_s=1e-3)
        response = run(client.request(Request(op="assign", device=0)))
        assert response.ok
        assert client.retries_total == 2
        assert len(inner.requests) == 3

    def test_terminal_statuses_are_not_retried(self):
        inner = ScriptedClient(["error"])
        client = RetryingClient(inner, max_attempts=3, base_backoff_s=1e-4)
        response = run(client.request(Request(op="assign", device=0)))
        assert response.status == "error"
        assert len(inner.requests) == 1

    def test_attempt_cap_binds(self):
        inner = ScriptedClient(["rejected"] * 10)
        client = RetryingClient(inner, max_attempts=3,
                                base_backoff_s=1e-4, max_backoff_s=1e-3)
        response = run(client.request(Request(op="assign", device=0)))
        assert response.status == "rejected"
        assert len(inner.requests) == 3

    def test_first_attempt_stamps_one_shared_deadline(self):
        inner = ScriptedClient(["rejected", "ok"])
        client = RetryingClient(inner, max_attempts=3, base_backoff_s=1e-4,
                                max_backoff_s=1e-3,
                                deadline_budget_ms=5_000.0)
        run(client.request(Request(op="assign", device=0)))
        deadlines = {r.deadline_ms for r in inner.requests}
        assert len(deadlines) == 1  # retries inherit, never re-stamp
        assert None not in deadlines

    def test_expired_deadline_stops_the_sequence(self):
        inner = ScriptedClient(["rejected"] * 5)
        client = RetryingClient(inner, max_attempts=5, base_backoff_s=1e-4)
        request = Request(op="assign", device=0, deadline_ms=0.001)
        response = run(client.request(request))
        assert response.status == "rejected"
        assert len(inner.requests) == 1  # no budget left: no retry

    def test_exhausted_budget_sheds_instead_of_retrying(self):
        inner = ScriptedClient(["timeout"] * 5)
        client = RetryingClient(
            inner, max_attempts=5, base_backoff_s=1e-4,
            budget=RetryBudget(initial=1.0, earn_per_request=0.0, cap=1.0),
        )
        response = run(client.request(Request(op="assign", device=0)))
        assert response.status == "timeout"
        assert len(inner.requests) == 2  # one retry, then the budget said no

    def test_server_retry_hint_floors_the_backoff(self):
        inner = ScriptedClient(["rejected", "ok"], retry_after_ms=30.0)
        client = RetryingClient(inner, max_attempts=2,
                                base_backoff_s=1e-4, max_backoff_s=1e-3)

        async def scenario():
            loop = asyncio.get_running_loop()
            started = loop.time()
            await client.request(Request(op="assign", device=0))
            return loop.time() - started

        assert run(scenario()) >= 0.03

    def test_seeded_backoff_is_reproducible(self):
        def draws(seed):
            client = RetryingClient(ScriptedClient([]), seed=seed,
                                    name="loadgen")
            rng = client._rng
            return [rng.random() for _ in range(5)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)
