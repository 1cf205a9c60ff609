"""Task-lifecycle policies: timeouts, bounded backoff, dispatch modes.

:class:`RetryPolicy` is the knob set of the chaos experiments: how long
a task may be in flight before its timeout event fires, how many times
it is re-sent, and how the backoff between attempts grows.  Two backoff
shapes are available:

* ``decorrelated`` (the default) — decorrelated jitter: each delay is
  drawn uniformly from ``[base, 3 × previous]`` and capped, so the next
  sleep depends on the previous *draw*, not the attempt number.
  Concurrent retriers spread out instead of re-synchronizing on the
  same exponential schedule — the herd behavior plain exponential
  backoff is known for;
* ``exponential`` — the legacy shape (compat flag: old traces replay
  bit-for-bit under it): ``base * multiplier**attempt`` with
  multiplicative jitter and a hard cap, constructed so two properties
  hold for *every* parameterization (the Hypothesis tests pin them
  down):

  * **bounded** — every delay is in ``[0, max_delay_s]``;
  * **monotone** — a later attempt never backs off for less than an
    earlier one, regardless of the jitter draws, because the
    constructor requires ``multiplier >= 1 + jitter``.

  (Decorrelated jitter is bounded too, but deliberately *not*
  monotone — forgetting the attempt number is what decorrelates.)

Dispatch modes (who handles a failed attempt):

* ``none`` — no second chances; a failed task is lost (the availability
  baseline);
* ``retry`` — re-send to the same server after backoff (helps against
  transient faults, useless while the server stays down);
* ``failover`` — re-dispatch to the cheapest *healthy* alternate server
  by static delay (restores goodput while the home server is down, at
  the price of a delay spike).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import decorrelated_jitter_s
from repro.utils.validation import check_nonnegative, check_positive, require

#: who handles a failed attempt
DISPATCH_MODES = ("none", "retry", "failover")

#: how the delay between attempts grows
BACKOFF_MODES = ("decorrelated", "exponential")


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout, retry budget and backoff shape for one simulation."""

    max_retries: int = 3
    timeout_s: "float | None" = 0.25
    base_delay_s: float = 0.01
    multiplier: float = 2.0
    max_delay_s: float = 1.0
    jitter: float = 0.5
    backoff: str = "decorrelated"

    def __post_init__(self) -> None:
        require(self.max_retries >= 0, "max_retries must be >= 0")
        if self.timeout_s is not None:
            check_positive(self.timeout_s, "timeout_s")
        check_positive(self.base_delay_s, "base_delay_s")
        check_positive(self.max_delay_s, "max_delay_s")
        require(self.base_delay_s <= self.max_delay_s,
                "base_delay_s must not exceed max_delay_s")
        check_nonnegative(self.jitter, "jitter")
        require(
            self.backoff in BACKOFF_MODES,
            f"unknown backoff mode {self.backoff!r}; known: {BACKOFF_MODES}",
        )
        if self.backoff == "exponential":
            require(
                self.multiplier >= 1.0 + self.jitter,
                "multiplier must be >= 1 + jitter (keeps backoff monotone "
                "in attempt number for every jitter draw)",
            )

    def should_retry(self, retries_done: int) -> bool:
        """Whether another attempt is allowed after ``retries_done`` retries."""
        return retries_done < self.max_retries

    def backoff_s(
        self,
        attempt: int,
        rng: np.random.Generator,
        prev_delay_s: "float | None" = None,
    ) -> float:
        """Delay before re-sending after failed attempt number ``attempt``.

        ``attempt`` counts failures so far (0 = first retry).

        ``decorrelated`` draws uniformly from ``[base, 3·prev]`` where
        ``prev`` is the previous delay actually drawn for this task
        (``prev_delay_s``; the base delay on the first retry) — the
        attempt number is deliberately ignored.  ``exponential`` grows
        the nominal delay as ``base * multiplier**attempt``, then
        multiplies by ``1 + jitter*U`` with ``U ~ Uniform[0, 1)``.
        Both shapes are clipped to ``max_delay_s``.
        """
        require(attempt >= 0, "attempt must be >= 0")
        if self.backoff == "exponential":
            nominal = self.base_delay_s * self.multiplier**attempt
            jittered = nominal * (1.0 + self.jitter * float(rng.random()))
            return min(self.max_delay_s, jittered)
        prev = self.base_delay_s if prev_delay_s is None else float(prev_delay_s)
        return decorrelated_jitter_s(prev, self.base_delay_s, self.max_delay_s, rng)
