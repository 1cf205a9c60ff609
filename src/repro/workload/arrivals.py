"""Inter-arrival processes for IoT traffic sources.

All processes expose one method — ``next_interval(rng)`` — returning
the gap to the next arrival in seconds.  Keeping the RNG external means
one seeded generator per device reproduces its entire arrival stream.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.utils.validation import check_positive, check_probability


class ArrivalProcess(abc.ABC):
    """A stream of inter-arrival gaps."""

    @abc.abstractmethod
    def next_interval(self, rng: np.random.Generator) -> float:
        """Seconds until the next arrival."""

    @property
    @abc.abstractmethod
    def mean_rate_hz(self) -> float:
        """Long-run arrival rate (used to size experiment sweeps)."""


class PoissonProcess(ArrivalProcess):
    """Memoryless arrivals at ``rate_hz`` (exponential gaps)."""

    def __init__(self, rate_hz: float) -> None:
        self.rate_hz = check_positive(rate_hz, "rate_hz")

    def next_interval(self, rng: np.random.Generator) -> float:
        """Return next interval."""
        return float(rng.exponential(1.0 / self.rate_hz))

    @property
    def mean_rate_hz(self) -> float:
        """Return mean rate hz."""
        return self.rate_hz


class PeriodicProcess(ArrivalProcess):
    """Fixed-period sensor readings with optional uniform jitter.

    The gap is ``period * (1 ± jitter)``; ``jitter = 0`` is a strict
    clock, typical of polled industrial sensors.
    """

    def __init__(self, period_s: float, jitter: float = 0.0) -> None:
        self.period_s = check_positive(period_s, "period_s")
        self.jitter = check_probability(jitter, "jitter")

    def next_interval(self, rng: np.random.Generator) -> float:
        """Return next interval."""
        if self.jitter == 0.0:
            return self.period_s
        return float(self.period_s * (1.0 + self.jitter * (2.0 * rng.random() - 1.0)))

    @property
    def mean_rate_hz(self) -> float:
        """Return mean rate hz."""
        return 1.0 / self.period_s


class MMPPProcess(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (bursty traffic).

    The source alternates between a *calm* state with ``base_rate_hz``
    and a *burst* state with ``burst_rate_hz``; state sojourns are
    exponential with the given mean durations.  Models event-driven
    devices (cameras, anomaly detectors) whose load arrives in spikes.
    """

    def __init__(
        self,
        base_rate_hz: float,
        burst_rate_hz: float,
        mean_calm_s: float = 10.0,
        mean_burst_s: float = 2.0,
    ) -> None:
        self.base_rate_hz = check_positive(base_rate_hz, "base_rate_hz")
        self.burst_rate_hz = check_positive(burst_rate_hz, "burst_rate_hz")
        self.mean_calm_s = check_positive(mean_calm_s, "mean_calm_s")
        self.mean_burst_s = check_positive(mean_burst_s, "mean_burst_s")
        self._in_burst = False
        self._state_time_left = 0.0

    def next_interval(self, rng: np.random.Generator) -> float:
        # advance through state sojourns until an arrival lands inside one
        """Return next interval."""
        elapsed = 0.0
        while True:
            if self._state_time_left <= 0.0:
                self._in_burst = not self._in_burst
                mean = self.mean_burst_s if self._in_burst else self.mean_calm_s
                self._state_time_left = float(rng.exponential(mean))
            rate = self.burst_rate_hz if self._in_burst else self.base_rate_hz
            gap = float(rng.exponential(1.0 / rate))
            if gap <= self._state_time_left:
                self._state_time_left -= gap
                return elapsed + gap
            elapsed += self._state_time_left
            self._state_time_left = 0.0

    @property
    def mean_rate_hz(self) -> float:
        """Return mean rate hz."""
        calm_weight = self.mean_calm_s / (self.mean_calm_s + self.mean_burst_s)
        return calm_weight * self.base_rate_hz + (1.0 - calm_weight) * self.burst_rate_hz
