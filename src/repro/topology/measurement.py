"""Delay-matrix estimation from noisy probes.

The optimization layer assumes the device-to-server delay matrix is
*known*; in a real deployment it is **measured** — a handful of
RTT probes per pair, each perturbed by queueing jitter.  This module
models that measurement plane:

* :class:`ProbeDelayEstimator` — multiplicative lognormal jitter per
  probe, averaged over ``probes`` samples per pair.  Lognormal keeps
  estimates positive and matches the right-skew of real RTT samples;
  with ``probes`` samples the estimator's relative error shrinks as
  ``sigma / sqrt(probes)``.
* :func:`noisy_problem` — a copy of an instance whose delay matrix is
  replaced by its estimate (demands/capacities untouched), which is
  what a controller would actually optimize over.

The X4 extension experiment solves on the estimate and scores on the
truth, quantifying how much measurement quality the paper's algorithm
needs.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.utils.rng import make_rng
from repro.utils.validation import check_nonnegative, require

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.model.problem import AssignmentProblem


class ProbeDelayEstimator:
    """Averages ``probes`` lognormally-jittered samples per pair."""

    def __init__(self, probes: int = 3, jitter_sigma: float = 0.3) -> None:
        require(probes >= 1, "probes must be >= 1")
        check_nonnegative(jitter_sigma, "jitter_sigma")
        self.probes = probes
        self.jitter_sigma = jitter_sigma

    def estimate(
        self,
        true_delay: np.ndarray,
        seed: "int | np.random.Generator | None" = None,
    ) -> np.ndarray:
        """Estimated delay matrix of the same shape as ``true_delay``.

        Each probe observes ``true * exp(N(mu, sigma))`` with ``mu``
        chosen so a single probe is *unbiased in expectation*
        (``mu = -sigma^2 / 2``); the estimate is the probe mean.
        ``sigma = 0`` returns the truth exactly.
        """
        matrix = np.asarray(true_delay, dtype=np.float64)
        if self.jitter_sigma == 0.0:
            return matrix.copy()
        rng = make_rng(seed)
        mu = -0.5 * self.jitter_sigma**2
        samples = rng.lognormal(
            mean=mu,
            sigma=self.jitter_sigma,
            size=(self.probes,) + matrix.shape,
        )
        return matrix * np.mean(samples, axis=0)

    def relative_error(
        self,
        true_delay: np.ndarray,
        seed: "int | np.random.Generator | None" = None,
    ) -> float:
        """Mean |estimate - truth| / truth of one estimation pass."""
        matrix = np.asarray(true_delay, dtype=np.float64)
        estimate = self.estimate(matrix, seed=seed)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.abs(estimate - matrix) / np.where(matrix > 0, matrix, np.nan)
        return float(np.nanmean(rel))


def noisy_problem(
    problem: "AssignmentProblem",
    probes: int = 3,
    jitter_sigma: float = 0.3,
    seed: "int | None" = None,
) -> "AssignmentProblem":
    """Copy of ``problem`` with delays replaced by their probe estimate.

    The copy deliberately drops the graph/entity backing: a controller
    working from measurements has matrices, not ground-truth topology.
    """
    # imported lazily: repro.model.problem itself imports repro.topology
    from repro.model.problem import AssignmentProblem

    estimator = ProbeDelayEstimator(probes=probes, jitter_sigma=jitter_sigma)
    return AssignmentProblem(
        delay=estimator.estimate(problem.delay, seed=seed),
        demand=problem.demand.copy(),
        capacity=problem.capacity.copy(),
        name=f"{problem.name}|probes={probes},sigma={jitter_sigma:g}",
    )
