"""Tests for the bottleneck (min-max delay) solver."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.cluster.faults import degraded_problem
from repro.model.instances import random_instance
from repro.model.problem import AssignmentProblem
from repro.solvers.bottleneck import BottleneckSolver, _restricted
from repro.solvers.greedy import GreedyFeasibleSolver
from tests.strategies import small_problems


class TestRestricted:
    def test_blocked_pairs_cannot_fit(self, small_problem):
        threshold = float(np.median(small_problem.delay))
        restricted = _restricted(small_problem, threshold)
        blocked = small_problem.delay > threshold + 1e-15
        assert np.all(restricted.demand[blocked] > np.max(small_problem.capacity))
        assert np.all(restricted.demand[~blocked] == small_problem.demand[~blocked])

    def test_delay_matrix_unchanged(self, small_problem):
        restricted = _restricted(small_problem, 0.005)
        assert np.allclose(restricted.delay, small_problem.delay)


class TestBottleneckSolver:
    def test_feasible_output(self, small_problem):
        result = BottleneckSolver().solve(small_problem)
        assert result.feasible

    def test_feasible_on_tight_correlated(self, tight_problem):
        result = BottleneckSolver().solve(tight_problem)
        assert result.feasible

    def test_max_delay_equals_reported_threshold(self, small_problem):
        result = BottleneckSolver().solve(small_problem)
        assert result.assignment.max_delay() <= result.extra["bottleneck_s"] + 1e-12

    def test_never_worse_max_delay_than_greedy(self):
        for seed in range(6):
            problem = random_instance(25, 4, tightness=0.8, seed=seed)
            bottleneck = BottleneckSolver().solve(problem)
            greedy = GreedyFeasibleSolver().solve(problem)
            assert (
                bottleneck.assignment.max_delay()
                <= greedy.assignment.max_delay() + 1e-12
            )

    def test_threshold_is_a_matrix_entry(self, small_problem):
        result = BottleneckSolver().solve(small_problem)
        assert np.any(np.isclose(small_problem.delay, result.extra["bottleneck_s"]))

    def test_deterministic(self, small_problem):
        a = BottleneckSolver().solve(small_problem)
        b = BottleneckSolver().solve(small_problem)
        assert a.assignment == b.assignment

    def test_solves_degraded_problem(self):
        problem = degraded_problem(random_instance(20, 4, tightness=0.5, seed=1), {0})
        result = BottleneckSolver().solve(problem)
        assert result.feasible
        assert not np.any(result.assignment.vector == 0)

    def test_polish_zero_passes_still_feasible(self, small_problem):
        result = BottleneckSolver(polish_passes=0).solve(small_problem)
        assert result.feasible

    def test_matches_exact_bottleneck_on_trivial_instance(self):
        """On a loose instance the optimal bottleneck is each device's own
        min... no — with no capacity pressure every device takes its argmin,
        so the bottleneck is the max of row minima."""
        problem = random_instance(10, 3, tightness=0.3, seed=3)
        problem.capacity[:] = 1e9
        result = BottleneckSolver().solve(problem)
        expected = float(np.max(np.min(problem.delay, axis=1)))
        assert result.extra["bottleneck_s"] == pytest.approx(expected)

    @settings(max_examples=15, deadline=None)
    @given(problem=small_problems(max_devices=6, max_servers=3))
    def test_property_upper_bounds_true_bottleneck(self, problem):
        """The heuristic threshold is >= the exhaustive min-max optimum
        (FFD feasibility is one-sided) and the output is feasible."""
        result = BottleneckSolver().solve(problem)
        if not result.feasible:
            return
        optimum = _exhaustive_bottleneck(problem)
        assert optimum is not None  # solver found something, so one exists
        assert result.extra["bottleneck_s"] >= optimum - 1e-12
        assert result.assignment.max_delay() >= optimum - 1e-12


def _exhaustive_bottleneck(problem: AssignmentProblem) -> "float | None":
    """Exact min-max delay over all feasible assignments (tiny N only)."""
    import itertools

    best = None
    for vector in itertools.product(range(problem.n_servers),
                                    repeat=problem.n_devices):
        loads = np.zeros(problem.n_servers)
        for device, server in enumerate(vector):
            loads[server] += problem.demand[device, server]
        if np.any(loads > problem.capacity + 1e-12):
            continue
        worst = max(
            problem.delay[device, server] for device, server in enumerate(vector)
        )
        if best is None or worst < best:
            best = worst
    return best
