"""Tests for the constructive greedy family."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.model.instances import gap_instance, random_instance
from repro.solvers.greedy import (
    GreedyFeasibleSolver,
    NearestServerSolver,
    RandomFeasibleSolver,
    RegretGreedySolver,
    greedy_feasible_assignment,
    random_feasible_assignment,
)
from tests.strategies import small_problems

CAPACITY_AWARE = [
    GreedyFeasibleSolver,
    RegretGreedySolver,
    RandomFeasibleSolver,
]


class TestNearestServer:
    def test_achieves_relaxed_lower_bound(self, small_problem):
        result = NearestServerSolver().solve(small_problem)
        assert result.objective_value == pytest.approx(
            small_problem.delay_lower_bound()
        )

    def test_every_device_on_its_argmin(self, small_problem):
        result = NearestServerSolver().solve(small_problem)
        expected = np.argmin(small_problem.delay, axis=1)
        assert np.all(result.assignment.vector == expected)

    def test_overloads_on_correlated_tight_instance(self):
        """Class-d instances concentrate demand on low-delay servers; the
        capacity-blind rule must overload there (that is the strawman's
        purpose in F4)."""
        overload_seen = False
        for seed in range(10):
            problem = gap_instance(40, 5, "d", seed=seed)
            result = NearestServerSolver().solve(problem)
            if not result.feasible:
                overload_seen = True
                break
        assert overload_seen


@pytest.mark.parametrize("solver_cls", CAPACITY_AWARE)
class TestCapacityAwareFamily:
    def test_feasible_on_generated_instances(self, solver_cls):
        for seed in range(5):
            problem = random_instance(30, 5, tightness=0.85, seed=seed)
            result = solver_cls(seed=seed).solve(problem)
            assert result.feasible, f"{solver_cls.name} infeasible on seed {seed}"

    def test_no_server_ever_overloaded(self, solver_cls, tight_problem):
        result = solver_cls(seed=0).solve(tight_problem)
        assert result.assignment.overloaded_servers() == []

    def test_objective_at_least_lower_bound(self, solver_cls, small_problem):
        result = solver_cls(seed=0).solve(small_problem)
        assert result.objective_value >= small_problem.delay_lower_bound() - 1e-12


@pytest.mark.parametrize("prefer", ["best_fit", "worst_fit"])
class TestFallbackPackingModes:
    """The packing orientations ``feasible_start`` falls back to."""

    def test_feasible_on_generated_instances(self, prefer):
        for seed in range(5):
            problem = random_instance(30, 5, tightness=0.85, seed=seed)
            assignment = greedy_feasible_assignment(problem, prefer=prefer)
            assert assignment.is_feasible(), f"{prefer} infeasible on seed {seed}"

    def test_no_server_ever_overloaded(self, prefer, tight_problem):
        assignment = greedy_feasible_assignment(tight_problem, prefer=prefer)
        assert assignment.overloaded_servers() == []

    def test_objective_at_least_lower_bound(self, prefer, small_problem):
        assignment = greedy_feasible_assignment(small_problem, prefer=prefer)
        assert assignment.total_delay() >= small_problem.delay_lower_bound() - 1e-12


class TestOrderingQuality:
    def test_greedy_beats_random_on_average(self):
        greedy_wins = 0
        for seed in range(10):
            problem = random_instance(40, 5, tightness=0.8, seed=seed)
            greedy = GreedyFeasibleSolver().solve(problem).objective_value
            rand = RandomFeasibleSolver(seed=seed).solve(problem).objective_value
            if greedy < rand:
                greedy_wins += 1
        assert greedy_wins >= 8

    def test_regret_at_least_matches_greedy_on_class_d(self):
        regret_total, greedy_total = 0.0, 0.0
        for seed in range(8):
            problem = gap_instance(30, 5, "d", seed=seed)
            regret_total += RegretGreedySolver().solve(problem).objective_value
            greedy_total += GreedyFeasibleSolver().solve(problem).objective_value
        assert regret_total <= greedy_total * 1.02


class TestSharedHelpers:
    def test_greedy_helper_respects_explicit_order(self, small_problem):
        order = np.arange(small_problem.n_devices)
        assignment = greedy_feasible_assignment(small_problem, order=order)
        assert assignment.is_complete

    def test_greedy_helper_unknown_preference(self, small_problem):
        with pytest.raises(ValueError):
            greedy_feasible_assignment(small_problem, prefer="psychic")

    def test_random_helper_falls_back_to_greedy(self):
        """With zero random attempts allowed to succeed... hard to force;
        instead check the fallback path directly with attempts=0-like
        tight instance still yields a complete assignment."""
        problem = gap_instance(25, 3, "d", seed=1)
        rng = np.random.default_rng(0)
        assignment = random_feasible_assignment(problem, rng, attempts=1)
        assert assignment.is_complete

    @settings(max_examples=25, deadline=None)
    @given(problem=small_problems())
    def test_property_greedy_never_overloads(self, problem):
        assignment = greedy_feasible_assignment(problem)
        assert assignment.overloaded_servers() == []

    @settings(max_examples=25, deadline=None)
    @given(problem=small_problems())
    def test_property_random_feasible_never_overloads(self, problem):
        rng = np.random.default_rng(3)
        assignment = random_feasible_assignment(problem, rng)
        assert assignment.overloaded_servers() == []
