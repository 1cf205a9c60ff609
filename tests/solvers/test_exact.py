"""Tests for the exact solvers — including the B&B-vs-brute-force oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.errors import ValidationError
from repro.model.instances import gap_instance, random_instance
from repro.model.problem import AssignmentProblem
from repro.solvers.exact import BranchAndBoundSolver, BruteForceSolver
from repro.solvers.greedy import GreedyFeasibleSolver
from tests.strategies import small_problems


class TestBruteForce:
    def test_finds_known_optimum(self):
        # two devices, two servers, capacity forces the split
        problem = AssignmentProblem(
            delay=[[1.0, 5.0], [1.0, 5.0]],
            demand=[10.0, 10.0],
            capacity=[10.0, 10.0],
        )
        result = BruteForceSolver().solve(problem)
        assert result.feasible
        assert result.objective_value == pytest.approx(6.0)

    def test_proves_infeasibility(self):
        problem = AssignmentProblem(
            delay=[[1.0], [1.0]],
            demand=[10.0, 10.0],
            capacity=[15.0],
        )
        result = BruteForceSolver().solve(problem)
        assert not result.feasible
        assert result.extra.get("proved_infeasible")

    def test_refuses_oversized_state_space(self):
        problem = random_instance(40, 5, seed=1)
        with pytest.raises(ValidationError, match="max_nodes"):
            BruteForceSolver().solve(problem)

    def test_optimal_flag_set(self, tiny_problem):
        result = BruteForceSolver().solve(tiny_problem)
        assert result.extra["optimal"] is True


class TestBranchAndBound:
    def test_matches_brute_force_small(self, tiny_problem):
        exact = BruteForceSolver().solve(tiny_problem)
        bnb = BranchAndBoundSolver().solve(tiny_problem)
        assert bnb.objective_value == pytest.approx(exact.objective_value)
        assert bnb.extra["optimal"]

    def test_never_worse_than_greedy(self):
        for seed in range(5):
            problem = random_instance(15, 4, tightness=0.85, seed=seed)
            greedy = GreedyFeasibleSolver().solve(problem)
            bnb = BranchAndBoundSolver().solve(problem)
            assert bnb.objective_value <= greedy.objective_value + 1e-12

    def test_respects_capacity(self, tight_problem):
        result = BranchAndBoundSolver().solve(tight_problem)
        assert result.feasible
        result.assignment.validate()

    def test_lower_bound_attached_and_valid(self, tiny_problem):
        result = BranchAndBoundSolver().solve(tiny_problem)
        assert result.lower_bound is not None
        assert result.lower_bound <= result.objective_value + 1e-12

    def test_node_budget_degrades_to_anytime(self):
        problem = gap_instance(25, 5, "c", seed=3)
        result = BranchAndBoundSolver(node_budget=50).solve(problem)
        # greedy incumbent is still returned even if the search is cut
        assert result.assignment.is_complete
        assert not result.extra["optimal"]

    def test_proves_infeasibility(self):
        problem = AssignmentProblem(
            delay=[[1.0], [1.0]],
            demand=[10.0, 10.0],
            capacity=[15.0],
        )
        result = BranchAndBoundSolver().solve(problem)
        assert not result.feasible
        assert result.extra.get("proved_infeasible")

    def test_solves_class_d(self):
        problem = gap_instance(10, 4, "d", seed=5)
        brute = BruteForceSolver().solve(problem)
        bnb = BranchAndBoundSolver().solve(problem)
        assert bnb.objective_value == pytest.approx(brute.objective_value)

    @settings(max_examples=25, deadline=None)
    @given(problem=small_problems(max_devices=7, max_servers=3))
    def test_property_equals_brute_force(self, problem):
        """THE oracle property: B&B with pruning must equal exhaustive
        search on every feasible instance."""
        brute = BruteForceSolver().solve(problem)
        bnb = BranchAndBoundSolver().solve(problem)
        assert bnb.extra["optimal"]
        assert brute.feasible == bnb.feasible
        if brute.feasible:
            assert bnb.objective_value == pytest.approx(brute.objective_value)

    @settings(max_examples=15, deadline=None)
    @given(problem=small_problems(max_devices=7, max_servers=3))
    def test_property_optimum_dominates_heuristics(self, problem):
        bnb = BranchAndBoundSolver().solve(problem)
        greedy = GreedyFeasibleSolver().solve(problem)
        if bnb.feasible and greedy.feasible:
            assert bnb.objective_value <= greedy.objective_value + 1e-12
