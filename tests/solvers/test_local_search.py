"""Tests for local search and its shift/swap move deltas."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.errors import ValidationError
from repro.model.instances import gap_instance, random_instance
from repro.solvers.greedy import GreedyFeasibleSolver, greedy_feasible_assignment
from repro.solvers.local_search import (
    LocalSearchSolver,
    _shift_delta,
    _swap_delta,
)
from tests.strategies import small_problems


class TestMoveDeltas:
    def test_shift_delta_matches_recomputation(self, small_problem):
        assignment = greedy_feasible_assignment(small_problem)
        vector = assignment.vector
        loads = assignment.loads()
        before = assignment.total_delay()
        for device in range(small_problem.n_devices):
            for server in range(small_problem.n_servers):
                delta = _shift_delta(small_problem, vector, loads, device, server)
                if delta is None:
                    continue
                trial = assignment.copy()
                trial.assign(device, server)
                assert trial.total_delay() - before == pytest.approx(delta)

    def test_shift_rejects_overloading_move(self):
        problem = random_instance(10, 2, tightness=0.9, seed=1)
        assignment = greedy_feasible_assignment(problem)
        vector = assignment.vector
        loads = assignment.loads()
        for device in range(problem.n_devices):
            for server in range(problem.n_servers):
                delta = _shift_delta(problem, vector, loads, device, server)
                if delta is not None:
                    new_load = loads[server] + problem.demand[device, server]
                    assert new_load <= problem.capacity[server] + 1e-9

    def test_swap_delta_matches_recomputation(self, small_problem):
        assignment = greedy_feasible_assignment(small_problem)
        vector = assignment.vector
        loads = assignment.loads()
        before = assignment.total_delay()
        pairs_checked = 0
        for a in range(small_problem.n_devices):
            for b in range(a + 1, small_problem.n_devices):
                delta = _swap_delta(small_problem, vector, loads, a, b)
                if delta is None:
                    continue
                trial = assignment.copy()
                sa, sb = trial.server_of(a), trial.server_of(b)
                trial.assign(a, sb)
                trial.assign(b, sa)
                assert trial.total_delay() - before == pytest.approx(delta)
                pairs_checked += 1
        assert pairs_checked > 0


class TestLocalSearch:
    def test_never_worse_than_greedy_start(self):
        for seed in range(5):
            problem = random_instance(30, 5, tightness=0.8, seed=seed)
            greedy = GreedyFeasibleSolver().solve(problem).objective_value
            local = LocalSearchSolver().solve(problem).objective_value
            assert local <= greedy + 1e-12

    def test_stays_feasible(self, tight_problem):
        result = LocalSearchSolver().solve(tight_problem)
        assert result.feasible

    def test_random_start_supported(self, small_problem):
        result = LocalSearchSolver(start="random", seed=3).solve(small_problem)
        assert result.feasible

    def test_unknown_start_rejected(self):
        with pytest.raises(ValidationError):
            LocalSearchSolver(start="warm")

    def test_swaps_help_on_tight_instances(self):
        """With capacities tight, shifts alone get stuck; swaps must let
        the search do at least as well."""
        with_swaps_total, without_total = 0.0, 0.0
        for seed in range(6):
            problem = gap_instance(25, 4, "c", seed=seed)
            with_swaps_total += LocalSearchSolver(use_swaps=True).solve(problem).objective_value
            without_total += LocalSearchSolver(use_swaps=False).solve(problem).objective_value
        assert with_swaps_total <= without_total + 1e-9

    def test_local_optimality_of_output(self, small_problem):
        """No single feasible shift can improve the returned solution."""
        result = LocalSearchSolver().solve(small_problem)
        vector = result.assignment.vector
        loads = result.assignment.loads()
        for device in range(small_problem.n_devices):
            for server in range(small_problem.n_servers):
                delta = _shift_delta(small_problem, vector, loads, device, server)
                if delta is not None:
                    assert delta >= -1e-12

    @settings(max_examples=20, deadline=None)
    @given(problem=small_problems())
    def test_property_feasible_and_improving(self, problem):
        result = LocalSearchSolver().solve(problem)
        assert result.feasible
        # improvement is only claimable against a *complete* greedy start;
        # a partial greedy's cost covers fewer devices and is incomparable
        greedy = greedy_feasible_assignment(problem)
        if greedy.is_complete:
            assert result.objective_value <= greedy.total_delay() + 1e-12
