"""Tests for local search, the shared descent and its delay evaluator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.model.instances import gap_instance, random_instance
from repro.model.problem import AssignmentProblem
from repro.model.solution import Assignment
from repro.solvers.greedy import (
    GreedyFeasibleSolver,
    greedy_feasible_assignment,
    random_feasible_assignment,
)
from repro.solvers.local_search import DelayEvaluator, LocalSearchSolver, descend
from tests.strategies import small_problems


class _RecordingEvaluator(DelayEvaluator):
    """Delay evaluator that records the loads every priced shift sees."""

    def __init__(self, problem, vector):
        super().__init__(problem, vector)
        self.problem = problem
        self.priced = []

    def shift_delta(self, device, server):
        loads = Assignment(self.problem, self.vector.copy()).loads()
        self.priced.append((device, server, loads[server]))
        return super().shift_delta(device, server)


def oracle_candidates(problem, vector, use_swaps=True):
    """Every feasible neighbour of ``vector``: shifts device-major, then
    swaps over pairs ``a < b``, in the order the descent scans them."""
    n, m = problem.n_devices, problem.n_servers
    candidates = []
    for device in range(n):
        for server in range(m):
            if server != vector[device]:
                trial = vector.copy()
                trial[device] = server
                candidates.append(trial)
    if use_swaps:
        for a in range(n):
            for b in range(a + 1, n):
                if vector[a] != vector[b]:
                    trial = vector.copy()
                    trial[a], trial[b] = vector[b], vector[a]
                    candidates.append(trial)
    return [
        trial for trial in candidates
        if np.all(Assignment(problem, trial).loads() <= problem.capacity + 1e-12)
    ]


def _oracle_move(problem, vector, use_swaps):
    """First strictly best feasible neighbour by full recompute."""
    before = Assignment(problem, vector).total_delay()
    best_delta, best = -1e-15, None
    for trial in oracle_candidates(problem, vector, use_swaps):
        delta = Assignment(problem, trial).total_delay() - before
        if delta < best_delta:
            best_delta, best = delta, trial
    return best


@st.composite
def integer_starts(draw):
    """A small problem with integer delays, so every delta is exact,
    and a random feasible start far from any local optimum."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    delay = rng.integers(0, 20, size=(n, m)).astype(float)
    demand = rng.integers(1, 6, size=(n, m)).astype(float)
    capacity = np.full(m, float(np.ceil(demand.max(axis=1).sum() / m)) + 2.0)
    problem = AssignmentProblem(delay=delay, demand=demand, capacity=capacity)
    return problem, random_feasible_assignment(problem, rng)


class TestMoveDeltas:
    def test_shift_delta_matches_recomputation(self, small_problem):
        assignment = greedy_feasible_assignment(small_problem)
        evaluator = DelayEvaluator(small_problem, assignment.vector)
        before = assignment.total_delay()
        for device in range(small_problem.n_devices):
            for server in range(small_problem.n_servers):
                delta = evaluator.shift_delta(device, server)
                trial = assignment.copy()
                trial.assign(device, server)
                assert trial.total_delay() - before == pytest.approx(delta)

    def test_shift_rejects_overloading_move(self):
        """Descent only prices shifts that keep the target within capacity."""
        problem = random_instance(10, 3, tightness=0.8, seed=1)
        evaluator = _RecordingEvaluator(
            problem, greedy_feasible_assignment(problem).vector
        )
        passes, _ = descend(problem, evaluator, max_passes=50)
        # some shifts fit and some are turned away
        assert 0 < len(evaluator.priced) < passes * 10 * 2
        for device, server, load in evaluator.priced:
            new_load = load + problem.demand[device, server]
            assert new_load <= problem.capacity[server] + 1e-9

    def test_swap_delta_matches_recomputation(self, small_problem):
        assignment = greedy_feasible_assignment(small_problem)
        evaluator = DelayEvaluator(small_problem, assignment.vector)
        before = assignment.total_delay()
        pairs_checked = 0
        for a in range(small_problem.n_devices):
            for b in range(a + 1, small_problem.n_devices):
                trial = assignment.copy()
                sa, sb = trial.server_of(a), trial.server_of(b)
                if sa == sb:
                    continue
                delta = evaluator.swap_delta(a, b)
                trial.assign(a, sb)
                trial.assign(b, sa)
                assert trial.total_delay() - before == pytest.approx(delta)
                pairs_checked += 1
        assert pairs_checked > 0


class TestDescend:
    @settings(max_examples=60, deadline=None)
    @given(case=integer_starts(), use_swaps=st.booleans())
    def test_each_move_is_the_oracle_best(self, case, use_swaps):
        """Pass by pass, the applied move is the first strictly best
        feasible shift, then swap, found by recomputing the total."""
        problem, start = case
        assume(start.is_feasible())
        vector = start.vector
        while True:
            expected = _oracle_move(problem, vector, use_swaps)
            evaluator = DelayEvaluator(problem, vector)
            passes, moves = descend(problem, evaluator, 1, use_swaps)
            assert passes == 1
            if expected is None:
                assert moves == 0
                assert np.array_equal(evaluator.vector, vector)
                break
            assert moves == 1
            assert np.array_equal(evaluator.vector, expected)
            vector = evaluator.vector

    def test_counts_passes_and_moves(self, small_problem):
        start = random_feasible_assignment(small_problem, np.random.default_rng(0))
        evaluator = DelayEvaluator(small_problem, start.vector)
        passes, moves = descend(small_problem, evaluator, max_passes=200)
        # one move per pass, then one final pass that finds none
        assert moves > 0
        assert passes == moves + 1
        capped = DelayEvaluator(small_problem, start.vector)
        assert descend(small_problem, capped, max_passes=2) == (2, 2)

    def test_requires_a_complete_vector(self, small_problem):
        vector = greedy_feasible_assignment(small_problem).vector
        vector[0] = -1
        with pytest.raises(ValidationError, match="complete"):
            descend(small_problem, DelayEvaluator(small_problem, vector), 5)

    def test_failed_server_is_never_a_target(self):
        """A failed server keeps no capacity, so no move lands on it even
        when its delay column is the best and its capacity was positive."""
        problem = AssignmentProblem(
            delay=[[5.0, 0.0, 6.0], [6.0, 0.0, 5.0], [5.0, 0.0, 5.0]],
            demand=np.ones((3, 3)),
            capacity=[3.0, 3.0, 3.0],
            failed_servers=frozenset({1}),
        )
        evaluator = DelayEvaluator(problem, [2, 0, 0])
        descend(problem, evaluator, max_passes=10)
        assert list(evaluator.vector) == [0, 2, 0]


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
        loads = result.assignment.loads()
        evaluator = DelayEvaluator(small_problem, result.assignment.vector)
        for device in range(small_problem.n_devices):
            for server in range(small_problem.n_servers):
                if server == evaluator.vector[device]:
                    continue
                new_load = loads[server] + small_problem.demand[device, server]
                if new_load <= small_problem.capacity[server] + 1e-12:
                    assert evaluator.shift_delta(device, server) >= -1e-12

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
