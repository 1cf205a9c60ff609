"""Degenerate and boundary instances swept across every solver.

These shapes — one device, one server, exact-fit capacities, fully
tied delays — are where index arithmetic and tie-breaking logic break
first; every registered solver must handle all of them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.model.problem import AssignmentProblem
from repro.solvers.registry import available_solvers, get_solver

#: cheap constructor overrides so the sweep stays fast
FAST_KWARGS = {
    "tacc": {"episodes": 15},
    "qlearning": {"episodes": 15},
    "sarsa": {"episodes": 15},
    "reinforce": {"episodes": 10},
    "bandit": {"rounds": 10},
    "annealing": {"steps": 300},
    "genetic": {"population": 8, "generations": 5},
    "lns": {"iterations": 20},
    "lagrangian": {"rounds": 20},
}


def make_solver(name):
    return get_solver(name, seed=0, **FAST_KWARGS.get(name, {}))


def single_device():
    return AssignmentProblem(delay=[[3.0, 1.0]], demand=[5.0], capacity=[10.0, 10.0])


def single_server():
    return AssignmentProblem(
        delay=[[1.0], [2.0], [3.0]], demand=[2.0, 2.0, 2.0], capacity=[10.0]
    )


def one_by_one():
    return AssignmentProblem(delay=[[4.0]], demand=[1.0], capacity=[2.0])


def all_tied():
    return AssignmentProblem(
        delay=[[5.0, 5.0, 5.0]] * 4, demand=[1.0] * 4, capacity=[10.0] * 3
    )


def exact_fit():
    """Only one feasible assignment exists: the perfect matching.

    Demands are server-dependent (GAP general form) so the crossed
    assignment physically does not fit — not merely costs more.
    """
    return AssignmentProblem(
        delay=[[1.0, 9.0], [9.0, 1.0]],
        demand=[[10.0, 99.0], [99.0, 10.0]],
        capacity=[10.0, 10.0],
    )


def failed_server_with_room():
    """Failed server 1 is everyone's nearest and still lists capacity;
    servers 0 and 2 each have room for all three devices."""
    return AssignmentProblem(
        delay=[[2.0, 1.0, 3.0]] * 3,
        demand=[1.0] * 3,
        capacity=[3.0, 3.0, 3.0],
        failed_servers=frozenset({1}),
    )


@pytest.mark.parametrize("name", sorted(available_solvers()))
class TestDegenerateSweep:
    def test_single_device_picks_min_delay(self, name):
        if name == "reinforce":
            # stochastic policy: needs enough episodes to certainly sample
            # both arms at least once
            solver = get_solver(name, seed=0, episodes=100)
        else:
            solver = make_solver(name)
        result = solver.solve(single_device())
        assert result.feasible
        assert result.assignment.server_of(0) == 1

    def test_single_server_all_assigned(self, name):
        result = make_solver(name).solve(single_server())
        assert result.feasible
        assert result.assignment.devices_on(0) == [0, 1, 2]

    def test_one_by_one(self, name):
        result = make_solver(name).solve(one_by_one())
        assert result.feasible
        assert result.objective_value == pytest.approx(4.0)

    def test_all_tied_delays(self, name):
        result = make_solver(name).solve(all_tied())
        assert result.feasible
        assert result.objective_value == pytest.approx(20.0)

    def test_exact_fit_forced_matching(self, name):
        result = make_solver(name).solve(exact_fit())
        if name == "nearest":
            # capacity-blind: happens to coincide with the matching here
            assert result.assignment.is_complete
            return
        assert result.feasible, name
        assert result.assignment.server_of(0) == 0
        assert result.assignment.server_of(1) == 1
        assert result.objective_value == pytest.approx(2.0)

    def test_failed_server_is_avoided(self, name):
        result = make_solver(name).solve(failed_server_with_room())
        if name == "nearest":
            # capacity-blind: takes the failed nearest server, which
            # validation then rejects
            assert not result.feasible
            return
        assert result.feasible, name
        assert result.assignment.devices_on(1) == []


class TestNumericalEdges:
    def test_very_small_delays(self):
        problem = AssignmentProblem(
            delay=np.full((5, 2), 1e-9),
            demand=[1.0] * 5,
            capacity=[10.0, 10.0],
        )
        result = get_solver("tacc", seed=0, episodes=10).solve(problem)
        assert result.feasible
        assert result.objective_value == pytest.approx(5e-9)

    def test_very_large_demands(self):
        problem = AssignmentProblem(
            delay=[[1.0, 2.0]] * 3,
            demand=[1e9] * 3,
            capacity=[2e9, 2e9],
        )
        result = get_solver("greedy").solve(problem)
        assert result.feasible

    def test_huge_delay_spread(self):
        problem = AssignmentProblem(
            delay=[[1e-6, 1e3], [1e3, 1e-6]],
            demand=[1.0, 1.0],
            capacity=[5.0, 5.0],
        )
        result = get_solver("branch_and_bound").solve(problem)
        assert result.objective_value == pytest.approx(2e-6)
