"""Global contracts every registered solver must satisfy.

Individual solver tests check algorithm-specific behaviour; these
sweeps enforce the *library-wide* promises documented in
docs/architecture.md across the whole registry at once, so a newly
registered solver cannot quietly break them.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.model.instances import topology_instance
from repro.solvers.registry import available_solvers, get_solver

FAST_KWARGS = {
    "tacc": {"episodes": 20},
    "qlearning": {"episodes": 20},
    "sarsa": {"episodes": 20},
    "reinforce": {"episodes": 12},
    "bandit": {"rounds": 12},
    "annealing": {"steps": 500},
    "genetic": {"population": 8, "generations": 6},
    "lns": {"iterations": 25},
    "lagrangian": {"rounds": 25},
}


def make(name, seed=0):
    return get_solver(name, seed=seed, **FAST_KWARGS.get(name, {}))


@pytest.fixture(scope="module")
def contract_problem():
    return topology_instance(
        n_routers=20, n_devices=15, n_servers=3, tightness=0.7, seed=31_337
    )


@pytest.mark.parametrize("name", sorted(available_solvers()))
class TestSolverContracts:
    def test_deterministic_under_seed(self, name, contract_problem):
        """Same (problem, seed) => identical assignment, for every solver."""
        first = make(name, seed=5).solve(contract_problem)
        second = make(name, seed=5).solve(contract_problem)
        assert first.assignment == second.assignment
        assert first.objective_value == pytest.approx(second.objective_value)

    def test_result_invariants(self, name, contract_problem):
        """objective finite iff complete; runtime and iterations sane."""
        result = make(name).solve(contract_problem)
        assert result.runtime_s >= 0.0
        assert result.iterations >= 0
        if result.assignment.is_complete:
            assert math.isfinite(result.objective_value)
        else:
            assert result.objective_value == math.inf
        if result.lower_bound is not None and result.feasible:
            assert result.lower_bound <= result.objective_value + 1e-9

    def test_objective_matches_assignment(self, name, contract_problem):
        """The reported value is the assignment's actual objective."""
        result = make(name).solve(contract_problem)
        if result.assignment.is_complete:
            assert result.objective_value == pytest.approx(
                result.assignment.total_delay()
            )

    def test_problem_not_mutated(self, name, contract_problem):
        """Solvers must treat the instance as read-only."""
        delay = contract_problem.delay.copy()
        demand = contract_problem.demand.copy()
        capacity = contract_problem.capacity.copy()
        make(name).solve(contract_problem)
        assert np.array_equal(contract_problem.delay, delay)
        assert np.array_equal(contract_problem.demand, demand)
        assert np.array_equal(contract_problem.capacity, capacity)

    def test_feasibility_flag_consistent(self, name, contract_problem):
        """result.feasible agrees with the assignment's own check."""
        result = make(name).solve(contract_problem)
        assert result.feasible == result.assignment.is_feasible()
