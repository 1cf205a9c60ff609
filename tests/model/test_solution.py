"""Tests for Assignment: feasibility, loads, objectives."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import InfeasibleSolutionError, SerializationError, ValidationError
from repro.model.problem import AssignmentProblem
from repro.model.solution import UNASSIGNED, Assignment
from tests.strategies import small_problems


@pytest.fixture
def problem():
    return AssignmentProblem(
        delay=[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
        demand=[10.0, 20.0, 30.0],
        capacity=[35.0, 45.0],
    )


class TestConstruction:
    def test_starts_unassigned(self, problem):
        assignment = Assignment(problem)
        assert not assignment.is_complete
        assert all(v == UNASSIGNED for v in assignment.vector)

    def test_explicit_vector(self, problem):
        assignment = Assignment(problem, [0, 1, 1])
        assert assignment.server_of(0) == 0
        assert assignment.server_of(2) == 1

    def test_vector_length_checked(self, problem):
        with pytest.raises(ValidationError):
            Assignment(problem, [0, 1])

    def test_out_of_range_server_rejected(self, problem):
        with pytest.raises(ValidationError):
            Assignment(problem, [0, 1, 2])

    def test_vector_is_copied_in_and_out(self, problem):
        source = np.array([0, 1, 1])
        assignment = Assignment(problem, source)
        source[0] = 1
        assert assignment.server_of(0) == 0
        out = assignment.vector
        out[0] = 1
        assert assignment.server_of(0) == 0


class TestMutation:
    def test_assign_and_unassign(self, problem):
        assignment = Assignment(problem)
        assignment.assign(0, 1)
        assert assignment.server_of(0) == 1
        assignment.unassign(0)
        assert assignment.server_of(0) == UNASSIGNED

    def test_assign_bounds_checked(self, problem):
        assignment = Assignment(problem)
        with pytest.raises(ValidationError):
            assignment.assign(5, 0)
        with pytest.raises(ValidationError):
            assignment.assign(0, 5)

    def test_copy_is_independent(self, problem):
        original = Assignment(problem, [0, 1, 1])
        clone = original.copy()
        clone.assign(0, 1)
        assert original.server_of(0) == 0


class TestLoadsAndFeasibility:
    def test_loads(self, problem):
        assignment = Assignment(problem, [0, 0, 1])
        loads = assignment.loads()
        assert loads[0] == pytest.approx(30.0)
        assert loads[1] == pytest.approx(30.0)

    def test_partial_loads_count_assigned_only(self, problem):
        assignment = Assignment(problem)
        assignment.assign(2, 1)
        assert assignment.loads()[1] == pytest.approx(30.0)
        assert assignment.loads()[0] == 0.0

    def test_feasible_case(self, problem):
        assignment = Assignment(problem, [0, 0, 1])
        assert assignment.is_feasible()
        assignment.validate()  # no raise

    def test_overload_detected(self, problem):
        assignment = Assignment(problem, [0, 1, 0])  # server0: 10+30=40 > 35
        assert not assignment.is_feasible()
        assert assignment.overloaded_servers() == [0]
        assert assignment.total_violation() == pytest.approx(5.0)

    def test_incomplete_is_infeasible(self, problem):
        assignment = Assignment(problem)
        assert not assignment.is_feasible()
        with pytest.raises(InfeasibleSolutionError, match="unassigned"):
            assignment.validate()

    def test_validate_reports_overload(self, problem):
        assignment = Assignment(problem, [0, 1, 0])
        with pytest.raises(InfeasibleSolutionError, match="overloaded"):
            assignment.validate()

    def test_utilization(self, problem):
        assignment = Assignment(problem, [0, 0, 1])
        util = assignment.utilization()
        assert util[0] == pytest.approx(30.0 / 35.0)
        assert util[1] == pytest.approx(30.0 / 45.0)

    def test_devices_on(self, problem):
        assignment = Assignment(problem, [0, 0, 1])
        assert assignment.devices_on(0) == [0, 1]
        assert assignment.devices_on(1) == [2]


class TestObjectives:
    def test_total_delay(self, problem):
        assignment = Assignment(problem, [0, 0, 1])
        assert assignment.total_delay() == pytest.approx(1.0 + 3.0 + 6.0)

    def test_mean_and_max_delay(self, problem):
        assignment = Assignment(problem, [1, 1, 1])
        assert assignment.mean_delay() == pytest.approx((2 + 4 + 6) / 3)
        assert assignment.max_delay() == pytest.approx(6.0)

    def test_partial_total_counts_assigned(self, problem):
        assignment = Assignment(problem)
        assignment.assign(0, 0)
        assert assignment.total_delay() == pytest.approx(1.0)

    def test_empty_mean_is_nan(self, problem):
        assert math.isnan(Assignment(problem).mean_delay())
        assert math.isnan(Assignment(problem).max_delay())

    def test_per_device_delay_nan_for_unassigned(self, problem):
        assignment = Assignment(problem)
        assignment.assign(1, 0)
        delays = assignment.per_device_delay()
        assert math.isnan(delays[0])
        assert delays[1] == pytest.approx(3.0)


class TestSerialization:
    def test_roundtrip(self, problem):
        assignment = Assignment(problem, [0, 1, 1])
        clone = Assignment.from_json(problem, assignment.to_json())
        assert clone == assignment

    def test_bad_json(self, problem):
        with pytest.raises(SerializationError):
            Assignment.from_json(problem, "nope")


class TestEquality:
    def test_equal_same_vector(self, problem):
        assert Assignment(problem, [0, 1, 1]) == Assignment(problem, [0, 1, 1])

    def test_unequal_different_vector(self, problem):
        assert Assignment(problem, [0, 1, 1]) != Assignment(problem, [1, 1, 1])


@settings(max_examples=30, deadline=None)
@given(data=small_problems())
def test_property_loads_equal_manual_sum(data):
    """loads() must agree with a straightforward per-server summation."""
    problem = data
    rng = np.random.default_rng(1)
    vector = rng.integers(problem.n_servers, size=problem.n_devices)
    assignment = Assignment(problem, vector)
    loads = assignment.loads()
    for server in range(problem.n_servers):
        manual = sum(
            problem.demand[i, server]
            for i in range(problem.n_devices)
            if vector[i] == server
        )
        assert loads[server] == pytest.approx(manual)


@settings(max_examples=30, deadline=None)
@given(data=small_problems())
def test_property_feasibility_consistent_with_violation(data):
    """is_feasible ⇔ complete and total_violation == 0."""
    problem = data
    rng = np.random.default_rng(2)
    vector = rng.integers(problem.n_servers, size=problem.n_devices)
    assignment = Assignment(problem, vector)
    assert assignment.is_feasible() == (
        assignment.is_complete and assignment.total_violation() <= 1e-9
    )
