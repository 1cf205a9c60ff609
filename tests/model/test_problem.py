"""Tests for AssignmentProblem."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import SerializationError, ValidationError
from repro.model.instances import topology_instance
from repro.model.problem import AssignmentProblem
from repro.topology.delay import TransmissionDelayModel
from tests.strategies import small_problems


def simple_problem():
    return AssignmentProblem(
        delay=[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
        demand=[10.0, 20.0, 30.0],
        capacity=[40.0, 40.0],
    )


class TestConstruction:
    def test_shapes(self):
        problem = simple_problem()
        assert problem.n_devices == 3
        assert problem.n_servers == 2

    def test_1d_demand_broadcast(self):
        problem = simple_problem()
        assert problem.demand.shape == (3, 2)
        assert np.all(problem.demand[:, 0] == problem.demand[:, 1])

    def test_2d_demand_kept(self):
        problem = AssignmentProblem(
            delay=[[1.0, 2.0]], demand=[[5.0, 7.0]], capacity=[10.0, 10.0]
        )
        assert problem.demand[0, 0] == 5.0
        assert problem.demand[0, 1] == 7.0

    def test_wrong_demand_length_rejected(self):
        with pytest.raises(ValidationError):
            AssignmentProblem(delay=[[1.0]], demand=[1.0, 2.0], capacity=[1.0])

    def test_wrong_capacity_length_rejected(self):
        with pytest.raises(ValidationError):
            AssignmentProblem(delay=[[1.0, 2.0]], demand=[1.0], capacity=[1.0])

    def test_negative_delay_rejected(self):
        with pytest.raises(ValidationError):
            AssignmentProblem(delay=[[-1.0]], demand=[1.0], capacity=[1.0])

    def test_zero_demand_rejected(self):
        with pytest.raises(ValidationError):
            AssignmentProblem(delay=[[1.0]], demand=[0.0], capacity=[1.0])

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValidationError):
            AssignmentProblem(delay=[[1.0]], demand=[1.0], capacity=[0.0])

    def test_nan_delay_rejected(self):
        with pytest.raises(ValidationError):
            AssignmentProblem(delay=[[float("nan")]], demand=[1.0], capacity=[1.0])


class TestDerivedQuantities:
    def test_delay_lower_bound(self):
        problem = simple_problem()
        assert problem.delay_lower_bound() == pytest.approx(1.0 + 3.0 + 5.0)

    def test_tightness(self):
        problem = simple_problem()
        assert problem.tightness == pytest.approx(60.0 / 80.0)

    def test_normalized_delay_in_unit_interval(self):
        problem = simple_problem()
        norm = problem.normalized_delay()
        assert norm.min() == 0.0
        assert norm.max() == 1.0

    def test_normalized_delay_constant_matrix(self):
        problem = AssignmentProblem(
            delay=[[2.0, 2.0]], demand=[1.0], capacity=[5.0, 5.0]
        )
        assert np.all(problem.normalized_delay() == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(problem=small_problems())
    def test_property_lower_bound_below_any_assignment(self, problem):
        rng = np.random.default_rng(0)
        vector = rng.integers(problem.n_servers, size=problem.n_devices)
        cost = float(np.sum(problem.delay[np.arange(problem.n_devices), vector]))
        assert problem.delay_lower_bound() <= cost + 1e-12


class TestFailedServerMasking:
    def degraded(self):
        return AssignmentProblem(
            delay=[[1.0, 2.0, 9.0], [3.0, 1.0, 9.0], [5.0, 6.0, 9.0]],
            demand=[10.0, 20.0, 30.0],
            capacity=[90.0, 90.0, 90.0],
            failed_servers=frozenset({0}),
        )

    def test_lower_bound_ignores_failed_columns(self):
        # server 0 holds every row minimum; with it failed the bound
        # must come from the healthy columns only
        assert self.degraded().delay_lower_bound() == pytest.approx(
            2.0 + 1.0 + 6.0
        )

    def test_lower_bound_unchanged_without_failures(self):
        problem = simple_problem()
        assert problem.delay_lower_bound() == pytest.approx(1.0 + 3.0 + 5.0)

    def test_normalized_delay_stats_over_healthy_columns(self):
        norm = self.degraded().normalized_delay()
        healthy = norm[:, 1:]
        assert healthy.min() == 0.0
        assert healthy.max() == 1.0
        # failed columns pin to the worst normalized value, so a solver
        # reading the normalized matrix never prefers a dead server
        assert np.all(norm[:, 0] == 1.0)

    def test_normalized_delay_in_unit_interval_when_degraded(self):
        norm = self.degraded().normalized_delay()
        assert np.all(norm >= 0.0)
        assert np.all(norm <= 1.0)

    def test_healthy_mask(self):
        mask = self.degraded().healthy_mask()
        assert mask.tolist() == [False, True, True]

    def test_failed_capacity_reads_zero_in_a_copy(self):
        capacity = np.array([90.0, 90.0, 90.0])
        problem = AssignmentProblem(
            delay=np.ones((3, 3)),
            demand=[10.0, 20.0, 30.0],
            capacity=capacity,
            failed_servers=frozenset({0}),
        )
        assert problem.capacity.tolist() == [0.0, 90.0, 90.0]
        assert capacity.tolist() == [90.0, 90.0, 90.0]


class TestFromTopology:
    def test_matrix_matches_delay_model(self, topo_problem):
        model = TransmissionDelayModel()
        expected = model.matrix(
            topo_problem.graph,
            [d.node_id for d in topo_problem.devices],
            [s.node_id for s in topo_problem.servers],
        )
        assert np.allclose(topo_problem.delay, expected)

    def test_entities_aligned(self, topo_problem):
        assert len(topo_problem.devices) == topo_problem.n_devices
        assert len(topo_problem.servers) == topo_problem.n_servers

    def test_capacity_from_entities(self, topo_problem):
        for j, server in enumerate(topo_problem.servers):
            assert topo_problem.capacity[j] == pytest.approx(server.capacity)


class TestSerialization:
    def test_roundtrip(self):
        problem = simple_problem()
        clone = AssignmentProblem.from_json(problem.to_json())
        assert np.allclose(clone.delay, problem.delay)
        assert np.allclose(clone.demand, problem.demand)
        assert np.allclose(clone.capacity, problem.capacity)
        assert clone.name == problem.name

    def test_topology_instance_roundtrips_matrices(self):
        problem = topology_instance(n_routers=10, n_devices=6, n_servers=2, seed=1)
        clone = AssignmentProblem.from_json(problem.to_json())
        assert np.allclose(clone.delay, problem.delay)
        assert clone.graph is None  # the graph is not serialized

    def test_missing_field_raises(self):
        with pytest.raises(SerializationError):
            AssignmentProblem.from_dict({"delay": [[1.0]]})

    def test_objective_default_not_serialized(self):
        payload = simple_problem().to_dict()
        assert "objective" not in payload

    def test_objective_roundtrip(self):
        problem = AssignmentProblem(
            delay=[[1.0, 2.0]],
            demand=[1.0],
            capacity=[5.0, 5.0],
            objective="congestion",
        )
        clone = AssignmentProblem.from_json(problem.to_json())
        assert clone.objective == "congestion"

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValidationError):
            AssignmentProblem(
                delay=[[1.0]], demand=[1.0], capacity=[5.0], objective="latency"
            )

    def test_invalid_json_raises(self):
        with pytest.raises(SerializationError):
            AssignmentProblem.from_json("{not json")
