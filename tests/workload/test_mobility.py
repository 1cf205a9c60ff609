"""Tests for the mobility model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.model.instances import random_instance, topology_instance
from repro.workload.mobility import RandomWaypointMobility


@pytest.fixture
def mobile_problem():
    return topology_instance(
        n_routers=20, n_devices=15, n_servers=3, tightness=0.7, seed=55
    )


class TestRandomWaypointMobility:
    def test_requires_topology_backed_problem(self):
        with pytest.raises(ValidationError, match="topology"):
            RandomWaypointMobility(random_instance(5, 2, seed=1))

    def test_epoch_refreshes_delay_matrix(self, mobile_problem):
        mobility = RandomWaypointMobility(mobile_problem, seed=1, move_fraction=1.0)
        epoch = mobility.step(1)
        assert epoch.problem.delay.shape == mobile_problem.delay.shape
        assert not np.allclose(epoch.problem.delay, mobile_problem.delay)

    def test_demand_and_capacity_preserved(self, mobile_problem):
        mobility = RandomWaypointMobility(mobile_problem, seed=2)
        epoch = mobility.step(1)
        assert np.allclose(epoch.problem.demand, mobile_problem.demand)
        assert np.allclose(epoch.problem.capacity, mobile_problem.capacity)

    def test_graph_stays_valid_across_epochs(self, mobile_problem):
        mobility = RandomWaypointMobility(mobile_problem, seed=3, move_fraction=0.8)
        for epoch in mobility.epochs(6):
            graph = epoch.problem.graph
            assert graph.is_connected()
            # every device has exactly one gateway
            for device in epoch.problem.devices:
                assert graph.degree(device.node_id) == 1

    def test_move_fraction_respected(self, mobile_problem):
        mobility = RandomWaypointMobility(mobile_problem, seed=4, move_fraction=0.2)
        epoch = mobility.step(1)
        expected = max(1, round(0.2 * mobile_problem.n_devices))
        assert len(epoch.moved_devices) == expected

    def test_reattachments_subset_of_moved(self, mobile_problem):
        mobility = RandomWaypointMobility(mobile_problem, seed=5, move_fraction=1.0, speed=0.3)
        epoch = mobility.step(1)
        assert set(epoch.reattached_devices) <= set(epoch.moved_devices)

    def test_deterministic(self, mobile_problem):
        a = RandomWaypointMobility(mobile_problem, seed=6).step(1)
        b = RandomWaypointMobility(mobile_problem, seed=6).step(1)
        assert np.allclose(a.problem.delay, b.problem.delay)
        assert a.moved_devices == b.moved_devices

    def test_positions_drift_toward_waypoints(self, mobile_problem):
        mobility = RandomWaypointMobility(
            mobile_problem, seed=7, move_fraction=1.0, speed=0.05
        )
        device = mobile_problem.devices[0]
        before = mobility._graph.node(device.node_id).position
        mobility.step(1)
        after = mobility._graph.node(device.node_id).position
        moved = np.hypot(after[0] - before[0], after[1] - before[1])
        assert moved == pytest.approx(0.05, abs=0.051)  # capped by waypoint snap

    def test_original_problem_untouched(self, mobile_problem):
        original = mobile_problem.delay.copy()
        mobility = RandomWaypointMobility(mobile_problem, seed=8, move_fraction=1.0)
        mobility.step(1)
        assert np.allclose(mobile_problem.delay, original)

    def test_epochs_iterator_counts(self, mobile_problem):
        mobility = RandomWaypointMobility(mobile_problem, seed=9)
        epochs = list(mobility.epochs(4))
        assert [e.epoch for e in epochs] == [1, 2, 3, 4]
