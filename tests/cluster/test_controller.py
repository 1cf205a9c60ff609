"""Tests for the reconfiguration controller."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.controller import RECONFIGURE_STRATEGIES, ReconfigurationController
from repro.cluster.migration import MigrationPolicy
from repro.errors import ValidationError
from repro.model.instances import random_instance, topology_instance
from repro.model.solution import UNASSIGNED
from repro.solvers.greedy import GreedyFeasibleSolver
from repro.workload.mobility import RandomWaypointMobility


@pytest.fixture(scope="module")
def drift():
    """One base problem and a shared 5-epoch mobility trajectory."""
    base = topology_instance(
        n_routers=20, n_devices=15, n_servers=3, tightness=0.7, seed=66
    )
    mobility = RandomWaypointMobility(base, seed=4, move_fraction=0.8, speed=0.15)
    return base, list(mobility.epochs(5))


class TestControllerBasics:
    def test_initialize_solves(self, drift):
        base, _ = drift
        controller = ReconfigurationController(GreedyFeasibleSolver(), strategy="static")
        decision = controller.initialize(base)
        assert decision.feasible
        assert decision.reconfigured
        assert decision.epoch == 0

    def test_observe_before_initialize_rejected(self, drift):
        base, epochs = drift
        controller = ReconfigurationController(GreedyFeasibleSolver())
        with pytest.raises(ValidationError):
            controller.observe(1, epochs[0].problem)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValidationError):
            ReconfigurationController(GreedyFeasibleSolver(), strategy="vibes")

    @pytest.mark.parametrize("strategy", RECONFIGURE_STRATEGIES)
    def test_all_strategies_run_through_epochs(self, drift, strategy):
        base, epochs = drift
        controller = ReconfigurationController(GreedyFeasibleSolver(), strategy=strategy)
        controller.initialize(base)
        for epoch_state in epochs:
            decision = controller.observe(epoch_state.epoch, epoch_state.problem)
            assert decision.vector.shape == (base.n_devices,)


class TestStrategySemantics:
    def test_static_never_moves(self, drift):
        base, epochs = drift
        controller = ReconfigurationController(GreedyFeasibleSolver(), strategy="static")
        initial = controller.initialize(base).vector
        for epoch_state in epochs:
            decision = controller.observe(epoch_state.epoch, epoch_state.problem)
            assert not decision.reconfigured
            assert np.all(decision.vector == initial)
        assert controller.total_moves == 0

    def test_always_tracks_fresh_solution(self, drift):
        base, epochs = drift
        controller = ReconfigurationController(GreedyFeasibleSolver(), strategy="always")
        controller.initialize(base)
        fresh = GreedyFeasibleSolver().solve(epochs[0].problem)
        decision = controller.observe(1, epochs[0].problem)
        assert decision.cost == pytest.approx(fresh.assignment.total_delay())

    def test_always_never_worse_than_static_at_end(self, drift):
        base, epochs = drift
        static = ReconfigurationController(GreedyFeasibleSolver(), strategy="static")
        always = ReconfigurationController(GreedyFeasibleSolver(), strategy="always")
        static.initialize(base)
        always.initialize(base)
        for epoch_state in epochs:
            static_cost = static.observe(epoch_state.epoch, epoch_state.problem).cost
            always_cost = always.observe(epoch_state.epoch, epoch_state.problem).cost
        assert always_cost <= static_cost + 1e-12

    def test_hysteresis_moves_less_than_always(self, drift):
        base, epochs = drift
        always = ReconfigurationController(GreedyFeasibleSolver(), strategy="always")
        hysteresis = ReconfigurationController(
            GreedyFeasibleSolver(),
            strategy="hysteresis",
            policy=MigrationPolicy(hysteresis=0.10),
        )
        always.initialize(base)
        hysteresis.initialize(base)
        for epoch_state in epochs:
            always.observe(epoch_state.epoch, epoch_state.problem)
            hysteresis.observe(epoch_state.epoch, epoch_state.problem)
        assert hysteresis.total_moves <= always.total_moves

    def test_polish_improves_or_preserves_each_epoch(self, drift):
        base, epochs = drift
        controller = ReconfigurationController(GreedyFeasibleSolver(), strategy="polish")
        controller.initialize(base)
        from repro.model.solution import Assignment

        previous_vector = controller._vector.copy()
        for epoch_state in epochs:
            stale_cost = Assignment(epoch_state.problem, previous_vector).total_delay()
            decision = controller.observe(epoch_state.epoch, epoch_state.problem)
            assert decision.cost <= stale_cost + 1e-12
            previous_vector = decision.vector

    def test_polish_keeps_feasibility(self, drift):
        base, epochs = drift
        controller = ReconfigurationController(GreedyFeasibleSolver(), strategy="polish")
        controller.initialize(base)
        for epoch_state in epochs:
            decision = controller.observe(epoch_state.epoch, epoch_state.problem)
            assert decision.feasible

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_polish_brings_back_devices_shed_while_degraded(self, seed):
        """Two failed servers force shedding; once they heal, every
        server has room again, so the polish epoch serves everyone."""
        problem = random_instance(30, 4, tightness=0.85, seed=seed)
        controller = ReconfigurationController(GreedyFeasibleSolver(), strategy="polish")
        controller.initialize(problem)
        degraded = controller.observe(1, problem, failed={0, 1})
        assert degraded.shed > 0
        healed = controller.observe(2, problem)
        assert not np.any(healed.vector == UNASSIGNED)
        assert healed.feasible

    def test_reconfiguration_counter(self, drift):
        base, epochs = drift
        controller = ReconfigurationController(GreedyFeasibleSolver(), strategy="always")
        controller.initialize(base)
        for epoch_state in epochs:
            controller.observe(epoch_state.epoch, epoch_state.problem)
        # a fresh greedy solve on drifted delays virtually always moves someone
        assert controller.reconfigurations >= 1
