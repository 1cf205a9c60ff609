"""Tests for the congestion-aware solver variants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.contention import ContentionConfig, ContentionModel, IncrementalEvaluator
from repro.contention.solvers import _greedy_construct
from repro.errors import ValidationError
from repro.model.instances import random_instance, topology_instance
from repro.solvers.greedy import random_feasible_assignment
from repro.solvers.local_search import descend
from repro.solvers.registry import available_solvers, get_solver
from tests.solvers.test_local_search import oracle_candidates

CONGESTION_SOLVERS = ("congestion_local_search",)


@pytest.fixture(scope="module")
def thin_problem():
    """Heavily oversubscribed hierarchy where funneling visibly hurts."""
    return topology_instance(
        family="edge_hierarchy",
        n_routers=25,
        n_devices=30,
        n_servers=3,
        tightness=0.8,
        seed=0,
        oversubscription=32.0,
    )


@pytest.fixture(scope="module")
def thin_model(thin_problem):
    return ContentionModel(thin_problem, ContentionConfig(flow_scale=500.0))


class TestRegistration:
    def test_all_variants_registered(self):
        names = available_solvers()
        for name in CONGESTION_SOLVERS:
            assert name in names

    def test_config_knob_validated(self):
        with pytest.raises(ValidationError):
            get_solver(
                "congestion_local_search",
                config=ContentionConfig(flow_scale=-1.0),
            )


@pytest.mark.parametrize("name", CONGESTION_SOLVERS)
class TestEveryVariant:
    def test_complete_and_feasible_on_topology(self, name, thin_problem):
        result = get_solver(name, seed=0).solve(thin_problem)
        assert result.assignment.is_complete
        assert result.feasible

    def test_matrix_only_fallback(self, name):
        problem = random_instance(12, 3, tightness=0.7, seed=9)
        result = get_solver(name, seed=0).solve(problem)
        assert result.assignment.is_complete
        assert result.feasible
        assert "fallback" in result.extra

    def test_reports_contention_cost(self, name, thin_problem, thin_model):
        result = get_solver(
            name, seed=0, config=thin_model.config
        ).solve(thin_problem)
        assert result.extra["contention_cost"] == pytest.approx(
            thin_model.total_cost(result.assignment.vector), rel=1e-9
        )


class TestSearchQuality:
    def test_local_search_descends_from_greedy(self, thin_problem, thin_model):
        start = _greedy_construct(thin_model, thin_problem).total_cost
        descended = get_solver(
            "congestion_local_search", seed=0, config=thin_model.config
        ).solve(thin_problem)
        assert descended.extra["contention_cost"] <= start + 1e-12

    def test_congestion_aware_drains_the_funnel(self, thin_problem, thin_model):
        """The crossover mechanism: delay-only funnels, congestion spreads."""
        baseline = get_solver("local_search", seed=0).solve(thin_problem)
        aware = get_solver(
            "congestion_local_search", seed=0, config=thin_model.config
        ).solve(thin_problem)
        base_util = thin_model.evaluate(baseline.assignment.vector).max_utilization
        aware_util = thin_model.evaluate(aware.assignment.vector).max_utilization
        assert aware_util < base_util

    def test_degraded_mode_avoids_failed_servers(self):
        import dataclasses

        # loose enough that the instance stays feasible with one server down
        problem = topology_instance(
            family="edge_hierarchy",
            n_routers=25,
            n_devices=20,
            n_servers=4,
            tightness=0.5,
            seed=2,
            oversubscription=8.0,
        )
        degraded = dataclasses.replace(problem, failed_servers=frozenset({0}))
        for name in CONGESTION_SOLVERS:
            result = get_solver(name, seed=0).solve(degraded)
            assert result.feasible, name
            assert not np.any(result.assignment.vector == 0), name


class TestDescentOnContention:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), use_swaps=st.booleans())
    def test_each_move_is_the_oracle_best(
        self, congested_problem, congested_model, seed, use_swaps
    ):
        """Pass by pass, the move the shared descent applies through the
        incremental evaluator is a best feasible neighbour under a full
        ``ContentionModel.total_cost`` recompute, to 1e-9."""
        problem, model = congested_problem, congested_model
        start = random_feasible_assignment(problem, np.random.default_rng(seed))
        assume(start.is_feasible())
        vector = start.vector
        for _ in range(50):
            before = model.total_cost(vector)
            deltas = [
                (model.total_cost(trial) - before, trial)
                for trial in oracle_candidates(problem, vector, use_swaps)
            ]
            best = min((delta for delta, _ in deltas), default=0.0)
            evaluator = IncrementalEvaluator(model, vector)
            _, moves = descend(problem, evaluator, 1, use_swaps)
            if moves == 0:
                assert best >= -1e-9
                return
            applied = [
                delta for delta, trial in deltas
                if np.array_equal(trial, evaluator.vector)
            ]
            assert len(applied) == 1
            assert applied[0] < 0
            assert applied[0] <= best + 1e-9
            vector = evaluator.vector
        pytest.fail("descent did not settle within 50 passes")
