"""Tests for the tabular Q-learning solver."""

from __future__ import annotations

import math

import pytest

from repro.errors import ValidationError
from repro.model.instances import gap_instance, random_instance
from repro.rl.qlearning import QLearningSolver
from repro.solvers.greedy import RandomFeasibleSolver


class TestQLearning:
    def test_feasible_output(self, small_problem):
        result = QLearningSolver(episodes=60, seed=1).solve(small_problem)
        assert result.feasible

    def test_feasible_on_tight_correlated(self, tight_problem):
        result = QLearningSolver(episodes=80, seed=2).solve(tight_problem)
        assert result.feasible

    def test_episode_curve_recorded(self, small_problem):
        result = QLearningSolver(episodes=40, seed=3).solve(small_problem)
        curve = result.extra["episode_costs"]
        assert len(curve) == 40

    def test_best_episode_is_min_of_curve(self, small_problem):
        result = QLearningSolver(episodes=60, seed=4).solve(small_problem)
        curve = [c for c in result.extra["episode_costs"] if not math.isnan(c)]
        assert result.objective_value == pytest.approx(min(curve))

    def test_more_episodes_never_hurt(self, small_problem):
        """Anytime property: the incumbent is monotone in budget (same seed
        means the short run's episodes are a prefix of the long run's)."""
        short = QLearningSolver(episodes=30, seed=5).solve(small_problem)
        long = QLearningSolver(episodes=150, seed=5).solve(small_problem)
        assert long.objective_value <= short.objective_value + 1e-12

    def test_beats_random_search_on_average(self):
        q_total, rand_total = 0.0, 0.0
        for seed in range(4):
            problem = random_instance(25, 4, tightness=0.8, seed=seed)
            q_total += QLearningSolver(episodes=120, seed=seed).solve(
                problem
            ).objective_value
            rand_total += RandomFeasibleSolver(seed=seed).solve(problem).objective_value
        assert q_total < rand_total

    def test_deterministic_given_seed(self, small_problem):
        a = QLearningSolver(episodes=40, seed=6).solve(small_problem)
        b = QLearningSolver(episodes=40, seed=6).solve(small_problem)
        assert a.assignment == b.assignment

    def test_q_table_size_reported(self, small_problem):
        result = QLearningSolver(episodes=40, seed=7).solve(small_problem)
        assert result.extra["q_states"] > 0

    def test_no_masking_variant_still_returns_complete(self):
        problem = gap_instance(15, 3, "c", seed=8)
        result = QLearningSolver(
            episodes=60, seed=8, mask_infeasible=False
        ).solve(problem)
        assert result.assignment.is_complete

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            QLearningSolver(episodes=0)
        with pytest.raises(ValidationError):
            QLearningSolver(alpha=0.0)
        with pytest.raises(ValidationError):
            QLearningSolver(gamma=1.5)

    @pytest.mark.parametrize("order", ["demand", "index", "random"])
    def test_device_order_variants_feasible(self, small_problem, order):
        result = QLearningSolver(
            episodes=30, seed=10, device_order=order
        ).solve(small_problem)
        assert result.feasible

    def test_unknown_device_order_rejected(self):
        with pytest.raises(ValidationError):
            QLearningSolver(device_order="alphabetical")

    def test_random_order_is_seed_stable(self, small_problem):
        a = QLearningSolver(episodes=20, seed=11, device_order="random").solve(
            small_problem
        )
        b = QLearningSolver(episodes=20, seed=11, device_order="random").solve(
            small_problem
        )
        assert a.assignment == b.assignment

    def test_dead_end_counter(self, small_problem):
        result = QLearningSolver(episodes=30, seed=9).solve(small_problem)
        assert result.extra["dead_ends"] >= 0
