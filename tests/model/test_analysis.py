"""Tests for instance difficulty diagnostics."""

from __future__ import annotations

import pytest

from repro.model.analysis import (
    capacity_pressure,
    classify_difficulty,
    delay_structure,
    difficulty_report,
    server_contention,
)
from repro.model.instances import gap_instance, random_instance
from repro.model.problem import AssignmentProblem


class TestCapacityPressure:
    def test_loose_instance_no_relaxed_overload(self):
        problem = random_instance(20, 4, tightness=0.3, seed=1)
        problem.capacity[:] = 1e9
        pressure = capacity_pressure(problem)
        assert pressure["relaxed_overload_fraction"] == 0.0
        assert pressure["relaxed_max_utilization"] < 1.0

    def test_hotspot_overloads_under_relaxation(self):
        # every device prefers server 0; capacity only fits half
        problem = AssignmentProblem(
            delay=[[1.0, 9.0]] * 10,
            demand=[10.0] * 10,
            capacity=[50.0, 200.0],
        )
        pressure = capacity_pressure(problem)
        assert pressure["relaxed_overload_fraction"] == 0.5
        assert pressure["relaxed_max_utilization"] == pytest.approx(2.0)

    def test_tightness_passthrough(self, small_problem):
        assert capacity_pressure(small_problem)["tightness"] == pytest.approx(
            small_problem.tightness
        )


class TestDelayStructure:
    def test_class_d_detected_as_anticorrelated(self):
        problem = gap_instance(100, 5, "d", seed=2)
        assert delay_structure(problem)["delay_demand_correlation"] < -0.5

    def test_uncorrelated_class_near_zero(self):
        problem = gap_instance(100, 5, "c", seed=2)
        assert abs(delay_structure(problem)["delay_demand_correlation"]) < 0.2

    def test_constant_delay_zero_regret(self):
        problem = AssignmentProblem(
            delay=[[2.0, 2.0]] * 4, demand=[1.0] * 4, capacity=[10.0, 10.0]
        )
        structure = delay_structure(problem)
        assert structure["normalized_regret"] == 0.0
        assert structure["delay_spread"] == pytest.approx(1.0)

    def test_single_server_handled(self):
        problem = AssignmentProblem(
            delay=[[1.0], [2.0]], demand=[1.0, 1.0], capacity=[10.0]
        )
        assert delay_structure(problem)["normalized_regret"] == 0.0


class TestServerContention:
    def test_single_hotspot(self):
        problem = AssignmentProblem(
            delay=[[1.0, 9.0]] * 8,
            demand=[1.0] * 8,
            capacity=[100.0, 100.0],
        )
        contention = server_contention(problem)
        assert contention["nearest_share_top"] == 1.0
        assert contention["nearest_servers_used"] == 0.5

    def test_spread_preferences(self):
        problem = random_instance(200, 4, seed=3)
        contention = server_contention(problem)
        assert contention["nearest_share_top"] < 0.5
        assert contention["nearest_servers_used"] == 1.0


class TestReportAndClassification:
    def test_report_contains_all_sections(self, small_problem):
        report = difficulty_report(small_problem)
        for key in (
            "tightness",
            "relaxed_overload_fraction",
            "delay_demand_correlation",
            "nearest_share_top",
        ):
            assert key in report

    def test_easy_classification(self):
        problem = random_instance(20, 4, tightness=0.3, seed=4)
        problem.capacity[:] = 1e9
        assert classify_difficulty(problem) == "easy"

    def test_hard_classification_for_class_d(self):
        for seed in range(5):
            problem = gap_instance(40, 5, "d", seed=seed)
            label = classify_difficulty(problem)
            if label == "hard":
                return
        pytest.fail("no class-d instance classified as hard")

    def test_moderate_between(self):
        # tight but uncorrelated: relaxation overloads, correlation ~0
        for seed in range(5):
            problem = gap_instance(40, 5, "c", seed=seed)
            if classify_difficulty(problem) == "moderate":
                return
        pytest.fail("no class-c instance classified as moderate")
