"""Integration tests for the end-to-end simulation runner."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.model.solution import Assignment
from repro.sim.runner import simulate_assignment
from repro.solvers.greedy import GreedyFeasibleSolver, greedy_feasible_assignment
from repro.workload.arrivals import PeriodicProcess


@pytest.fixture(scope="module")
def solved(request):
    from repro.model.instances import topology_instance

    problem = topology_instance(
        n_routers=20, n_devices=15, n_servers=3, tightness=0.7, seed=42,
        deadline_s=0.05,
    )
    assignment = GreedyFeasibleSolver().solve(problem).assignment
    return problem, assignment


class TestSimulateAssignment:
    def test_conservation_all_tasks_complete_after_drain(self, solved):
        _, assignment = solved
        report = simulate_assignment(assignment, duration_s=10.0, seed=1, drain_s=30.0)
        assert report.tasks_created > 0
        assert report.tasks_completed == report.tasks_created

    def test_deterministic_given_seed(self, solved):
        _, assignment = solved
        a = simulate_assignment(assignment, duration_s=5.0, seed=2)
        b = simulate_assignment(assignment, duration_s=5.0, seed=2)
        assert a.tasks_created == b.tasks_created
        assert a.mean_network_latency_ms == pytest.approx(b.mean_network_latency_ms)

    def test_different_seed_differs(self, solved):
        _, assignment = solved
        a = simulate_assignment(assignment, duration_s=5.0, seed=3)
        b = simulate_assignment(assignment, duration_s=5.0, seed=4)
        assert a.tasks_created != b.tasks_created or (
            a.mean_network_latency_ms != b.mean_network_latency_ms
        )

    def test_measured_latency_close_to_static_at_low_load(self, solved):
        """At light load the measured mean network latency approaches the
        unloaded matrix prediction (within queueing + size noise)."""
        problem, assignment = solved
        report = simulate_assignment(
            assignment, duration_s=20.0, seed=5, rate_scale=0.25
        )
        static_mean_ms = assignment.mean_delay() * 1e3
        assert report.mean_network_latency_ms == pytest.approx(
            static_mean_ms, rel=0.5
        )

    def test_higher_load_raises_latency(self, solved):
        _, assignment = solved
        light = simulate_assignment(assignment, duration_s=15.0, seed=6, rate_scale=0.5)
        heavy = simulate_assignment(assignment, duration_s=15.0, seed=6, rate_scale=20.0)
        assert heavy.p99_total_latency_ms > light.p99_total_latency_ms

    def test_rate_scale_scales_task_count(self, solved):
        _, assignment = solved
        single = simulate_assignment(assignment, duration_s=15.0, seed=7, rate_scale=1.0)
        double = simulate_assignment(assignment, duration_s=15.0, seed=7, rate_scale=2.0)
        assert double.tasks_created == pytest.approx(2 * single.tasks_created, rel=0.25)

    def test_utilization_grows_with_load(self, solved):
        _, assignment = solved
        light = simulate_assignment(assignment, duration_s=15.0, seed=8, rate_scale=0.5)
        heavy = simulate_assignment(assignment, duration_s=15.0, seed=8, rate_scale=8.0)
        assert max(heavy.server_utilization) > max(light.server_utilization)

    def test_deadline_miss_rate_present_with_deadlines(self, solved):
        _, assignment = solved
        report = simulate_assignment(assignment, duration_s=10.0, seed=9)
        assert report.deadline_miss_rate is not None
        assert 0.0 <= report.deadline_miss_rate <= 1.0

    def test_arrival_override_respected(self, solved):
        problem, assignment = solved
        # one message per device per second, deterministic
        overrides = {
            d.device_id: PeriodicProcess(1.0) for d in problem.devices
        }
        report = simulate_assignment(
            assignment, duration_s=10.0, seed=10, arrivals=overrides
        )
        assert report.tasks_created == 10 * problem.n_devices

    def test_warmup_reduces_measured_sample(self, solved):
        _, assignment = solved
        full = simulate_assignment(assignment, duration_s=10.0, seed=12)
        trimmed = simulate_assignment(assignment, duration_s=10.0, seed=12, warmup_s=5.0)
        assert trimmed.total_latency.count < full.total_latency.count
        assert trimmed.tasks_created == full.tasks_created

    def test_warmup_must_be_shorter_than_duration(self, solved):
        _, assignment = solved
        with pytest.raises(ValidationError):
            simulate_assignment(assignment, duration_s=5.0, warmup_s=5.0)

    def test_partial_assignment_rejected(self, solved):
        problem, _ = solved
        with pytest.raises(ValidationError, match="partial"):
            simulate_assignment(Assignment(problem), duration_s=1.0)

    def test_matrix_only_problem_rejected(self, small_problem):
        assignment = greedy_feasible_assignment(small_problem)
        with pytest.raises(ValidationError, match="topology"):
            simulate_assignment(assignment, duration_s=1.0)

    def test_better_assignment_measures_lower_latency(self):
        """The core validation loop: static ordering carries over to the
        measured network latency."""
        from repro.model.instances import topology_instance
        from repro.solvers.greedy import RandomFeasibleSolver
        from repro.rl.agent import TaccSolver

        problem = topology_instance(
            n_routers=25, n_devices=20, n_servers=4, tightness=0.7, seed=77
        )
        good = TaccSolver(episodes=100, seed=1).solve(problem)
        bad = RandomFeasibleSolver(seed=1).solve(problem)
        assert good.objective_value < bad.objective_value
        good_report = simulate_assignment(good.assignment, duration_s=20.0, seed=2)
        bad_report = simulate_assignment(bad.assignment, duration_s=20.0, seed=2)
        assert good_report.mean_network_latency_ms < bad_report.mean_network_latency_ms
