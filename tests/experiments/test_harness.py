"""Tests for the experiment harness."""

from __future__ import annotations

import math
import time

import pytest

from repro.errors import ValidationError
from repro.experiments.harness import (
    ResultTable,
    normalized_cost,
    run_solver_field,
    run_sweep,
    sweep_seeds,
)


class TestResultTable:
    def make(self):
        table = ResultTable(["solver", "n", "cost"], title="demo")
        table.add_row(solver="a", n=10, cost=1.0)
        table.add_row(solver="a", n=10, cost=3.0)
        table.add_row(solver="b", n=10, cost=2.0)
        return table

    def test_add_row_checks_columns(self):
        table = ResultTable(["a"])
        with pytest.raises(ValidationError):
            table.add_row(b=1)
        with pytest.raises(ValidationError):
            table.add_row(a=1, b=2)

    def test_column_extraction(self):
        table = self.make()
        assert table.column("cost") == [1.0, 3.0, 2.0]

    def test_filtered(self):
        table = self.make()
        assert len(table.filtered(solver="a")) == 2
        assert len(table.filtered(solver="a", n=11)) == 0

    def test_aggregate_means(self):
        table = self.make()
        agg = table.aggregate(["solver"], ["cost"])
        row_a = agg.filtered(solver="a").rows[0]
        assert row_a["cost_mean"] == pytest.approx(2.0)
        assert row_a["cost_ci"] > 0
        row_b = agg.filtered(solver="b").rows[0]
        assert row_b["cost_ci"] == 0.0

    def test_aggregate_skips_nan(self):
        table = ResultTable(["solver", "cost"])
        table.add_row(solver="a", cost=1.0)
        table.add_row(solver="a", cost=math.nan)
        agg = table.aggregate(["solver"], ["cost"])
        assert agg.rows[0]["cost_mean"] == pytest.approx(1.0)

    def test_aggregate_all_nan_group_is_nan(self):
        table = ResultTable(["solver", "cost"])
        table.add_row(solver="a", cost=math.nan)
        agg = table.aggregate(["solver"], ["cost"])
        assert math.isnan(agg.rows[0]["cost_mean"])

    def test_aggregate_preserves_first_seen_order(self):
        table = self.make()
        agg = table.aggregate(["solver"], ["cost"])
        assert [r["solver"] for r in agg.rows] == ["a", "b"]

    def test_render_text_and_markdown(self):
        table = self.make()
        assert "demo" in table.to_text()
        assert table.to_markdown().startswith("| solver")

    def test_json_roundtrip(self, tmp_path):
        table = self.make()
        path = tmp_path / "table.json"
        table.save_json(path)
        loaded = ResultTable.load_json(path)
        assert loaded.columns == table.columns
        assert loaded.rows == table.rows
        assert loaded.title == "demo"

    def test_save_json_is_atomic(self, tmp_path):
        table = self.make()
        path = tmp_path / "table.json"
        table.save_json(path)
        table.save_json(path)  # overwrite in place
        assert ResultTable.load_json(path).rows == table.rows
        # no temp-file droppings next to the table
        assert [p.name for p in tmp_path.iterdir()] == ["table.json"]

    def test_aggregate_scales_linearly(self):
        """A few thousand rows group in one pass, order-stable."""
        table = ResultTable(["solver", "n", "cost"])
        groups = [(f"s{i % 40}", ((i // 40) % 25) * 10) for i in range(5000)]
        for index, (solver, n) in enumerate(groups):
            table.add_row(solver=solver, n=n, cost=float(index % 17))
        started = time.perf_counter()
        agg = table.aggregate(["solver", "n"], ["cost"])
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0  # the old per-key rescan took quadratic time
        assert len(agg) == 1000  # 40 solvers x 25 sizes
        # first-seen order: the first few groups come straight from row order
        seen_in_rows = list(dict.fromkeys(groups))
        assert [(r["solver"], r["n"]) for r in agg.rows] == seen_in_rows


class TestSweepSeeds:
    def test_distinct_and_reproducible(self):
        seeds = sweep_seeds(7, 5, "t1", "10x3")
        assert len(set(seeds)) == 5
        assert seeds == sweep_seeds(7, 5, "t1", "10x3")

    def test_labels_differentiate(self):
        assert sweep_seeds(7, 3, "a") != sweep_seeds(7, 3, "b")


class TestRunSolverField:
    def test_runs_all_named_solvers(self, small_problem):
        results = run_solver_field(small_problem, ["greedy", "random"], seed=1)
        assert set(results) == {"greedy", "random"}
        assert all(r.assignment.is_complete for r in results.values())

    def test_solver_kwargs_forwarded(self, small_problem):
        results = run_solver_field(
            small_problem,
            ["tacc"],
            seed=1,
            solver_kwargs={"tacc": {"episodes": 15}},
        )
        assert results["tacc"].iterations == 15

    def test_seeding_is_per_solver_deterministic(self, small_problem):
        a = run_solver_field(small_problem, ["random"], seed=5)
        b = run_solver_field(small_problem, ["random"], seed=5)
        assert a["random"].assignment == b["random"].assignment

    def test_caller_kwargs_never_mutated(self, small_problem):
        """The per-solver kwargs are deep-copied before seeding."""
        kwargs = {"tacc": {"episodes": 15}}
        run_solver_field(small_problem, ["tacc"], seed=1, solver_kwargs=kwargs)
        run_solver_field(small_problem, ["tacc"], seed=2, solver_kwargs=kwargs)
        assert kwargs == {"tacc": {"episodes": 15}}  # no injected "seed" key


class TestRunSweep:
    def make_specs(self, n=3):
        from repro.engine import JobSpec

        return [
            JobSpec(
                experiment="syn",
                fn="repro.engine.synthetic:cpu_cell",
                params={"iterations": 200, "cell": i},
                seed=i,
            )
            for i in range(n)
        ]

    def test_collects_rows_in_spec_order(self):
        table = run_sweep(self.make_specs(), ["cell", "seed", "value"], title="syn")
        assert table.title == "syn"
        assert table.column("cell") == [0, 1, 2]

    def test_engine_options_forwarded(self, tmp_path):
        from repro.engine import EngineOptions

        options = EngineOptions(jobs=2, cache_dir=tmp_path / "cache")
        first = run_sweep(self.make_specs(), ["cell", "seed", "value"], engine=options)
        again = EngineOptions(jobs=2, cache_dir=tmp_path / "cache")
        second = run_sweep(self.make_specs(), ["cell", "seed", "value"], engine=again)
        assert first.rows == second.rows
        assert again.last_report.cache.hits == 3


class TestNormalizedCost:
    def test_ratio(self, small_problem):
        result = run_solver_field(small_problem, ["greedy"], seed=1)["greedy"]
        assert normalized_cost(result, result.objective_value) == pytest.approx(1.0)

    def test_nan_for_infeasible_reference(self, small_problem):
        result = run_solver_field(small_problem, ["greedy"], seed=1)["greedy"]
        assert math.isnan(normalized_cost(result, 0.0))
