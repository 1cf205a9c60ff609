"""Config lookups plus micro-scale smoke runs of each experiment module.

The smoke tests patch each experiment's config to a single tiny cell so
the entire suite stays fast while still executing every experiment's
real code path end-to-end.
"""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.experiments import configs
from repro.experiments.configs import Scale, get_config


class TestConfigs:
    @pytest.mark.parametrize("experiment", sorted(configs._CONFIGS))
    @pytest.mark.parametrize("scale", ["quick", "full"])
    def test_every_cell_defined(self, experiment, scale):
        cfg = get_config(experiment, scale)
        assert cfg.repeats >= 1
        assert isinstance(cfg.params, dict)

    def test_unknown_experiment(self):
        with pytest.raises(ValidationError):
            get_config("t99", "quick")

    def test_unknown_scale(self):
        with pytest.raises(ValidationError):
            get_config("t1", "enormous")

    def test_full_scale_at_least_as_large(self):
        for experiment in configs._CONFIGS:
            quick = get_config(experiment, "quick")
            full = get_config(experiment, "full")
            assert full.repeats >= quick.repeats


@pytest.fixture
def micro(monkeypatch):
    """Shrink every experiment to a single micro cell."""
    micro_configs = {
        "t1": Scale(repeats=1, params={"sizes": [(6, 2)], "klasses": ["c"]},
                    solver_kwargs=_micro_kwargs()),
        "f2": Scale(repeats=1, params={"n_devices": [8], "n_servers": 2, "n_routers": 10},
                    solver_kwargs=_micro_kwargs()),
        "f3": Scale(repeats=1, params={"n_servers": [2], "n_devices": 8, "n_routers": 10},
                    solver_kwargs=_micro_kwargs()),
        "f4": Scale(repeats=1, params={"n_devices": 10, "n_servers": 2, "n_routers": 10,
                                       "tightness": 0.85}, solver_kwargs=_micro_kwargs()),
        "f5": Scale(repeats=1, params={"rate_scales": [1.0], "n_devices": 6,
                                       "n_servers": 2, "n_routers": 8,
                                       "duration_s": 3.0, "deadline_s": 0.05},
                    solver_kwargs=_micro_kwargs()),
        "f6": Scale(repeats=1, params={"episodes": 25, "n_devices": 8, "n_servers": 2,
                                       "n_routers": 10}),
        "t2": Scale(repeats=1, params={"sizes": [(8, 2)], "include_exact_upto": 8},
                    solver_kwargs=_micro_kwargs()),
        "f7": Scale(repeats=1, params={"families": ["grid"], "n_devices": 8,
                                       "n_servers": 2, "n_routers": 9},
                    solver_kwargs=_micro_kwargs()),
        "f8": Scale(repeats=1, params={"epochs": 2, "n_devices": 8, "n_servers": 2,
                                       "n_routers": 10}, solver_kwargs=_micro_kwargs()),
        "t3": Scale(repeats=1, params={"n_devices": 8, "n_servers": 2, "n_routers": 10,
                                       "tightness": 0.8, "episodes": 20}),
        "x1": Scale(repeats=1, params={"epochs": 3, "n_devices": 10, "n_servers": 2,
                                       "n_routers": 10, "tightness": 0.8,
                                       "join_prob": 0.2, "leave_prob": 0.1,
                                       "capacity_scale": 0.7},
                    solver_kwargs=_micro_kwargs()),
        "x2": Scale(repeats=1, params={"n_devices": 8, "n_servers": 2, "n_routers": 10,
                                       "tightness": 0.75},
                    solver_kwargs=_micro_kwargs()),
        "x3": Scale(repeats=1, params={"n_devices": 8, "n_servers": 2, "n_routers": 10,
                                       "tightness": 0.8},
                    solver_kwargs=_micro_kwargs()),
        "x4": Scale(repeats=1, params={"n_devices": 8, "n_servers": 2, "n_routers": 10,
                                       "tightness": 0.8,
                                       "jitter_sigmas": [0.0, 0.5],
                                       "probe_counts": [1, 3]},
                    solver_kwargs=_micro_kwargs()),
        "x5": Scale(repeats=1, params={"epochs": 3, "n_devices": 8, "n_servers": 2,
                                       "n_routers": 10, "tightness": 0.5,
                                       "fail_prob": 0.5, "repair_prob": 0.5},
                    solver_kwargs=_micro_kwargs()),
        "x6": Scale(repeats=1, params={"n_devices": 8, "n_servers": 2,
                                       "n_routers": 10, "tightness": 0.5,
                                       "duration_s": 4.0, "crash_frac": 0.4,
                                       "repair_frac": 0.8, "timeout_s": 0.25,
                                       "max_retries": 2, "window_s": 1.0}),
        "x7": Scale(repeats=1, params={"family": "edge_hierarchy",
                                       "n_routers": 10, "n_devices": 8,
                                       "n_servers": 2, "tightness": 0.8,
                                       "flow_scale": 500.0,
                                       "oversubscription_factors": [1.0, 8.0]}),
    }
    monkeypatch.setattr(configs, "_CONFIGS", {
        key: {"quick": value, "full": value} for key, value in micro_configs.items()
    })


def _micro_kwargs():
    return {
        "tacc": {"episodes": 15},
        "qlearning": {"episodes": 15},
        "reinforce": {"episodes": 10},
        "bandit": {"rounds": 10},
        "annealing": {"steps": 400},
        "genetic": {"population": 8, "generations": 6},
    }


@pytest.mark.parametrize(
    "module_name",
    [
        "t1_optimality",
        "f2_devices",
        "f3_servers",
        "f4_load",
        "f5_deadline",
        "f6_convergence",
        "t2_runtime",
        "f7_topology",
        "f8_dynamic",
        "t3_ablation",
        "x1_churn",
        "x2_placement",
        "x3_objective",
        "x4_noise",
        "x5_faults",
        "x6_chaos",
        "x7_contention",
    ],
)
def test_every_experiment_runs_end_to_end(micro, module_name):
    import importlib

    module = importlib.import_module(f"repro.experiments.{module_name}")
    table = module.run("quick", seed=0)
    assert len(table) > 0
    # every experiment must render without error
    assert module_name.split("_")[0].upper()[0] in table.to_text()[0].upper() or table.to_text()


class TestExperimentShapes:
    """Spot-checks of the qualitative claims on the micro cells."""

    def test_t1_random_worse_than_tacc(self, micro):
        from repro.experiments import t1_optimality

        table = t1_optimality.run("quick", seed=3)
        random_gap = table.filtered(solver="random").rows[0]["gap_pct_mean"]
        tacc_gap = table.filtered(solver="tacc").rows[0]["gap_pct_mean"]
        assert tacc_gap <= random_gap

    def test_f4_nearest_overloads_tacc_does_not(self, micro):
        from repro.experiments import f4_load

        table = f4_load.run("quick", seed=1)
        nearest = table.filtered(solver="nearest").rows[0]
        tacc = table.filtered(solver="tacc").rows[0]
        assert tacc["max_utilization_mean"] <= 1.0 + 1e-9
        assert nearest["max_utilization_mean"] >= tacc["max_utilization_mean"]
