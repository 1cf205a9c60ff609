"""Tests for the solver registry."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.errors import SolverError
from repro.solvers.base import Solver
from repro.solvers.registry import available_solvers, get_solver, register_solver


class TestRegistry:
    def test_all_names_instantiate(self):
        for name in available_solvers():
            solver = get_solver(name)
            assert isinstance(solver, Solver)
            assert solver.name == name or name in ("tacc", "qlearning", "bandit", "reinforce")

    def test_rl_solvers_present(self):
        names = available_solvers()
        for rl in ("tacc", "qlearning", "bandit", "reinforce"):
            assert rl in names

    def test_every_registered_solver_backs_an_experiment(self):
        """A registry name no experiment runs is upkeep without a result:
        each must appear as a string literal in some experiment module."""
        literals = set()
        experiments = Path(repro.__file__).parent / "experiments"
        for module in experiments.rglob("*.py"):
            for node in ast.walk(ast.parse(module.read_text())):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    literals.add(node.value)
        unused = sorted(set(available_solvers()) - literals)
        assert not unused, f"registered but used by no experiment: {unused}"

    def test_kwargs_forwarded(self):
        solver = get_solver("tacc", episodes=12, seed=3)
        assert solver.episodes == 12
        assert solver.seed == 3

    def test_unknown_name_raises(self):
        with pytest.raises(SolverError, match="unknown solver"):
            get_solver("quantum_annealer")

    def test_register_custom_solver(self, small_problem):
        from repro.solvers.greedy import GreedyFeasibleSolver

        class MySolver(GreedyFeasibleSolver):
            name = "my_custom_solver_for_test"

        register_solver("my_custom_solver_for_test", MySolver)
        try:
            result = get_solver("my_custom_solver_for_test").solve(small_problem)
            assert result.feasible
        finally:
            from repro.solvers import registry

            registry._REGISTRY.pop("my_custom_solver_for_test")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SolverError):
            register_solver("greedy", lambda: None)

    def test_every_registered_solver_solves_small_instance(self, tiny_problem):
        """Integration sweep: the whole field solves a tiny instance and
        capacity-aware members return feasible assignments."""
        for name in available_solvers():
            kwargs = {}
            if name in ("tacc", "qlearning", "reinforce"):
                kwargs["episodes"] = 30
            if name == "bandit":
                kwargs["rounds"] = 30
            if name == "annealing":
                kwargs["steps"] = 1000
            if name == "genetic":
                kwargs = {"population": 8, "generations": 8}
            result = get_solver(name, seed=0, **kwargs).solve(tiny_problem)
            assert result.assignment.is_complete, name
            if name != "nearest":
                assert result.feasible, name
