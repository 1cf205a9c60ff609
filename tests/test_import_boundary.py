"""Import layering: the serving stack never loads the offline stack.

Every case runs in a fresh interpreter, because this process has
already imported everything.  See docs/architecture.md, "Import
layering".
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: what a serve, shard or router process imports
SERVING_STACK = (
    "repro.serve",
    "repro.shard",
    "repro.netem",
    "repro.wal",
    "repro.model.instances",
    "repro.serve.retry",
    "repro.serve.loadtest",
    "repro.shard.harness",
)

#: the offline stack, which a serving process must not load
OFFLINE = (
    "scipy",
    "repro.solvers",
    "repro.rl",
    "repro.sim",
    "repro.contention",
    "repro.engine",
    "repro.experiments",
)

#: packages whose re-exports resolve on first use
LAZY_PACKAGES = (
    "repro",
    "repro.cluster",
    "repro.solvers",
    "repro.rl",
    "repro.sim",
    "repro.faults",
    "repro.serve",
    "repro.shard",
)


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def loaded_after(modules: "tuple[str, ...]", watched: "tuple[str, ...]") -> "list[str]":
    """Which of ``watched`` (or their submodules) importing ``modules`` loads."""
    return run_fresh(f"""
        import sys
        for name in {list(modules)!r}:
            __import__(name)
        watched = {list(watched)!r}
        for name in sorted(sys.modules):
            if any(name == w or name.startswith(w + ".") for w in watched):
                print(name)
    """).split()


class TestServingStack:
    def test_serving_stack_loads_no_offline_module(self):
        assert loaded_after(SERVING_STACK, OFFLINE) == []

    def test_first_request_imports_nothing(self):
        # modules on the request path import at module level: the
        # first request (and the first re-optimization round, which
        # runs beside requests) must not pay for or stall on an import
        out = run_fresh("""
            import asyncio, sys
            import repro
            from repro.netem import NetemBackend, NetemEngine, NetemScript
            from repro.serve import AssignmentService, InProcessClient, Request
            from repro.serve import ServiceConfig
            from repro.shard import InProcessBackend, ShardRouter, build_plan

            async def main():
                problem = repro.topology_instance(
                    family="edge_hierarchy", n_routers=30, n_devices=20,
                    n_servers=4, tightness=0.7, seed=1,
                )
                plan = build_plan(problem, 2)
                engine = NetemEngine(NetemScript(seed=1))
                services, backends = [], {}
                for spec in plan.shards:
                    service = AssignmentService(plan.subproblem(problem, spec.name))
                    await service.start()
                    services.append(service)
                    backends[spec.name] = NetemBackend(
                        InProcessBackend(spec.name, service), engine)
                router = ShardRouter(plan, backends)
                await router.start()
                single = AssignmentService(
                    problem, ServiceConfig(reopt_interval_s=60.0))
                await single.start()
                before = set(sys.modules)
                assert (await router.request(Request(op="assign", device=0))).ok
                assert (await router.request(Request(op="release", device=0))).ok
                client = InProcessClient(single)
                for device in range(8):
                    assert (await client.request(
                        Request(op="assign", device=device))).ok
                await single.reoptimize_once()
                # the round's worker thread comes from asyncio's default
                # executor, whose stdlib modules load on its first use
                print(*sorted(
                    name for name in set(sys.modules) - before
                    if name.split(".")[0] in ("repro", "scipy")
                ))
                await router.stop()
                for service in services + [single]:
                    await service.stop()

            asyncio.run(main())
        """)
        assert out.split() == []


class TestOfflineStack:
    def test_plan_path_loads_no_scipy(self):
        modules = ("repro.model.instances", "repro.contention", "repro.solvers.registry")
        assert loaded_after(modules, ("scipy",)) == []

    def test_lp_rounding_loads_scipy_when_it_solves(self):
        out = run_fresh("""
            import sys
            from repro import get_solver, random_instance

            solver = get_solver("lp_rounding")
            print("scipy" in sys.modules)
            result = solver.solve(random_instance(8, 3, seed=1))
            print(result.feasible, "scipy" in sys.modules)
        """)
        assert out.split() == ["False", "True", "True"]

    @pytest.mark.parametrize("package", ["repro.workload", "repro.sim"])
    def test_workload_and_sim_import_alone(self, package):
        # repro.sim.device imports repro.workload, which must not import
        # repro.sim back: a cycle raises ImportError on a partially
        # initialised module, depending on which side is imported first
        run_fresh(f"import {package}; import repro.sim.runner")


class TestLazyExports:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_export_resolves(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None, f"{package}.{name}"
            assert name in dir(module), f"{package}.{name}"

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_names_raise_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError):
            module.no_such_export  # noqa: B018

    def test_resolved_value_is_the_submodule_object(self):
        import repro
        from repro.cluster import OnlineAssigner
        from repro.cluster.online import OnlineAssigner as direct
        from repro.solvers.registry import get_solver

        assert OnlineAssigner is direct
        assert repro.get_solver is get_solver
