"""Implementations of the CLI subcommands.

Each handler takes the parsed ``argparse.Namespace`` and returns an
exit code.  Handlers print human-readable tables; machine-readable
output goes to the ``--output``/``--json`` paths.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import repro
from repro import obs
from repro.experiments.report import render_report
from repro.model.instances import gap_instance, random_instance, topology_instance
from repro.model.problem import AssignmentProblem
from repro.solvers.registry import available_solvers, get_solver
from repro.topology.generators import TOPOLOGY_FAMILIES
from repro.topology.placement import PLACEMENT_STRATEGIES
from repro.utils.rng import derive_seed
from repro.utils.tables import format_table


def _engine_options(args):
    """EngineOptions from the --jobs/--cache-dir/--no-cache/--profile flags.

    Returns ``None`` when the flags ask for the historical behavior
    (one in-process worker, no cache, no profiling) so those
    invocations skip the engine report line entirely.
    """
    jobs = getattr(args, "jobs", 1)
    cache_dir = getattr(args, "cache_dir", None)
    no_cache = getattr(args, "no_cache", False)
    profile = getattr(args, "profile", False)
    if jobs == 1 and (cache_dir is None or no_cache) and not profile:
        return None
    from repro.engine import EngineOptions

    return EngineOptions(
        jobs=jobs, cache_dir=cache_dir, no_cache=no_cache, profile=profile
    )


def _print_engine_report(engine) -> None:
    """Echo the engine summary (and profile, if collected) to stderr."""
    if engine is not None:
        from repro.engine import print_profile, print_report

        print_report(engine)
        print_profile(engine)


def _rl_kwargs(args) -> dict:
    """Optional solver overrides available on the command line."""
    kwargs = {}
    episodes = getattr(args, "episodes", None)
    if episodes is not None:
        kwargs["episodes"] = episodes
    return kwargs


def cmd_generate(args) -> int:
    """Build an instance and write its matrix form to JSON."""
    if args.kind == "topology":
        problem = topology_instance(
            family=args.family,
            n_routers=args.routers,
            n_devices=args.devices,
            n_servers=args.servers,
            tightness=args.tightness,
            placement=args.placement,
            seed=args.seed,
            deadline_s=args.deadline,
        )
    elif args.kind == "random":
        problem = random_instance(
            args.devices, args.servers, tightness=args.tightness, seed=args.seed
        )
    else:
        problem = gap_instance(
            args.devices, args.servers, klass=args.gap_class, seed=args.seed
        )
    Path(args.output).write_text(problem.to_json(), encoding="utf-8")
    print(
        f"wrote {problem.name}: {problem.n_devices} devices x "
        f"{problem.n_servers} servers (tightness {problem.tightness:.2f}) "
        f"to {args.output}"
    )
    if args.kind == "topology":
        print(
            "note: the JSON carries the matrix form only; `repro simulate` "
            "rebuilds topology instances from parameters instead"
        )
    return 0


def _load_problem(path: str) -> AssignmentProblem:
    return AssignmentProblem.from_json(Path(path).read_text(encoding="utf-8"))


def cmd_solve(args) -> int:
    """Solve one instance file and report the outcome."""
    problem = _load_problem(args.instance)
    solver = get_solver(args.solver, seed=args.seed, **_rl_kwargs(args))
    result = solver.solve(problem)
    print(
        format_table(
            ["solver", "total delay (ms)", "max delay (ms)", "max utilization",
             "feasible", "runtime (s)"],
            [[
                result.solver,
                result.objective_value * 1e3,
                result.assignment.max_delay() * 1e3,
                float(result.assignment.utilization().max()),
                result.feasible,
                result.runtime_s,
            ]],
        )
    )
    if args.output:
        Path(args.output).write_text(result.assignment.to_json(), encoding="utf-8")
        print(f"assignment written to {args.output}")
    return 0 if result.feasible else 2


def compare_cell(params: dict, seed: int) -> list[dict]:
    """One solver on one serialized instance — the ``compare`` engine cell."""
    problem = AssignmentProblem.from_json(params["instance_json"])
    solver = get_solver(params["solver"], seed=seed)
    result = solver.solve(problem)
    return [
        {
            "solver": params["solver"],
            "total_delay_ms": float(result.objective_value * 1e3),
            "feasible": bool(result.feasible),
            "runtime_s": float(result.runtime_s),
        }
    ]


def cmd_compare(args) -> int:
    """Run several solvers on one instance and print the comparison."""
    from repro.engine import JobSpec, run_jobs

    instance_json = Path(args.instance).read_text(encoding="utf-8")
    names = [name.strip() for name in args.solvers.split(",") if name.strip()]
    unknown = sorted(set(names) - set(available_solvers()))
    if unknown:
        print(f"error: unknown solvers {unknown}")
        return 1
    engine = _engine_options(args)
    specs = [
        JobSpec(
            experiment="compare",
            fn="repro.cli.commands:compare_cell",
            params={"solver": name, "instance_json": instance_json},
            seed=derive_seed(args.seed, name),
            label=f"compare {name}",
        )
        for name in names
    ]
    rows = [
        [cell["solver"], cell["total_delay_ms"], cell["feasible"], cell["runtime_s"]]
        for job_rows in run_jobs(specs, engine)
        for cell in job_rows
    ]
    rows.sort(key=lambda r: r[1])
    print(format_table(["solver", "total delay (ms)", "feasible", "runtime (s)"], rows))
    _print_engine_report(engine)
    return 0


def cmd_simulate(args) -> int:
    """Build a topology instance, solve it, replay it in the DES."""
    problem = topology_instance(
        family=args.family,
        n_routers=args.routers,
        n_devices=args.devices,
        n_servers=args.servers,
        tightness=args.tightness,
        seed=args.seed,
        deadline_s=args.deadline,
    )
    solver = get_solver(args.solver, seed=derive_seed(args.seed, "solver"))
    result = solver.solve(problem)
    if not result.assignment.is_complete:
        print("error: solver produced a partial assignment; nothing to simulate")
        return 2
    faults_path = getattr(args, "faults", None)
    if faults_path:
        from repro.faults import FaultScenario, RetryPolicy, simulate_with_faults

        scenario = FaultScenario.load(faults_path)
        report = simulate_with_faults(
            result.assignment,
            scenario,
            duration_s=args.duration,
            seed=derive_seed(args.seed, "sim"),
            mode=args.dispatch,
            policy=RetryPolicy(
                max_retries=args.max_retries, timeout_s=args.task_timeout
            ),
            rate_scale=args.rate_scale,
            window_s=max(1.0, args.duration / 20),
        )
    else:
        report = repro.simulate_assignment(
            result.assignment,
            duration_s=args.duration,
            seed=derive_seed(args.seed, "sim"),
            rate_scale=args.rate_scale,
        )
    rows = [
        ["solver", args.solver],
        ["static total delay (ms)", result.objective_value * 1e3],
        ["tasks completed", report.tasks_completed],
        ["mean network latency (ms)", report.mean_network_latency_ms],
        ["p99 end-to-end latency (ms)", report.p99_total_latency_ms],
        ["deadline miss rate", report.deadline_miss_rate
         if report.deadline_miss_rate is not None else "n/a"],
        ["max server utilization", max(report.server_utilization)],
    ]
    if faults_path:
        rows += [
            ["fault scenario", scenario.name],
            ["dispatch policy", args.dispatch],
            ["tasks lost", report.tasks_lost],
            ["timeouts / retries / failovers",
             f"{report.timeouts} / {report.retries} / {report.failovers}"],
            ["goodput", f"{report.goodput:.4f}"],
        ]
    print(format_table(["metric", "value"], rows))
    if faults_path and report.goodput_timeline:
        worst = min(report.goodput_timeline, key=lambda wg: wg[1])
        print(
            f"worst goodput window: {worst[1]:.3f} starting at t={worst[0]:.0f}s "
            f"({len(report.goodput_timeline)} windows)"
        )
    return 0


#: experiment short name -> module name
_EXPERIMENT_MODULES = {
    "t1": "t1_optimality",
    "f2": "f2_devices",
    "f3": "f3_servers",
    "f4": "f4_load",
    "f5": "f5_deadline",
    "f6": "f6_convergence",
    "t2": "t2_runtime",
    "f7": "f7_topology",
    "f8": "f8_dynamic",
    "t3": "t3_ablation",
    "x1": "x1_churn",
    "x2": "x2_placement",
    "x3": "x3_objective",
    "x4": "x4_noise",
    "x5": "x5_faults",
    "x6": "x6_chaos",
    "x7": "x7_contention",
}


def cmd_experiment(args) -> int:
    """Run one paper experiment and print its table."""
    module = importlib.import_module(
        f"repro.experiments.{_EXPERIMENT_MODULES[args.name]}"
    )
    engine = _engine_options(args)
    table = module.run(args.scale, seed=args.seed, engine=engine)
    print(table.to_text())
    _print_engine_report(engine)
    if args.json:
        table.save_json(args.json)
        print(f"\ndata written to {args.json}")
    return 0


def cmd_report(args) -> int:
    """Render EXPERIMENTS.md from benchmark results."""
    body = render_report(args.results, scale_note=args.note)
    Path(args.output).write_text(body, encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


def cmd_contention(args) -> int:
    """Per-link utilization report: delay-only vs congestion-aware."""
    from repro.contention import ContentionConfig, ContentionModel

    problem = topology_instance(
        family=args.family,
        n_routers=args.routers,
        n_devices=args.devices,
        n_servers=args.servers,
        tightness=args.tightness,
        seed=args.seed,
        oversubscription=args.oversubscription,
    )
    config = ContentionConfig(flow_scale=args.flow_scale)
    model = ContentionModel(problem, config)
    names = [args.baseline, args.solver]
    payload = {"instance": problem.name,
               "oversubscription": args.oversubscription,
               "configurations": {}}
    summary_rows = []
    for name in names:
        kwargs = {"seed": derive_seed(args.seed, "solve", name)}
        if name.startswith("congestion_"):
            kwargs["config"] = config
        result = get_solver(name, **kwargs).solve(problem)
        evaluation = model.evaluate(result.assignment.vector)
        summary_rows.append([
            name,
            f"{evaluation.p99_effective_delay * 1e3:.3f}",
            f"{evaluation.mean_effective_delay * 1e3:.3f}",
            f"{evaluation.max_utilization:.3f}",
            evaluation.saturated_links,
            "yes" if result.feasible else "NO",
        ])
        bottlenecks = model.bottleneck_links(
            result.assignment.vector, top=args.top
        )
        payload["configurations"][name] = {
            "p99_effective_delay_s": evaluation.p99_effective_delay,
            "mean_effective_delay_s": evaluation.mean_effective_delay,
            "max_utilization": evaluation.max_utilization,
            "saturated_links": evaluation.saturated_links,
            "bottlenecks": bottlenecks,
        }
        print(f"\n{name}: top {len(bottlenecks)} bottleneck links")
        print(format_table(
            ["link", "bandwidth (Mbit/s)", "load (Mbit/s)", "utilization",
             "flows"],
            [[
                f"({row['u']}, {row['v']})",
                f"{row['bandwidth_bps'] / 1e6:.1f}",
                f"{row['load_bps'] / 1e6:.3f}",
                f"{row['utilization']:.3f}",
                row["flows"],
            ] for row in bottlenecks],
        ))
    print(f"\n{problem.name} @ {args.oversubscription:g}x oversubscription")
    print(format_table(
        ["configuration", "p99 eff. delay (ms)", "mean eff. delay (ms)",
         "max utilization", "saturated links", "feasible"],
        summary_rows,
    ))
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2),
                                   encoding="utf-8")
        print(f"\ndata written to {args.json}")
    return 0


def cmd_inspect(args) -> int:
    """Print the difficulty diagnostics of an instance file."""
    from repro.model.analysis import classify_difficulty, difficulty_report

    problem = _load_problem(args.instance)
    print(f"{problem.name}: {problem.n_devices} devices x {problem.n_servers} servers")
    print(f"difficulty class: {classify_difficulty(problem)}")
    rows = [[key, value] for key, value in difficulty_report(problem).items()]
    print(format_table(["diagnostic", "value"], rows))
    return 0


def _tracing_stack(args, process: str):
    """An ExitStack holding the --trace-dir recorder (empty when off).

    The span sink flushes per line, so even a SIGKILLed process leaves
    a readable (possibly torn-tail) file behind; closing the stack
    restores whatever recorder was active before.
    """
    from contextlib import ExitStack

    from repro.obs import runtime as obs_runtime

    stack = ExitStack()
    if getattr(args, "trace_dir", None):
        stack.enter_context(obs_runtime.traced(
            args.trace_dir,
            process,
            sample=getattr(args, "trace_sample", 1.0),
            seed=getattr(args, "seed", 0),
        ))
    return stack


def _serving_problem(args) -> AssignmentProblem:
    """The instance a serving command runs over (file or topology params)."""
    if getattr(args, "instance", None):
        return _load_problem(args.instance)
    return topology_instance(
        family=args.family,
        n_routers=args.routers,
        n_devices=args.devices,
        n_servers=args.servers,
        tightness=args.tightness,
        seed=args.seed,
    )


def _service_config(args):
    """ServiceConfig from the serve CLI flags."""
    from repro.serve import ServiceConfig

    return ServiceConfig(
        rule=args.rule,
        headroom=args.headroom,
        max_batch=args.batch_max,
        max_wait_s=args.batch_wait_ms / 1e3,
        max_queue=args.queue_max,
        watermark=args.watermark,
        reopt_interval_s=args.reopt_interval,
        reopt_solver=args.reopt_solver,
        reopt_seed=derive_seed(args.seed, "reopt"),
        wal_dir=getattr(args, "wal_dir", None),
        wal_snapshot_every=getattr(args, "snapshot_every", 256),
    )


def cmd_serve(args) -> int:
    """Run the assignment service until stopped (signal or --max-seconds)."""
    import asyncio

    from repro.serve import AssignmentService, TCPServer

    problem = _serving_problem(args)
    tracing = _tracing_stack(args, "serve")
    service = AssignmentService(problem, _service_config(args))

    async def run() -> None:
        import contextlib
        import signal

        # trap signals before announcing readiness: a supervisor may
        # SIGTERM the instant the port line appears
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, stop.set)
        await service.start()
        if args.wal_dir is not None:
            # recovery is announced before the port line: supervisors
            # treat the port as readiness, and a recovered state must be
            # in place before the first request lands
            print(
                f"recovered {service.state.recovered_records} wal records "
                f"in {service.recovery_ms:.1f} ms from {args.wal_dir}",
                flush=True,
            )
        server = TCPServer(service, host=args.host, port=args.port)
        await server.start()
        print(
            f"serving {problem.name} ({problem.n_devices} devices x "
            f"{problem.n_servers} servers, rule={args.rule}) on "
            f"{args.host}:{server.port}",
            flush=True,
        )
        if args.max_seconds is not None:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(stop.wait(), timeout=args.max_seconds)
        else:
            await stop.wait()
        await server.stop()
        await service.stop()
        rows = [[key, value] for key, value in service._stats().items()]
        print(format_table(["stat", "value"], rows))

    try:
        asyncio.run(run())
    finally:
        tracing.close()
    return 0


def cmd_loadtest(args) -> int:
    """Drive a service (remote or in-process) and report the latency table."""
    import asyncio

    from repro.errors import ReproError
    from repro.serve import (
        AssignmentService,
        InProcessClient,
        LoadTestConfig,
        Request,
        ServiceConfig,
        open_client,
        run_loadtest,
    )

    if args.port is None and not args.in_process:
        print("error: give --port of a running `repro serve`, or --in-process")
        return 1
    config = LoadTestConfig(
        n_requests=args.requests,
        rate_hz=args.rate,
        profile=args.profile,
        concurrency=args.concurrency,
        seed=args.load_seed,
        release_ratio=args.release_ratio,
        deadline_ms=getattr(args, "deadline_ms", None),
    )

    async def run():
        if args.in_process:
            problem = _serving_problem(args)
            service = AssignmentService(problem, ServiceConfig())
            await service.start()
            client = InProcessClient(service)
            try:
                return await run_loadtest(client, problem.n_devices, config)
            finally:
                await service.stop()
        client = await open_client(args.host, args.port)
        try:
            stats = (await client.request(Request(op="stats"))).stats
            if not stats:
                raise ReproError("service did not answer the stats probe")
            return await run_loadtest(client, int(stats["devices"]), config)
        finally:
            await client.close()

    tracing = _tracing_stack(args, "client")
    try:
        report = asyncio.run(run())
    finally:
        tracing.close()
    print(report.to_text())
    if args.trace_dir:
        print(f"trace spans written under {args.trace_dir} "
              f"(stitch with `repro trace {args.trace_dir}`)")
    if args.json:
        report.save_json(args.json)
        print(f"report written to {args.json}")
    if report.errors:
        print(f"loadtest FAILED: {report.errors} protocol-error responses")
        return 3
    return 0


def cmd_obs(args) -> int:
    """Render an observability JSONL export as an ASCII dashboard."""
    path = Path(args.snapshot)
    if not path.exists():
        print(f"error: no such snapshot file: {path}")
        return 1
    try:
        data = obs.load_jsonl(path)
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"error: {path} is not a repro-obs JSONL export ({exc})")
        return 1
    if getattr(args, "prometheus", False):
        from repro.obs.sinks import prometheus_from_collected

        print(prometheus_from_collected(data), end="")
        return 0
    print(obs.render_dashboard(data, width=args.width))
    return 0


def cmd_ledger(args) -> int:
    """Summarize (and optionally dump) a run-ledger JSONL file."""
    from repro.obs.ledger import read_ledger, render_ledger_summary

    path = Path(args.path)
    if not path.exists():
        print(f"error: no such ledger file: {path}")
        return 1
    try:
        records = read_ledger(path)
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"error: {path} is not a repro-obs ledger ({exc})")
        return 1
    print(render_ledger_summary(records))
    if getattr(args, "events", False):
        for record in records:
            extras = {
                key: value for key, value in record.items()
                if key not in ("type", "event", "run_id", "t")
            }
            detail = " ".join(f"{key}={value}" for key, value in extras.items())
            print(f"{record.get('t', 0.0):.3f} {record['event']} {detail}".rstrip())
    return 0


def cmd_perf_record(args) -> int:
    """Run the perf probes and append a history record."""
    from repro.perf import record_run

    record = record_run(
        history_path=args.history,
        probes=_probe_names(args),
        repeats=args.repeats,
        baseline=args.baseline,
    )
    rows = [[name, value * 1e3] for name, value in sorted(record["probes"].items())]
    print(format_table(["probe", "best of "
                        f"{args.repeats} (ms)"], rows))
    marker = " (baseline)" if record.get("baseline") else ""
    print(f"recorded {record['recorded_at']} @ {record['git_sha']}"
          f"{marker} -> {args.history}")
    return 0


def cmd_perf_check(args) -> int:
    """Measure now, compare to the baseline, exit nonzero on regression."""
    from repro.perf import check_against_baseline

    result = check_against_baseline(
        history_path=args.history,
        probes=_probe_names(args),
        repeats=args.repeats,
        max_regression=args.max_regression,
    )
    rows = [
        [c["probe"], c["baseline_s"] * 1e3, c["measured_s"] * 1e3,
         f"{c['ratio']:.2f}x", "REGRESSED" if c["regressed"] else "ok"]
        for c in result["comparisons"]
    ]
    print(format_table(
        ["probe", "baseline (ms)", "measured (ms)", "ratio", "verdict"], rows
    ))
    if result["regressions"]:
        print(f"perf check FAILED: {len(result['regressions'])} probe(s) exceeded "
              f"baseline * {1.0 + args.max_regression:.2f}")
        return 3
    print(f"perf check passed against baseline {result['baseline']['git_sha']} "
          f"({result['baseline']['recorded_at']})")
    return 0


def cmd_perf_list(args) -> int:
    """Print the recorded perf history."""
    from repro.perf import load_history

    records = load_history(args.history)
    if not records:
        print(f"no history at {args.history} (run `repro perf record` first)")
        return 1
    rows = [
        [record["recorded_at"], record["git_sha"][:12],
         record.get("fingerprint", ""), len(record["probes"]),
         "yes" if record.get("baseline") else ""]
        for record in records
    ]
    print(format_table(
        ["recorded at", "git sha", "fingerprint", "probes", "baseline"], rows
    ))
    return 0


def _probe_names(args) -> "list[str] | None":
    raw = getattr(args, "probes", None)
    if not raw:
        return None
    return [name.strip() for name in raw.split(",") if name.strip()]


def _shard_plan(args):
    """(problem, plan) from the shared shard CLI flags."""
    from repro.shard import build_plan

    problem = _serving_problem(args)
    plan = build_plan(
        problem, args.shards, vnodes=args.vnodes, seed=args.plan_seed
    )
    return problem, plan


def cmd_shard_plan(args) -> int:
    """Print (and optionally save) the deterministic shard plan."""
    problem, plan = _shard_plan(args)
    print(
        f"{problem.name}: {problem.n_devices} devices x "
        f"{problem.n_servers} servers -> {plan.n_shards} shard(s) "
        f"(requested {args.shards}, vnodes={plan.vnodes}, "
        f"seed={plan.seed})"
    )
    rows = []
    for spec in plan.shards:
        home = plan.devices_of_shard(spec.name)
        rows.append([
            spec.name,
            ", ".join(str(r) for r in spec.regions),
            len(spec.servers),
            len(home),
        ])
    print(format_table(["shard", "regions", "servers", "home devices"], rows))
    if args.json:
        plan.save(args.json)
        print(f"plan written to {args.json}")
    return 0


def cmd_shard_serve(args) -> int:
    """Serve one shard's slice of the cluster over TCP."""
    import asyncio

    from repro.serve import AssignmentService, ServiceConfig, TCPServer

    problem, plan = _shard_plan(args)
    names = [spec.name for spec in plan.shards]
    if args.shard not in names:
        print(
            f"error: shard {args.shard!r} is not in the plan "
            f"(surviving shards: {', '.join(names)})"
        )
        return 1
    sub = plan.subproblem(problem, args.shard)
    tracing = _tracing_stack(args, args.shard)
    service = AssignmentService(
        sub,
        ServiceConfig(
            rule=args.rule,
            headroom=args.headroom,
            max_wait_s=args.batch_wait_ms / 1e3,
            wal_dir=args.wal_dir,
            wal_snapshot_every=args.snapshot_every,
        ),
    )

    async def run() -> None:
        import contextlib
        import signal

        # trap signals before announcing readiness: the cluster harness
        # SIGTERMs the instant the port line appears
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, stop.set)
        await service.start()
        if args.wal_dir is not None:
            # before the port line: the harness scrapes this, and the
            # replayed state must be live before readiness is announced
            print(
                f"recovered {service.state.recovered_records} wal records "
                f"in {service.recovery_ms:.1f} ms from {args.wal_dir}",
                flush=True,
            )
        server = TCPServer(service, host=args.host, port=args.port)
        await server.start()
        print(
            f"serving shard {args.shard} of {problem.name} "
            f"({sub.n_servers} of {problem.n_servers} servers, "
            f"{plan.n_shards} shards) on {args.host}:{server.port}",
            flush=True,
        )
        if args.max_seconds is not None:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(stop.wait(), timeout=args.max_seconds)
        else:
            await stop.wait()
        await server.stop()
        await service.stop()
        rows = [[key, value] for key, value in service._stats().items()]
        print(format_table(["stat", "value"], rows))

    try:
        asyncio.run(run())
    finally:
        tracing.close()
    return 0


def cmd_shard_router(args) -> int:
    """Front already-running shard processes with a TCP router."""
    import asyncio

    from repro.serve import TCPServer
    from repro.shard import RouterConfig, ShardRouter, TCPBackend

    problem, plan = _shard_plan(args)
    addresses: "dict[str, tuple[str, int]]" = {}
    for item in args.backend:
        try:
            name, _, hostport = item.partition("=")
            host, _, port = hostport.rpartition(":")
            addresses[name] = (host or "127.0.0.1", int(port))
        except ValueError:
            print(f"error: bad --backend {item!r} (want NAME=HOST:PORT)")
            return 1
    missing = [s.name for s in plan.shards if s.name not in addresses]
    if missing:
        print(f"error: no --backend given for shard(s): {', '.join(missing)}")
        return 1
    backends = {
        name: TCPBackend(name, host, port)
        for name, (host, port) in addresses.items()
        if name in {s.name for s in plan.shards}
    }
    router = ShardRouter(
        plan,
        backends,
        RouterConfig(rebalance_interval_s=args.rebalance_interval),
    )

    async def run() -> None:
        import contextlib
        import signal

        # trap signals before announcing readiness: a supervisor may
        # SIGTERM the instant the port line appears
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, stop.set)
        await router.start()
        server = TCPServer(router, host=args.host, port=args.port)
        await server.start()
        print(
            f"routing {plan.n_shards} shards of {problem.name} "
            f"({problem.n_devices} devices) on {args.host}:{server.port}",
            flush=True,
        )
        if args.max_seconds is not None:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(stop.wait(), timeout=args.max_seconds)
        else:
            await stop.wait()
        await server.stop()
        stats = await router._stats()
        rows = [
            [key, value] for key, value in stats.items()
            if key != "per_shard"
        ]
        await router.close()
        print(format_table(["stat", "value"], rows))

    asyncio.run(run())
    return 0


def cmd_shard_loadtest(args) -> int:
    """Spawn a sharded cluster, load it, optionally kill a shard mid-run."""
    import asyncio

    from repro.faults.scenario import FaultEventSpec, FaultScenario
    from repro.serve import LoadTestConfig
    from repro.shard.harness import HarnessConfig, run_sharded_loadtest

    config = HarnessConfig(
        n_shards=args.shards,
        family=args.family,
        routers=args.routers,
        devices=args.devices,
        servers=args.servers,
        tightness=args.tightness,
        seed=args.seed,
        vnodes=args.vnodes,
        plan_seed=args.plan_seed,
        batch_wait_ms=args.batch_wait_ms,
        rebalance_interval_s=args.rebalance_interval,
        wal_root=args.wal_root,
        default_deadline_ms=args.deadline_ms,
        hedge=not args.no_hedge,
        trace_dir=args.trace_dir,
        trace_sample=args.trace_sample,
    )
    load = LoadTestConfig(
        n_requests=args.requests,
        rate_hz=args.rate,
        profile=args.profile,
        concurrency=args.concurrency,
        seed=args.load_seed,
        release_ratio=args.release_ratio,
        deadline_ms=args.deadline_ms,
    )
    scenario = None
    if args.kill_shard is not None:
        events = [FaultEventSpec(at_s=args.kill_at, kind="server_crash",
                                 server=args.kill_shard)]
        if args.repair_at is not None:
            events.append(FaultEventSpec(at_s=args.repair_at,
                                         kind="server_repair",
                                         server=args.kill_shard))
        scenario = FaultScenario(name="shard-kill", events=tuple(events))
    elif args.scenario:
        scenario = FaultScenario.load(args.scenario)
    netem = None
    if args.netem:
        from repro.netem import load_script

        shard_names = [spec.name for spec in config.plan().shards]
        netem = load_script(args.netem, shard_names=shard_names)

    result = asyncio.run(
        run_sharded_loadtest(config, load, scenario, window_s=args.window,
                             netem=netem)
    )
    print(result.report.to_text())
    if result.netem_stats:
        print(
            "netem: "
            + ", ".join(f"{k}={v}" for k, v in sorted(
                result.netem_stats.items()) if not isinstance(v, dict))
        )
    if result.router_stats:
        print(
            "router: "
            + ", ".join(f"{k}={v}"
                        for k, v in sorted(result.router_stats.items()))
        )
    for name, info in sorted(result.wal_recovery.items()):
        if info["records"]:
            print(f"wal: {name} recovered {info['records']} records "
                  f"in {info['ms']:.1f} ms")
    if result.trace_dir:
        print(f"trace spans written under {result.trace_dir} "
              f"(stitch with `repro trace {result.trace_dir}`)")
    print(format_table(
        ["window t0 (s)", "ok", "total", "goodput"],
        [[w["t0"], w["ok"], w["total"], f"{w['goodput']:.3f}"]
         for w in result.timeline],
    ))
    for entry in result.fault_log:
        print(f"fault @ {entry['t']:.3f}s: {entry['event']} {entry['shard']}")
    # a shard whose last scripted event was a kill is *supposed* to be
    # dead; every other shard must have exited 0 on SIGTERM
    last_event: "dict[str, str]" = {}
    for entry in result.fault_log:
        last_event[entry["shard"]] = entry["event"]
    clean = all(
        code == 0
        for name, code in result.shutdown_codes.items()
        if last_event.get(name) != "kill"
    )
    print(
        "shutdown codes: "
        + ", ".join(f"{k}={v}" for k, v in sorted(result.shutdown_codes.items()))
    )
    if args.json:
        from repro.utils.fileio import atomic_write_text

        atomic_write_text(
            args.json, json.dumps(result.to_dict(), indent=2, sort_keys=True)
        )
        print(f"report written to {args.json}")
    if scenario is None and result.report.errors:
        print(f"loadtest FAILED: {result.report.errors} protocol-error responses")
        return 3
    if not clean:
        print("loadtest FAILED: shard processes exited uncleanly")
        return 3
    if args.min_goodput is not None:
        ok = sum(w["ok"] for w in result.timeline)
        total = sum(w["total"] for w in result.timeline)
        overall = ok / total if total else 1.0
        print(f"overall goodput: {overall:.4f} (floor {args.min_goodput})")
        if result.report.errors:
            print(f"loadtest FAILED: {result.report.errors} protocol-error "
                  "responses (crash recovery must reconcile, not error)")
            return 3
        if overall < args.min_goodput:
            print("loadtest FAILED: goodput below floor")
            return 3
    if args.max_recovery_ms is not None:
        slow = {
            name: info["ms"]
            for name, info in result.wal_recovery.items()
            if info["ms"] > args.max_recovery_ms
        }
        if slow:
            print(
                "loadtest FAILED: WAL recovery over "
                f"{args.max_recovery_ms} ms: "
                + ", ".join(f"{k}={v:.1f}ms" for k, v in sorted(slow.items()))
            )
            return 3
    return 0


def _report_p99_ms(path: str) -> float:
    """p99 latency from a loadtest report JSON (plain or sharded)."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if "report" in data and isinstance(data["report"], dict):
        data = data["report"]  # ShardLoadTestReport wraps the load report
    return float(data["latency_ms"]["p99"])


def _trace_overhead(args) -> int:
    """Bound tracing overhead: diff traced vs untraced report p99."""
    traced_path, untraced_path = args.overhead
    traced_p99 = _report_p99_ms(traced_path)
    untraced_p99 = _report_p99_ms(untraced_path)
    ratio = traced_p99 / max(untraced_p99, 1e-9)
    print(format_table(
        ["report", "p99 (ms)"],
        [["traced", f"{traced_p99:.3f}"],
         ["untraced", f"{untraced_p99:.3f}"],
         ["ratio", f"{ratio:.3f}x"]],
    ))
    if args.max_overhead is not None and ratio > 1.0 + args.max_overhead:
        print(f"trace overhead FAILED: traced p99 is {ratio:.3f}x untraced "
              f"(bound {1.0 + args.max_overhead:.3f}x)")
        return 3
    return 0


def cmd_trace(args) -> int:
    """Stitch span files: list traces, render waterfalls/critical paths."""
    from repro.obs.trace import (
        build_trace,
        critical_path,
        load_trace_dir,
        render_critical_path,
        render_waterfall,
        trace_ids,
    )

    if args.overhead is not None:
        return _trace_overhead(args)
    if args.trace_dir is None:
        print("error: give a trace directory (or --overhead A.json B.json)")
        return 1
    records = load_trace_dir(args.trace_dir)
    if not records:
        print(f"no spans under {args.trace_dir} (expected spans-*.jsonl "
              "written via --trace-dir)")
        return 1
    if args.trace_id is None:
        rows = []
        for trace_id in trace_ids(records):
            roots, orphans = build_trace(records, trace_id)
            spans = sum(1 for r in records if r.trace_id == trace_id)
            t0 = min(r.start_ms for r in records if r.trace_id == trace_id)
            t1 = max(r.end_ms for r in records if r.trace_id == trace_id)
            rows.append([
                trace_id,
                roots[0].record.name if roots else "?",
                spans,
                f"{t1 - t0:.3f}",
                len(orphans),
            ])
        print(format_table(
            ["trace id", "root", "spans", "span (ms)", "orphans"], rows
        ))
        print(f"{len(rows)} trace(s), {len(records)} span(s); render one "
              "with --trace-id ID [--critical-path]")
        return 0
    roots, orphans = build_trace(records, args.trace_id)
    if not roots:
        print(f"error: no spans for trace id {args.trace_id!r}")
        return 1
    if args.critical_path:
        worst_coverage = 1.0
        for root in roots:
            print(render_critical_path(root))
            _, attributed = critical_path(root)
            total = max(root.record.duration_ms, 1e-9)
            worst_coverage = min(worst_coverage, attributed / total)
        if orphans:
            print(f"warning: {len(orphans)} span(s) had unresolved parents "
                  "(treated as extra roots)")
        if (args.min_attribution is not None
                and worst_coverage < args.min_attribution):
            print(f"critical path FAILED: attributed "
                  f"{worst_coverage:.1%} < floor {args.min_attribution:.1%}")
            return 3
        return 0
    print(render_waterfall(roots))
    if orphans:
        print(f"warning: {len(orphans)} span(s) had unresolved parents "
              "(treated as extra roots)")
    return 0


def cmd_info(args) -> int:
    """Version and registered components."""
    print(f"repro {repro.__version__}")
    print(f"solvers ({len(available_solvers())}): " + ", ".join(available_solvers()))
    print("topology families: " + ", ".join(sorted(TOPOLOGY_FAMILIES)))
    print("placement strategies: " + ", ".join(sorted(PLACEMENT_STRATEGIES)))
    print("experiments: " + ", ".join(sorted(_EXPERIMENT_MODULES)))
    return 0
