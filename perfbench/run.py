"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps every
layer in ``layers.LAYER_MAP`` and prints the per-layer metrics instead,
together with the same end-to-end numbers measured while traced (under
``traced.``), so the tracing overhead is their difference.  The last
line of standard output is the JSON result; the lines before it are a
readable report.  The exit code is 0 only when every correctness check
passed.  See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402,F401  (fails here, before any output, without src/)
from layers import LayerTracer  # noqa: E402

WORKLOADS = ("plan_route", "plan_search", "serve", "shard")

#: end-to-end metric -> unit (the order BENCHMARK.json lists them in)
END_TO_END = {
    "setup_s": "s",
    "throughput": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "goodput": "share",
    "delay_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values) -> float:
    return float(statistics.fmean(values)) if len(values) else 0.0


def layer_metrics(tracer: LayerTracer, result: dict) -> "dict[str, tuple[float, str]]":
    """Every per-layer metric as name -> (value, unit); 0 where unused."""
    s = tracer.seconds
    solve_s = sum(s["solvers.solve"])
    solves = max(len(s["solvers.solve"]), 1)
    descend = tracer.phase_s.get("descend", 0.0)
    routed = tracer.phase_s.get("route", 0.0)
    deltas = s["contention.shift_delta"] + s["contention.swap_delta"]
    batches = tracer.batch_sizes
    admissions = tracer.calls["serve.admission"]
    phases = result.get("phases", {})
    lag = [ms for p in phases.values() for ms in p.lag_ms]
    lo, hi = phases.get("lo"), phases.get("hi")
    counters = tracer.router_counters
    pauses = [x * 1e3 for x in tracer.gc_pauses_s]
    return {
        "topology.generate_s": (_mean(s["topology.generate"]), "s"),
        "topology.place_s": (_mean(s["topology.place"]), "s"),
        "topology.attach_s": (_mean(s["topology.attach"]), "s"),
        "model.delay_matrix_s": (_mean(s["model.delay_matrix"]), "s"),
        "model.feasibility_s": (_mean(s["model.feasibility"]), "s"),
        "contention.incidence_s": (_mean(s["contention.incidence"]), "s"),
        "contention.eval_s": (_mean(s["contention.eval"]), "s"),
        "solvers.construct_s": ((solve_s - descend - routed) / solves, "s"),
        "solvers.descend_s": (descend / solves, "s"),
        "solvers.passes": (tracer.passes, "count"),
        "solvers.moves": (tracer.moves, "count"),
        "contention.delta_evals": (len(deltas), "count"),
        "contention.delta_us.p50": (_pct(deltas, 50) * 1e6, "us"),
        "serve.state.assign_us.p50": (_pct(s["serve.state.assign"], 50) * 1e6, "us"),
        "serve.state.assign_us.p99": (_pct(s["serve.state.assign"], 99) * 1e6, "us"),
        "serve.state.release_us.p50": (
            _pct(s["serve.state.release"], 50) * 1e6, "us"),
        "serve.wal.appends": (len(s["serve.wal.append"]), "count"),
        "serve.wal.append_us.p50": (_pct(s["serve.wal.append"], 50) * 1e6, "us"),
        "serve.wal.append_us.p99": (_pct(s["serve.wal.append"], 99) * 1e6, "us"),
        "serve.wal.snapshots": (len(s["serve.wal.snapshot"]), "count"),
        "serve.wal.snapshot_ms.max": (
            max(s["serve.wal.snapshot"], default=0.0) * 1e3, "ms"),
        "serve.batch.size_mean": (_mean(batches), "count"),
        "serve.batch.deadline_share": (
            tracer.batch_reasons.count("deadline") / max(len(batches), 1), "share"),
        "serve.admission.rejected_share": (
            tracer.admission_rejected / max(admissions, 1), "share"),
        "serve.server_ms.p50": (_pct(tracer.server_ms, 50), "ms"),
        "serve.server_ms.p99": (_pct(tracer.server_ms, 99), "ms"),
        "shard.backend_ms.p50": (_pct(s["shard.backend"], 50) * 1e3, "ms"),
        "shard.backend_ms.p99": (_pct(s["shard.backend"], 99) * 1e3, "ms"),
        "shard.wire_ms.p50": (_pct(s["shard.wire"], 50) * 1e3, "ms"),
        "shard.wire_ms.p99": (_pct(s["shard.wire"], 99) * 1e3, "ms"),
        "shard.router_self_ms.p50": (_pct(tracer.router_self_s, 50) * 1e3, "ms"),
        "shard.router_self_ms.p99": (_pct(tracer.router_self_s, 99) * 1e3, "ms"),
        "shard.fanout": (tracer.backend_calls / max(tracer.routed, 1), "ratio"),
        "shard.hedges": (counters.get("hedges_total", 0), "count"),
        "shard.hedge_wins": (counters.get("hedge_wins_total", 0), "count"),
        "runtime.gc_gen2": (tracer.gc_gen2, "count"),
        "runtime.gc_pause_ms.max": (max(pauses, default=0.0), "ms"),
        "runtime.gc_pause_ms.total": (sum(pauses), "ms"),
        "loadgen.lag_p99_ms": (_pct(lag, 99), "ms"),
        "loadgen.samples.lo": (len(lo.latency_ms) if lo else 0, "count"),
        "loadgen.samples.hi": (len(hi.latency_ms) if hi else 0, "count"),
        "loadgen.p99_ms.lo": (_pct(lo.latency_ms, 99) if lo else 0.0, "ms"),
        "loadgen.p50_ms.hi": (_pct(hi.latency_ms, 50) if hi else 0.0, "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = LayerTracer(args.workload) if args.trace else None
    if tracer is not None:
        tracer.install()

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        if args.workload.startswith("plan_"):
            import plan
            result = plan.run(args.workload, args.seed, args.seconds, tracer)
        else:
            import online
            result = online.run(args.workload, args.seed, args.seconds, tmp,
                                tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(tmp_root.iterdir()):
            tmp_root.rmdir()
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    end_to_end = {name: (float(result[name]), unit)
                  for name, unit in END_TO_END.items()}
    if tracer is None:
        metrics = end_to_end
    else:
        metrics = layer_metrics(tracer, result)
        metrics.update({f"traced.{name}": value
                        for name, value in end_to_end.items()})

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for label, value in result["report"]:
        print(f"  {label}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
