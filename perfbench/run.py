"""Benchmark of the jobpruner pruning loop.

    python3 perfbench/run.py --workload seismic --seed 0 --seconds 20 --trace 0

Runs one workload in this process against the sources in `src/` of the
checkout this file sits in: set-up, then whole rounds of experiments
for at most `--seconds` (at least one round), then the correctness
checks.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics of a traced run with
`--trace 1`.  A fuller record goes to perfbench/out/results/.
"""

import time

STARTED = time.perf_counter()  # set-up is timed from the process's start

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# the workloads and the metrics' names and units are those BENCHMARK.json lists
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# per-layer metric -> (tracer stat, field).  "calls", "self_s" and "items"
# are per-run means over the measured rounds; "setup_s" is the stat's
# self time during set-up; "peak" the largest tracemalloc peak of one call.
# orchestrator.jobs_fresh and orchestrator.fresh_ratio come from the reports.
PER_LAYER = {
    "space.feasibility_evals": ("space.feasibility", "calls"),
    "space.feasibility_s": ("space.feasibility", "self_s"),
    "space.enumerate_s": ("space.enumerate", "self_s"),
    "optimizers.propose_s": ("optimizers.propose", "self_s"),
    "optimizers.observe_s": ("optimizers.observe", "self_s"),
    "optimizers.point_in_current_calls": ("optimizers.point_in_current", "calls"),
    "optimizers.point_in_current_s": ("optimizers.point_in_current", "self_s"),
    "optimizers.space_updates": ("optimizers.space_update", "calls"),
    "orchestrator.execute_s": ("orchestrator.execute", "self_s"),
    "orchestrator.app_command_calls": ("orchestrator.app_command", "calls"),
    "orchestrator.app_command_s": ("orchestrator.app_command", "self_s"),
    "orchestrator.jobs_proposed": ("optimizers.propose", "items"),
    "orchestrator.self_s": ("orchestrator.run", "self_s"),
    "matcher.select_calls": ("matcher.select", "calls"),
    "matcher.select_s": ("matcher.select", "self_s"),
    "matcher.comparison_sample_calls": ("matcher.comparison_sample", "calls"),
    "matcher.comparison_sample_s": ("matcher.comparison_sample", "self_s"),
    "matcher.n_corr_calls": ("matcher.n_corr", "calls"),
    "surrogate.sample_on_calls": ("surrogate.sample_on", "calls"),
    "surrogate.sample_on_s": ("surrogate.sample_on", "self_s"),
    "surrogate.sample_on_peak_mb": ("surrogate.sample_on", "peak"),
    "variogram.suggest_calls": ("variogram.suggest", "calls"),
    "variogram.suggest_s": ("variogram.suggest", "self_s"),
    "variogram.suggest_peak_mb": ("variogram.suggest", "peak"),
    "pruner.prune_calls": ("pruner.prune", "calls"),
    "pruner.prune_s": ("pruner.prune", "self_s"),
    "kbstore.load_s": ("kbstore.load", "self_s"),
    "kbstore.save_s": ("kbstore.save", "setup_s"),
    "bench.family_s": ("bench.family", "setup_s"),
}


def measure(round_ops, seconds: float):
    """Whole rounds until another round would pass `seconds`; at least one.
    `round_ops(i)` gives the experiments of round i."""
    records, attempted, failed = [], 0, 0
    t_start = time.perf_counter()
    for index in itertools.count():
        t_round = time.perf_counter()
        for op in round_ops(index):
            attempted += 1
            try:
                records.append(op())
            except Exception:
                failed += 1
                traceback.print_exc()
        now = time.perf_counter()
        if (now - t_start) + (now - t_round) > seconds:
            return records, attempted, failed, now - t_start


def end_to_end(records, ref, wall: float, setup_s: float) -> dict:
    # geometric means: times and rows per run are heavy-tailed (a pruned
    # swarm that keeps replaying evaluated points can need 5x the usual
    # batches), which makes the mean swing with one run, and the runs at
    # p = 0 form a cluster of their own, which makes the median jump
    return {
        "setup_s": setup_s,
        "run_s": statistics.geometric_mean(r.seconds for r in records),
        "runs_per_s": len(records) / wall,
        "batches_per_run": statistics.geometric_mean(len(r.rows) for r in records),
        "space_reduction": statistics.fmean(1.0 - r.rows[-1].space_size / ref.size
                                            for r in records),
        "best_value": statistics.fmean(r.best_value for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, at_start: dict, records) -> dict:
    """`at_start` is the tracer's snapshot when set-up ended."""
    loop = tracer.since(at_start)
    runs = len(records)
    out = {}
    for metric, (stat, fld) in PER_LAYER.items():
        if stat in tracer.missing:
            out[metric] = None
        elif fld == "setup_s":
            out[metric] = at_start[stat].self_s
        elif fld == "peak":
            out[metric] = loop[stat].peak_bytes / 2 ** 20
        else:
            out[metric] = getattr(loop[stat], fld) / runs
    fresh = sum(r.rows[-1].evals_used for r in records) / runs
    proposed = out["orchestrator.jobs_proposed"]
    out["orchestrator.jobs_fresh"] = fresh
    out["orchestrator.fresh_ratio"] = fresh / proposed if proposed else None
    return out


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jobpruner" / "__init__.py").is_file():
        print(f"error: no jobpruner sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads
    from checks import run_all

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    probe = workloads.RunProbe()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, probe, workdir)
        setup_s = time.perf_counter() - STARTED
        at_start = tracer.snapshot() if tracer else None
        records, attempted, failed, wall = measure(workload.round, args.seconds)
    finally:
        probe.close()
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    if not records:
        print("error: every operation failed", file=sys.stderr)
        return 1
    errors = run_all(records, workload.ref) + workload.extra_checks()
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    if tracer:
        measured = per_layer(tracer, at_start, records)
        listed = SPEC["per_layer"]
    else:
        measured = end_to_end(records, workload.ref, wall, setup_s)
        listed = SPEC["end_to_end"]
    metrics = {m["name"]: measured[m["name"]] for m in listed}
    units = {m["name"]: m["unit"] for m in listed}

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "correct": not errors,
              "errors": errors, "attempted": attempted, "failed": failed,
              "measured_s": wall, "metrics": metrics,
              "runs": [{"label": r.label, "seconds": r.seconds, "batches": len(r.rows),
                        "evaluations": r.rows[-1].evals_used, "best_value": r.best_value}
                       for r in records]}
    if tracer:
        detail["missing_hooks"] = sorted(tracer.missing)
        detail["traced_run_s"] = statistics.geometric_mean(r.seconds for r in records)
        tracer.write_spans(results / f"{name}-spans.json")
    (results / f"{name}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")

    for metric, value in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{args.workload:12s} {metric:36s} {shown:>12s} {units[metric]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
