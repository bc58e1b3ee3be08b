"""The three workloads: set-up, rounds of experiments, reference data.

Every experiment drives jobpruner through its public entry points only:
`orchestrator.run(RunConfig(...))` with the fields a user sets, or
`cli.main([...])`.  The workload seed and the round's index pick the
round's run seeds; the landscapes, subjects and aggressiveness settings
are fixed, so set-up does the same work for every seed and only the
optimizers' trajectories change with it.

Every round is the same list of operations with run seeds of its own,
so a run that fits more rounds in its time averages over more seeds,
and a slow machine fits fewer rounds instead of running longer.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import shlex
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from checks import Reference, RunRecord, check_knn, knn_reference, parse_csv

from jobpruner import bench, cli, kbstore, matcher, orchestrator, surrogate
from jobpruner.orchestrator import RunConfig
from jobpruner.pruner import AUTO, PruneConfig
from jobpruner.space import SearchSpace, space_from_dict, space_to_dict

SEISMIC = "seismic-like"
FAMILY_SEED = 7                       # the preset's default seed
FEASIBILITY = "p0 + p1 < 7"
BATCH_SIZE = 10
BUDGET_FRAC = 0.1                     # 550 jobs on the seismic-like grid
CONSTRAINED_BUDGET = 200
SEISMIC_P = (0.0, 0.6, AUTO)
KNN_SAMPLE = 100                      # k-NN check points per prior

COMMAND_P = 0.6
COMMAND_SUBJECT = 0
COMMAND_SEEDS = 3                     # per round, plus a repeat of the first


@dataclass
class Workload:
    round: Callable[[int], list[Callable[[], RunRecord]]]   # round index -> experiments
    ref: Reference
    # checks of single layers, run once after the measurement
    extra_checks: Callable[[], list[str]] = field(default=lambda: [])


class RunProbe:
    """Watches two calls of `run()` through the names it looks up:
    `orchestrator.prune`, to learn which values each run removed, and
    `orchestrator.execute_batch`, to count the jobs that failed where
    the report does not say (the `jobpruner run` summary).  It adds one
    function call per prune and per batch."""

    def __init__(self):
        self.prune = getattr(orchestrator, "prune", None)
        self.execute = getattr(orchestrator, "execute_batch", None)
        self.last = None
        self.failed: set = set()
        if self.prune is not None:
            orchestrator.prune = self._prune
        if self.execute is not None:
            orchestrator.execute_batch = self._execute

    def _prune(self, *args, **kwargs):
        outcome = self.prune(*args, **kwargs)
        self.last = outcome.new_space
        return outcome

    def _execute(self, *args, **kwargs):
        results = self.execute(*args, **kwargs)
        self.failed.update(point for point, value in results if value is None)
        return results

    def close(self) -> None:
        if self.prune is not None:
            orchestrator.prune = self.prune
        if self.execute is not None:
            orchestrator.execute_batch = self.execute

    def start_run(self) -> None:
        self.last = None
        self.failed = set()

    def kept(self, original: SearchSpace) -> Optional[list[np.ndarray]]:
        if self.prune is None:
            return None
        final = self.last if self.last is not None else original
        return [np.array([o.values.index(v) for v in d.values], dtype=np.int64)
                for d, o in zip(final.domains, original.domains)]

    def failures(self) -> Optional[int]:
        return None if self.execute is None else len(self.failed)


def _run_seeds(seed: int, round_index: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, round_index])
    return [int(s) for s in rng.integers(0, 2 ** 31 - 1, size=count)]


def _reference(family, feasible=None) -> Reference:
    shape = family.space.cardinalities
    priors = {}
    for i in range(family.subjects):
        jobs = family.subject_record(i).jobs
        priors[family.subject_id(i)] = (np.array([j.point for j in jobs], dtype=np.int64),
                                        np.array([j.output for j in jobs]))
    if feasible is None:
        feasible = np.ones(int(np.prod(shape)), dtype=bool)
    return Reference(values=family.values, shape=shape, feasible=feasible, priors=priors)


def _table_app(values: np.ndarray, shape: tuple[int, ...]):
    """The cluster job: a lookup in the benchmark's own copy of the table."""
    strides = np.cumprod((1,) + tuple(shape[:0:-1]))[::-1].tolist()

    def app(point) -> float:
        return float(values[sum(i * s for i, s in zip(point, strides))])
    return app


def _api_run(probe: RunProbe, label: str, subject: int, space: SearchSpace, app,
             kb, seed: int, budget, p_aggr, budget_jobs: int) -> RunRecord:
    """One experiment through `orchestrator.run`, timed around the call."""
    cfg = RunConfig(space=space, app=app, optimizer="pso", seed=seed,
                    batch_size=BATCH_SIZE, budget=budget,
                    prune_cfg=PruneConfig(aggressiveness=p_aggr), kb=kb)
    probe.start_run()
    t0 = time.perf_counter()
    report = orchestrator.run(cfg)
    seconds = time.perf_counter() - t0
    csv = orchestrator.report_to_csv(report)
    return RunRecord(label=label, subject=subject, p_aggr=p_aggr, budget=budget_jobs,
                     seconds=seconds, csv=csv, rows=parse_csv(csv),
                     best_point=report.best_point, best_value=report.best_value,
                     kept=probe.kept(space), failures=report.failures)


def _leave_one_out(family, subject: int) -> list:
    return [family.subject_record(i) for i in range(family.subjects) if i != subject]


def seismic(seed: int, probe: RunProbe, workdir: Path, runs: Optional[int] = None) -> Workload:
    """Every subject once per round, against the other 11 as the knowledge
    base, with p = (0, 0.6, auto)[subject mod 3]: four runs per setting.
    The pairs stay the same in every round, because the run time depends
    on the pair and a machine that fits more rounds must not change the
    mix it averages over."""
    family = bench.preset_family(SEISMIC, seed=FAMILY_SEED)
    budget = int(BUDGET_FRAC * len(family.points))
    subjects = list(range(family.subjects))[:runs]
    kbs = {subject: _leave_one_out(family, subject) for subject in subjects}
    apps = {subject: _table_app(family.values[subject], family.space.cardinalities)
            for subject in subjects}

    def round_ops(index: int) -> list:
        ops = []
        for subject, run_seed in zip(subjects, _run_seeds(seed, index, len(subjects))):
            p = SEISMIC_P[subject % len(SEISMIC_P)]
            label = f"s{subject:02d}-p{p}-seed{run_seed}"
            ops.append(lambda label=label, subject=subject, run_seed=run_seed, p=p:
                       _api_run(probe, label, subject, family.space, apps[subject],
                                kbs[subject], run_seed, BUDGET_FRAC, p, budget))
        return ops

    ref = _reference(family)

    def knn_check() -> list[str]:
        """Brute-force k-NN against each prior's `sample_on` at points
        drawn from the seed."""
        rng = np.random.default_rng(seed)
        shape = family.space.cardinalities
        queries = np.stack([rng.integers(0, c, size=KNN_SAMPLE) for c in shape], axis=1)
        errors = []
        for i in range(family.subjects):
            record = family.subject_record(i)
            expected = knn_reference(*ref.priors[record.id], queries, shape, surrogate.DEFAULT_K)
            message = check_knn(matcher.ensure_surrogate(record).sample_on(queries), expected)
            if message is not None:
                errors.append(f"check_knn: prior {record.id}: {message}")
        return errors

    return Workload(round=round_ops, ref=ref, extra_checks=knn_check)


def constrained(seed: int, probe: RunProbe, workdir: Path, runs: Optional[int] = None) -> Workload:
    """The seismic landscapes and knowledge base under `p0 + p1 < 7`:
    every subject once per round."""
    family = bench.preset_family(SEISMIC, seed=FAMILY_SEED)
    doc = space_to_dict(family.space)
    doc["feasibility"] = FEASIBILITY
    space = space_from_dict(doc)
    # the benchmark's own mask: parameter values equal their indices here
    feasible = family.points[:, 0] + family.points[:, 1] < 7
    subjects = list(range(family.subjects))[:runs]
    kbs = {subject: _leave_one_out(family, subject) for subject in subjects}
    apps = {subject: _table_app(family.values[subject], family.space.cardinalities)
            for subject in subjects}

    def round_ops(index: int) -> list:
        return [lambda subject=subject, run_seed=run_seed:
                _api_run(probe, f"s{subject:02d}-seed{run_seed}", subject, space, apps[subject],
                         kbs[subject], run_seed, CONSTRAINED_BUDGET, 0.6, CONSTRAINED_BUDGET)
                for subject, run_seed in zip(subjects, _run_seeds(seed, index, len(subjects)))]

    return Workload(round=round_ops, ref=_reference(family, feasible))


def command(seed: int, probe: RunProbe, workdir: Path, runs: Optional[int] = None) -> Workload:
    """`jobpruner run` through `cli.main`: the knowledge base is loaded from
    JSON files and every job is an awk process reading the landscape
    table; each round repeats its first invocation to compare the CSVs."""
    family = bench.preset_family(SEISMIC, seed=FAMILY_SEED)
    subject = COMMAND_SUBJECT
    kb_dir = workdir / "kb"
    for record in _leave_one_out(family, subject):
        kbstore.save_record(record, kb_dir)
    table = workdir / "table.txt"
    with open(table, "w", encoding="utf-8") as fh:
        for point, value in zip(family.points, family.values[subject]):
            fh.write(":".join(map(str, point)) + f" {float(value)!r}\n")
    key = ":".join("{%s}" % d.name for d in family.space.domains)
    awk_program = "$1 == k {{print $2; exit}}"
    path = shlex.quote(str(table.resolve())).replace("{", "{{").replace("}", "}}")
    spec = space_to_dict(family.space)
    spec["app"] = {"command": f"awk -v k={key} '{awk_program}' {path}"}
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    budget = int(BUDGET_FRAC * len(family.points))

    def invoke(run_seed: int, index: int) -> RunRecord:
        out = workdir / f"report-{index}.csv"
        argv = ["run", "--spec", str(spec_path), "--kb", str(kb_dir), "--optimizer", "sa",
                "--paggr", str(COMMAND_P), "--seed", str(run_seed), "--out", str(out)]
        stderr = io.StringIO()
        probe.start_run()
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        seconds = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"jobpruner run exited with {code}: {stderr.getvalue().strip()}")
        summary = dict(item.split("=", 1) for item in
                       stderr.getvalue().strip().splitlines()[-1].replace(", ", ",").split())
        csv = out.read_text(encoding="utf-8")
        return RunRecord(label=f"seed{run_seed}", subject=subject, p_aggr=COMMAND_P,
                         budget=budget, seconds=seconds, csv=csv, rows=parse_csv(csv),
                         best_point=ast.literal_eval(summary["best_point"]),
                         best_value=float(summary["best_value"]),
                         kept=probe.kept(family.space), failures=probe.failures())

    def round_ops(index: int) -> list:
        seeds = _run_seeds(seed, index, runs or COMMAND_SEEDS)
        seeds.append(seeds[0])
        return [lambda s=s, i=i: invoke(s, i) for i, s in enumerate(seeds)]

    return Workload(round=round_ops, ref=_reference(family))


WORKLOADS = {
    "seismic": seismic,
    "constrained": constrained,
    "command": command,
}
