"""End-to-end run loop: propose a batch, execute jobs, refit the
surrogate, re-match the knowledge base, prune, update the optimizer,
check stop criteria.

Execution is local: jobs either call a builtin landscape function or
spawn the user's command with parameter placeholders filled in.  Results
within a batch are merged back in proposal order, so reports are
deterministic regardless of completion order.
"""

from __future__ import annotations

import math
import shlex
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.spatial.distance import cdist

from . import matcher, surrogate as sg
from .optimizers import DEFAULT_BATCH_SIZE, create_optimizer
from .pruner import AUTO, PruneConfig, prune
from .space import (ExperimentRecord, Job, Point, SearchSpace,
                    feasible_size, space_size, validate_point)
from .surrogate import SpaceEncoding, _lex_ranks
from .variogram import FALLBACK_AGGRESSIVENESS, VariogramError, suggest_aggressiveness

DEFAULT_STALL_LIMIT = 50


class RunError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Applications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AppCommand:
    """External process runner: a command template with one ``{param}``
    placeholder per parameter, and an objective extraction rule."""

    command: str
    objective_from: str = "stdout"  # "stdout" (last line) or "file"
    output_file: Optional[str] = None
    timeout: Optional[float] = None

    def __post_init__(self):
        if self.objective_from not in ("stdout", "file"):
            raise ValueError(f"unknown objective source {self.objective_from!r}")
        if self.objective_from == "file" and not self.output_file:
            raise ValueError("objective_from='file' needs output_file")

    def validate_against(self, space: SearchSpace) -> None:
        for domain in space.domains:
            count = self.command.count("{" + domain.name + "}")
            if count != 1:
                raise ValueError(
                    f"command template must reference {{{domain.name}}} exactly once, found {count}")

    def run(self, space: SearchSpace, point: Point) -> float:
        """Objective at `point`; every way the job can fail raises RunError."""
        values = {d.name: v for d, v in zip(space.domains, space.resolve(point))}
        # each value is quoted, so it reaches the command as one argument
        argv = shlex.split(self.command.format(
            **{name: shlex.quote(str(v)) for name, v in values.items()}))
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=self.timeout)
            if proc.returncode != 0:
                raise RunError(f"command exited with {proc.returncode}")
            if self.objective_from == "stdout":
                lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
                if not lines:
                    raise RunError("no stdout to parse objective from")
                text = lines[-1]
            else:
                text = Path(self.output_file.format(**values)).read_text(encoding="utf-8")
            return float(text.strip())
        except (subprocess.TimeoutExpired, OSError, ValueError) as exc:
            raise RunError(f"job failed: {exc}") from exc


Application = Union[AppCommand, Callable[[Point], float]]


def execute_batch(points: Sequence[Point], app: Application, cache: dict,
                  space: SearchSpace, max_workers: int = 1) -> list[tuple[Point, Optional[float]]]:
    """Evaluate uncached points; results are returned for every input
    point, in input order.

    A job fails, and is recorded as None, when the application raises
    RunError or returns a non-finite value; any other exception from a
    Python objective is a programming error and propagates.
    """
    todo = []
    seen = set()
    for point in points:
        point = tuple(point)
        if point not in cache and point not in seen:
            todo.append(point)
            seen.add(point)

    def _one(point: Point) -> Optional[float]:
        try:
            value = app.run(space, point) if isinstance(app, AppCommand) else float(app(point))
        except RunError:
            return None
        return value if math.isfinite(value) else None

    if todo:
        if max_workers > 1 and isinstance(app, AppCommand):
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                outcomes = list(pool.map(_one, todo))
        else:
            outcomes = [_one(p) for p in todo]
        for point, value in zip(todo, outcomes):
            cache[point] = value
    return [(tuple(p), cache[tuple(p)]) for p in points]


# ---------------------------------------------------------------------------
# Run configuration and report
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    space: SearchSpace
    app: Application
    optimizer: str = "pso"
    seed: int = 0
    batch_size: int = DEFAULT_BATCH_SIZE
    budget: Union[int, float] = 0.1  # int: absolute; float in (0, 1]: fraction
    prune_cfg: PruneConfig = field(default_factory=PruneConfig)
    kb: Sequence[ExperimentRecord] = ()
    knn_k: int = sg.DEFAULT_K
    min_evidence: int = 1
    max_workers: int = 1
    stall_limit: int = DEFAULT_STALL_LIMIT


@dataclass(frozen=True)
class BatchRow:
    batch_index: int
    evals_used: int
    best_value: float
    space_size: int
    matched_prior: str
    n_corr: Optional[float]
    p_aggr: Optional[float]


@dataclass
class RunReport:
    best_point: Optional[Point]
    best_value: float
    evaluations: int
    failures: int
    history: list[BatchRow]
    wall_time: float

    @property
    def final_space_size(self) -> int:
        return self.history[-1].space_size if self.history else 0

    def reduction_from(self, original: SearchSpace) -> float:
        if not self.history:
            return 0.0
        return 1.0 - self.final_space_size / space_size(original)


CSV_HEADER = "batch_index,evals_used,best_value,space_size,matched_prior,n_corr,p_aggr"


def report_to_csv(report: RunReport) -> str:
    lines = [CSV_HEADER]
    for row in report.history:
        lines.append(",".join([
            str(row.batch_index),
            str(row.evals_used),
            repr(row.best_value),
            str(row.space_size),
            row.matched_prior,
            repr(row.n_corr) if row.n_corr is not None else "",
            repr(row.p_aggr) if row.p_aggr is not None else "",
        ]))
    return "\n".join(lines) + "\n"


def resolve_budget(cfg: RunConfig, space: SearchSpace) -> int:
    """Fractions floor to a count (minimum 1); absolute counts pass through."""
    if isinstance(cfg.budget, bool):
        raise RunError("budget must be a number")
    if isinstance(cfg.budget, int):
        if cfg.budget < 1:
            raise RunError("absolute budget must be at least 1")
        return cfg.budget
    frac = float(cfg.budget)
    if not 0.0 < frac <= 1.0:
        raise RunError("fractional budget must be in (0, 1]")
    return max(1, math.floor(frac * space_size(space)))


# ---------------------------------------------------------------------------
# Incremental full-sample surrogate evaluation
# ---------------------------------------------------------------------------

class _SampleSurrogate:
    """Maintains the current surrogate's predictions over the comparison
    sample incrementally as training jobs accumulate.

    Produces exactly ``fit(jobs).sample_on(sample)``: neighbor selection
    uses the same composite integer keys (distance then lexicographic
    rank) as the batch implementation.  Falls back to full refits when
    the integer scale does not fit.
    """

    def __init__(self, space: SearchSpace, sample: np.ndarray, k: int):
        self.space = space
        self.sample = sample
        self.k = k
        self.enc = SpaceEncoding.for_space(space)
        cards = space.cardinalities
        self.nspace = int(np.prod(np.asarray(cards, dtype=np.int64)))
        self.exact = self.enc.exact and self.enc.scale * len(cards) * self.nspace < 2 ** 62
        self.count = 0
        if self.exact:
            self.sample_enc = self.enc.encode(sample)
            self.keys = np.full((len(sample), k), np.iinfo(np.int64).max, dtype=np.int64)
            self.kth = self.keys[:, -1].copy()
            self.outs = np.zeros((len(sample), k))
            self.pred = np.zeros(len(sample))
        else:
            self.jobs: list[Job] = []

    def add(self, points: Sequence[Point], outputs: Sequence[float]) -> None:
        if not points:
            return
        self.count += len(points)
        if not self.exact:
            self.jobs.extend(Job(point=p, output=v) for p, v in zip(points, outputs))
            return
        pts = np.asarray(points, dtype=np.int64)
        # one row of keys per new point, so the per-sample-row minimum is
        # an elementwise minimum over a few contiguous rows
        dist = cdist(self.enc.encode(pts), self.sample_enc, metric="cityblock")
        ranks = _lex_ranks(pts, self.space.cardinalities)
        new_keys = np.rint(dist).astype(np.int64) * self.nspace + ranks[:, None]
        # keys are unique per point, so a row changes only where a new
        # point beats its current k-th neighbor
        rows = np.flatnonzero(new_keys.min(axis=0) < self.kth)
        new_outs = np.broadcast_to(np.asarray(outputs, dtype=np.float64), (len(rows), len(pts)))
        keys = np.concatenate([self.keys[rows], new_keys[:, rows].T], axis=1)
        outs = np.concatenate([self.outs[rows], new_outs], axis=1)
        order = np.argsort(keys, axis=1)[:, :self.k]
        self.keys[rows] = np.take_along_axis(keys, order, axis=1)
        self.kth[rows] = self.keys[rows, -1]
        self.outs[rows] = np.take_along_axis(outs, order, axis=1)
        self.pred[rows] = self.outs[rows, :min(self.k, self.count)].mean(axis=1)

    def values(self) -> np.ndarray:
        """The predictions over the sample; in exact mode the array that
        `add` updates in place."""
        if self.count == 0:
            raise RunError("no training data yet")
        if self.exact:
            return self.pred
        return sg.fit(self.jobs, self.space, k=self.k).sample_on(self.sample)


# ---------------------------------------------------------------------------
# The run loop
# ---------------------------------------------------------------------------

def _auto_aggressiveness(prior: ExperimentRecord, cfg: PruneConfig) -> float:
    """The prior's variogram suggestion, or the capped fallback when the
    variogram is unusable; computed once per record object and cap."""
    def compute() -> float:
        try:
            return suggest_aggressiveness(prior, cfg).value
        except VariogramError:
            return min(FALLBACK_AGGRESSIVENESS, cfg.cap)
    return prior.derived(("aggressiveness", cfg.cap), compute)


def run(cfg: RunConfig) -> RunReport:
    """Run one experiment to budget exhaustion (or full-space coverage)."""
    started = time.perf_counter()
    space = cfg.space
    if isinstance(cfg.app, AppCommand):
        cfg.app.validate_against(space)
    for record in cfg.kb:
        # structural mismatch aborts the run with a named error
        if record.space.domains != space.domains:
            raise RunError(f"knowledge-base record {record.id!r} does not match the search space")

    budget = resolve_budget(cfg, space)
    optimizer = create_optimizer(cfg.optimizer, space, cfg.seed, cfg.batch_size)
    sample = matcher.comparison_sample(space)
    sampler = _SampleSurrogate(space, sample, cfg.knn_k)

    cache: dict[Point, Optional[float]] = {}
    current_space = space
    remaining = feasible_size(current_space)
    # cached points inside current_space: every fresh point was proposed
    # there, so only a prune calls for a recount
    evaluated_in_current = 0
    evals_used = 0
    failures = 0
    history: list[BatchRow] = []
    last_prune_key: Optional[tuple[str, float]] = None
    match: Optional[matcher.MatchResult] = None
    index: Optional[matcher.KbIndex] = None
    stalls = 0
    batch_index = 0

    while True:
        proposals = optimizer.propose_batch()
        for point in proposals:
            violation = validate_point(space, point)
            if violation is not None:
                raise RunError(f"optimizer proposed an invalid point: {violation}")
            if not optimizer.point_in_current(point):
                raise RunError(f"optimizer proposed pruned point {point}")

        fresh = [p for p in dict.fromkeys(map(tuple, proposals)) if p not in cache]
        if len(fresh) > budget - evals_used:
            fresh = fresh[: budget - evals_used]
        evaluable = [p for p in proposals if tuple(p) in cache or tuple(p) in set(fresh)]
        results = execute_batch(evaluable, cfg.app, cache, space, cfg.max_workers)
        newly = [p for p in fresh]
        evals_used += len(newly)
        evaluated_in_current += len(newly)
        new_ok = [(p, cache[p]) for p in newly if cache[p] is not None]
        failures += sum(1 for p in newly if cache[p] is None)
        stalls = stalls + 1 if not newly else 0

        optimizer.observe([(p, v if v is not None else math.nan) for p, v in results])

        # the match depends only on the surrogate, so it is redone only in a
        # batch that changed it
        if new_ok:
            sampler.add([p for p, _ in new_ok], [v for _, v in new_ok])
            if cfg.kb:
                if index is None:
                    index = matcher.KbIndex(cfg.kb, space, sample)
                current = matcher.Sampled(space, sample, sampler.values())
                match = matcher.select_previous(index, current, cfg.prune_cfg.corr_threshold)

        p_aggr_used: Optional[float] = None
        if match is not None:
            prior = next(r for r in cfg.kb if r.id == match.prior_id)
            if cfg.prune_cfg.aggressiveness == AUTO:
                p_aggr_used = _auto_aggressiveness(prior, cfg.prune_cfg)
            else:
                p_aggr_used = float(cfg.prune_cfg.aggressiveness)
            # pruning is idempotent, so the same prior and aggressiveness
            # against an unchanged space cannot shrink it further
            if (prior.id, p_aggr_used) != last_prune_key:
                outcome = prune(prior, current_space, p_aggr_used, cfg.min_evidence)
                last_prune_key = (prior.id, p_aggr_used)
                if outcome.new_space.domains != current_space.domains:
                    optimizer.apply_space_update(outcome.new_space)
                    current_space = outcome.new_space
                    remaining = feasible_size(current_space)
                    evaluated_in_current = sum(1 for p in cache if optimizer.point_in_current(p))

        batch_index += 1
        history.append(BatchRow(
            batch_index=batch_index,
            evals_used=evals_used,
            best_value=optimizer.best_value,
            space_size=space_size(current_space),
            matched_prior=match.prior_id if match else "",
            n_corr=match.n_corr if match else None,
            p_aggr=p_aggr_used,
        ))

        if evals_used >= budget:
            break
        if evaluated_in_current >= remaining:
            break
        if stalls >= cfg.stall_limit:
            break

    return RunReport(
        best_point=optimizer.best_point,
        best_value=optimizer.best_value,
        evaluations=evals_used,
        failures=failures,
        history=history,
        wall_time=time.perf_counter() - started,
    )
