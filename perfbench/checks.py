"""Correctness checks on benchmark runs, computed apart from the program.

Each check takes one run (or the runs of a measurement) plus the
benchmark's own reference data and returns None when the run passes, or
a message saying what is wrong.  The references are plain numpy: table
lookups by flat index, a boolean feasibility mask, per-value prior
maxima and brute-force nearest neighbours.  None of them calls
jobpruner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Row:
    """One report row, as the CSV has it."""

    batch_index: int
    evals_used: int
    best_value: float
    space_size: int
    matched_prior: str
    n_corr: Optional[float]
    p_aggr: Optional[float]


@dataclass
class RunRecord:
    """What one experiment produced, as seen from outside the program."""

    label: str                 # runs with the same label must produce the same report
    subject: int               # row of the reference table the app evaluated
    p_aggr: object             # requested aggressiveness: a float or "auto"
    budget: int
    seconds: float
    csv: str                   # the report CSV text
    rows: list[Row]
    best_point: Optional[tuple]
    best_value: float
    # per-dimension value indices of the final space, as the prune calls
    # left it; None when no probe could watch the prune calls
    kept: Optional[list[np.ndarray]] = None
    # jobs that failed (no value); None when nothing could count them
    failures: Optional[int] = None


@dataclass
class Reference:
    """The benchmark's own view of a workload's landscapes and priors."""

    values: np.ndarray         # (subjects, N) objective by lexicographic flat index
    shape: tuple[int, ...]
    feasible: np.ndarray       # (N,) bool
    priors: dict = field(default_factory=dict)  # id -> (points (t, n) int64, outputs (t,))

    def flat(self, point) -> int:
        return int(np.ravel_multi_index(tuple(int(i) for i in point), self.shape))

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


def parse_csv(text: str) -> list[Row]:
    lines = text.strip("\n").split("\n")
    rows = []
    for line in lines[1:]:
        b, e, best, size, prior, corr, p = line.split(",")
        rows.append(Row(int(b), int(e), float(best), int(size), prior,
                        float(corr) if corr else None, float(p) if p else None))
    return rows


# ---------------------------------------------------------------------------
# Per-run checks
# ---------------------------------------------------------------------------

def check_lookup(run: RunRecord, ref: Reference) -> Optional[str]:
    """best_value equals the table entry at best_point, bit for bit."""
    if run.best_point is None:
        return "no best point"
    expected = float(ref.values[run.subject, ref.flat(run.best_point)])
    if run.best_value != expected:
        return f"best_value {run.best_value!r} != table value {expected!r} at {run.best_point}"
    if run.rows and run.rows[-1].best_value != run.best_value:
        return f"last report row best_value {run.rows[-1].best_value!r} != {run.best_value!r}"
    return None


def check_optimum(run: RunRecord, ref: Reference) -> Optional[str]:
    """best_value is at most the optimum over the feasible points, and the
    best point itself is feasible."""
    optimum = float(ref.values[run.subject][ref.feasible].max())
    if run.best_value > optimum:
        return f"best_value {run.best_value!r} exceeds the feasible optimum {optimum!r}"
    if run.best_point is not None and not ref.feasible[ref.flat(run.best_point)]:
        return f"best point {run.best_point} is infeasible"
    return None


def check_no_failures(run: RunRecord, ref: Reference) -> Optional[str]:
    """Every job returned a value: the table app and the awk command
    cannot fail, so a failed job is a fault of the run, not of the app."""
    if run.failures:
        return f"{run.failures} jobs failed"
    return None


def check_budget(run: RunRecord, ref: Reference) -> Optional[str]:
    if not run.rows:
        return "empty report"
    used = run.rows[-1].evals_used
    if used > run.budget:
        return f"{used} evaluations exceed the budget of {run.budget}"
    return None


def check_monotone(run: RunRecord, ref: Reference) -> Optional[str]:
    """evals_used and best_value never decrease, space_size never grows."""
    for prev, row in zip(run.rows, run.rows[1:]):
        if row.evals_used < prev.evals_used:
            return f"evals_used decreases at batch {row.batch_index}"
        if row.best_value < prev.best_value:
            return f"best_value decreases at batch {row.batch_index}"
        if row.space_size > prev.space_size:
            return f"space_size grows at batch {row.batch_index}"
    return None


def check_no_prune_at_zero(run: RunRecord, ref: Reference) -> Optional[str]:
    if run.p_aggr == 0 and any(row.space_size != ref.size for row in run.rows):
        return "a run at p = 0 reduced the space"
    return None


def prior_value_maxima(points: np.ndarray, outputs: np.ndarray,
                       shape: tuple[int, ...]) -> tuple[list[np.ndarray], float]:
    """Per dimension, the largest prior output at each value (NaN where the
    prior never tried it, so that no cutoff condemns it), plus the largest
    output.  Outputs are shifted
    by -min when their maximum is not positive, as the README states."""
    if outputs.max() <= 0:
        outputs = outputs - outputs.min()
    maxima = []
    for dim, card in enumerate(shape):
        column = points[:, dim]
        maxima.append(np.array([outputs[column == v].max() if (column == v).any() else np.nan
                                for v in range(card)]))
    return maxima, float(outputs.max())


def check_removed_values(run: RunRecord, ref: Reference) -> Optional[str]:
    """Every removed value has a prior maximum below p * max for at least
    one (prior, p_aggr) pair the report names, and the kept values
    multiply out to the final space size."""
    if run.kept is None:
        return None  # the prune probe found no target: nothing to compare
    final = math.prod(len(k) for k in run.kept)
    if run.rows[-1].space_size != final:
        return f"final space_size {run.rows[-1].space_size} != {final} kept points"
    pairs = {(row.matched_prior, row.p_aggr) for row in run.rows if row.matched_prior}
    evidence = []
    for prior_id, p in pairs:
        if prior_id not in ref.priors:
            return f"report names unknown prior {prior_id!r}"
        maxima, top = prior_value_maxima(*ref.priors[prior_id], ref.shape)
        evidence.append((maxima, p * top))
    for dim, card in enumerate(ref.shape):
        for value in sorted(set(range(card)) - set(int(v) for v in run.kept[dim])):
            if not any(maxima[dim][value] < cut for maxima, cut in evidence):
                return (f"value {value} of dimension {dim} was removed without prior "
                        f"evidence below the cutoff")
    return None


RUN_CHECKS = (check_lookup, check_optimum, check_no_failures, check_budget, check_monotone,
              check_no_prune_at_zero, check_removed_values)


# ---------------------------------------------------------------------------
# Checks across runs and of single layers
# ---------------------------------------------------------------------------

def check_same_output(runs: list[RunRecord]) -> Optional[str]:
    """Runs with the same label (same inputs and seed) wrote identical
    report CSVs."""
    first: dict[str, str] = {}
    for run in runs:
        if first.setdefault(run.label, run.csv) != run.csv:
            return f"two runs of {run.label} wrote different reports"
    return None


def knn_reference(points: np.ndarray, outputs: np.ndarray, queries: np.ndarray,
                  shape: tuple[int, ...], k: int) -> np.ndarray:
    """Brute-force k-NN mean over ordinal dimensions: normalized index
    distance on a common integer scale, ties toward the lexicographically
    smaller training point."""
    scale = math.lcm(*(c - 1 for c in shape if c > 1))
    weights = np.array([scale // (c - 1) if c > 1 else 0 for c in shape], dtype=np.int64)
    dist = (np.abs(queries[:, None, :] - points[None, :, :]) * weights).sum(axis=2)
    rank = np.ravel_multi_index(tuple(points.T), shape)
    order = np.lexsort((np.broadcast_to(rank, dist.shape), dist))
    return outputs[order[:, :min(k, len(points))]].mean(axis=1)


def check_knn(predicted: np.ndarray, expected: np.ndarray) -> Optional[str]:
    bad = np.flatnonzero(predicted != expected)
    if len(bad):
        i = int(bad[0])
        return (f"sample_on differs from brute-force k-NN at {len(bad)} of "
                f"{len(expected)} points (first: {predicted[i]!r} vs {expected[i]!r})")
    return None


def run_all(runs: list[RunRecord], ref: Reference) -> list[str]:
    errors = []
    for run in runs:
        for check in RUN_CHECKS:
            message = check(run, ref)
            if message is not None:
                errors.append(f"{run.label}: {check.__name__}: {message}")
    message = check_same_output(runs)
    if message is not None:
        errors.append(f"check_same_output: {message}")
    return errors
