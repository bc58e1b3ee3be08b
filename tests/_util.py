"""Shared helpers and independent reference implementations used as
oracles by the test suite.  The references here are deliberately naive
(line-by-line loops over points, pairs, and values) so they cannot share
bugs with the vectorized library code.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from jobpruner.space import (CATEGORICAL, ORDINAL, ExperimentRecord, Job,
                             ParamDomain, SearchSpace)


def grid_space(*cards: int, kinds=None, names=None) -> SearchSpace:
    """Search space with integer-valued domains of the given sizes."""
    domains = []
    for i, card in enumerate(cards):
        kind = kinds[i] if kinds else ORDINAL
        name = names[i] if names else f"p{i}"
        values = tuple(range(card)) if kind == ORDINAL else tuple(f"v{j}" for j in range(card))
        domains.append(ParamDomain(name=name, values=values, kind=kind))
    return SearchSpace(tuple(domains))


def record_of(space: SearchSpace, point_outputs, rec_id: str = "rec") -> ExperimentRecord:
    jobs = tuple(Job(point=tuple(p), output=float(v)) for p, v in point_outputs)
    return ExperimentRecord(id=rec_id, space=space, jobs=jobs)


def random_space(rng: np.random.Generator, max_points: int = 500,
                 allow_categorical: bool = True) -> SearchSpace:
    ndim = int(rng.integers(1, 5))
    cards = []
    budget = max_points
    for _ in range(ndim):
        hi = max(2, min(8, budget))
        card = int(rng.integers(1, hi + 1))
        cards.append(card)
        budget = max(1, budget // card)
    kinds = [CATEGORICAL if allow_categorical and rng.random() < 0.25 else ORDINAL
             for _ in cards]
    return grid_space(*cards, kinds=kinds)


def random_record(rng: np.random.Generator, space: SearchSpace,
                  rec_id: str = "rec", n_jobs=None) -> ExperimentRecord:
    from jobpruner.space import enumerate_points
    points = list(enumerate_points(space))
    if n_jobs is None:
        n_jobs = int(rng.integers(1, len(points) + 1))
    n_jobs = min(n_jobs, len(points))
    chosen = rng.choice(len(points), size=n_jobs, replace=False)
    outputs = rng.normal(size=n_jobs)
    if rng.random() < 0.5:
        outputs = np.abs(outputs)  # sometimes all-positive, sometimes mixed sign
    return record_of(space, [(points[i], outputs[j]) for j, i in enumerate(chosen)],
                     rec_id=rec_id)


# ---------------------------------------------------------------------------
# Reference implementations (oracles)
# ---------------------------------------------------------------------------

def ref_n_corr(f, p) -> float:
    """Direct loop evaluation of the normalized cross-correlation."""
    s = len(f)
    fbar = sum(f) / s
    pbar = sum(p) / s
    sig_f = math.sqrt(sum((x - fbar) ** 2 for x in f) / s)
    sig_p = math.sqrt(sum((x - pbar) ** 2 for x in p) / s)
    total = sum((fi - fbar) * (pi - pbar) for fi, pi in zip(f, p))
    return total / (s * sig_f * sig_p)


def ref_prune(prior: ExperimentRecord, space: SearchSpace, p_aggr: float):
    """Literal per-value reference pruner.

    Removes a value when the prior evaluated it and every such evaluation
    fell below ``p_aggr * max(outputs)`` (outputs shifted by -min first
    when the maximum is non-positive).  A domain that would empty keeps
    its single best value.  Returns the kept values per dimension.
    """
    outputs = [job.output for job in prior.jobs]
    if max(outputs) <= 0:
        shift = -min(outputs)
        outputs = [o + shift for o in outputs]
    cut_val = p_aggr * max(outputs)
    kept_per_dim = []
    for axis, domain in enumerate(space.domains):
        kept = []
        best_value, best_score = None, -math.inf
        for value in domain.values:
            prior_idx = prior.space.domains[axis].values.index(value)
            evals = [outputs[j] for j, job in enumerate(prior.jobs)
                     if job.point[axis] == prior_idx]
            if evals and all(e < cut_val for e in evals):
                removed = True
            else:
                removed = False
            score = max(evals) if evals else -math.inf
            if score > best_score:
                best_score, best_value = score, value
            if not removed:
                kept.append(value)
        if not kept:
            kept = [best_value]
        kept_per_dim.append(tuple(kept))
    return kept_per_dim


def ref_variogram(prior: ExperimentRecord, bin_width: float):
    """All-pairs loop reference for the binned semivariances."""
    from jobpruner.surrogate import distance
    jobs = prior.jobs
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for i in range(len(jobs)):
        for j in range(i + 1, len(jobs)):
            d = distance(prior.space, jobs[i].point, jobs[j].point)
            b = int(math.floor(d / bin_width))
            sums[b] = sums.get(b, 0.0) + (jobs[i].output - jobs[j].output) ** 2
            counts[b] = counts.get(b, 0) + 1
    bins = sorted(counts)
    lags = [(b + 0.5) * bin_width for b in bins]
    semis = [sums[b] / (2.0 * counts[b]) for b in bins]
    ncounts = [counts[b] for b in bins]
    return lags, semis, ncounts


def ref_knn(space: SearchSpace, train_points, query, k: int) -> list[int]:
    """Training-row indices of the k nearest neighbors of `query`, nearest
    first, ties toward the lexicographically smaller point; one scalar
    distance per training point."""
    from jobpruner.surrogate import distance
    rows = sorted(range(len(train_points)),
                  key=lambda t: (distance(space, train_points[t], query), tuple(train_points[t])))
    return rows[:k]


def ref_feasible_points(space: SearchSpace) -> list[tuple[int, ...]]:
    """Every feasible point in lexicographic order: the whole grid, each
    point tested by the expression over all of its values."""
    grid = itertools.product(*(range(c) for c in space.cardinalities))
    return [p for p in grid
            if space.feasibility is None or space.feasibility(space.value_env(p))]
