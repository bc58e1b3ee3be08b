"""Similarity scoring between the running experiment's surrogate and the
knowledge base, via normalized cross-correlation over a common sample.

The common sample is the full lexicographic enumeration of the feasible
points when there are at most ``FULL_SAMPLE_LIMIT`` of them, otherwise a
deterministic uniform draw of that many points shared by every
comparison in a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import surrogate as sg
from .space import ExperimentRecord, SearchSpace, same_structure, space_size

FULL_SAMPLE_LIMIT = 20_000
_SAMPLE_SEED = 0x5EED


class MatchError(ValueError):
    pass


class DegenerateSurrogateError(MatchError):
    """Zero variance in a sample vector; callers treat this as no-match."""


@dataclass(frozen=True)
class MatchResult:
    prior_id: str
    n_corr: float
    sample_size: int


def n_corr(f_samples: Sequence[float], p_samples: Sequence[float]) -> float:
    """Normalized cross-correlation of two equally long sample vectors.

    Mean-centered, scaled by the product of population standard
    deviations, averaged over the sample; clamped to [-1, 1] on output.
    """
    f = np.asarray(f_samples, dtype=np.float64)
    p = np.asarray(p_samples, dtype=np.float64)
    if f.shape != p.shape or f.ndim != 1:
        raise MatchError(f"sample length mismatch: {f.shape} vs {p.shape}")
    if len(f) < 2:
        raise MatchError("need at least 2 samples")
    return _correlate(*_centred(f), *_centred(p))


def _centred(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Mean-centred vector and its population standard deviation."""
    centred = values - values.mean()
    return centred, np.sqrt((centred ** 2).mean())


def _correlate(fc: np.ndarray, sigma_f: float, pc: np.ndarray, sigma_p: float) -> float:
    """`n_corr` of two vectors given as `_centred` pairs."""
    if sigma_f == 0 or sigma_p == 0:
        raise DegenerateSurrogateError("degenerate surrogate")
    value = float((fc * pc).mean() / (sigma_f * sigma_p))
    return min(1.0, max(-1.0, value))


def comparison_sample(space: SearchSpace, limit: int = FULL_SAMPLE_LIMIT,
                      seed: int = _SAMPLE_SEED) -> np.ndarray:
    """(m, n) matrix of sample points shared by all comparisons.

    Every feasible point in lexicographic order when there are at most
    `limit`, else a seeded draw of `limit` of them without replacement.
    The feasible points are read off the broadcast `space.feasible_table`,
    so the feasibility expression runs once per combination of the values
    of the parameters it names.  An unconstrained space above the limit is
    drawn column by column, with replacement, without enumerating it.
    """
    rng = np.random.default_rng(seed)
    if space.feasibility is None and space_size(space) > limit:
        return np.stack([rng.integers(0, c, size=limit) for c in space.cardinalities],
                        axis=1).astype(np.int64)
    feasible = np.broadcast_to(space.feasible_table, space.cardinalities)
    points = np.ascontiguousarray(np.argwhere(feasible), dtype=np.int64)
    if len(points) <= limit:
        return points
    return points[rng.choice(len(points), size=limit, replace=False)]


@dataclass(frozen=True, eq=False)
class Sampled:
    """A surrogate's predictions over ``comparison_sample(space)``, for a
    caller that keeps the sample across several matches."""

    space: SearchSpace
    sample: np.ndarray
    values: np.ndarray


def ensure_surrogate(record: ExperimentRecord, k: int = sg.DEFAULT_K) -> sg.Surrogate:
    if record.surrogate is not None:
        return record.surrogate
    return record.derived(("surrogate", k), lambda: sg.fit(record.jobs, record.space, k=k))


def _prior_vector(record: ExperimentRecord, space: SearchSpace,
                  sample: np.ndarray) -> tuple[np.ndarray, float]:
    """The record's centred vector and σ over `sample`, which must be
    ``comparison_sample(space)``: computed once per record object and
    feasibility constraint (the domains equal the record's, so the sample
    depends only on the constraint)."""
    key = ("sample", None if space.feasibility is None else space.feasibility.source)
    return record.derived(key, lambda: _centred(ensure_surrogate(record).sample_on(sample)))


def select_previous(kb: Sequence[ExperimentRecord], current: Union[sg.Surrogate, Sampled],
                    threshold: float = 0.5) -> Optional[MatchResult]:
    """Best prior above the correlation threshold, or None.

    `current` is the running experiment's surrogate, or its `Sampled`
    predictions when the caller already holds the comparison sample.
    Ties break toward the smaller prior id.
    """
    if not isinstance(current, Sampled):
        sample = comparison_sample(current.space)
        current = Sampled(current.space, sample, current.sample_on(sample))
    if np.ptp(current.values) == 0:
        return None
    fc, sigma_f = _centred(current.values)
    best: Optional[MatchResult] = None
    for record in kb:
        if not same_structure(record.space, current.space):
            raise MatchError(f"knowledge-base record {record.id!r} has a different search-space structure")
        try:
            value = _correlate(fc, sigma_f, *_prior_vector(record, current.space, current.sample))
        except DegenerateSurrogateError:
            continue
        result = MatchResult(prior_id=record.id, n_corr=value, sample_size=len(current.sample))
        if best is None or value > best.n_corr or (value == best.n_corr and record.id < best.prior_id):
            best = result
    if best is not None and best.n_corr > threshold:
        return best
    return None


def pairwise_best_correlations(experiments: Sequence[ExperimentRecord]) -> tuple[list[float], float]:
    """For each experiment, its best n_corr against all the others over the
    common sample; plus the mean of those maxima."""
    if len(experiments) < 2:
        raise MatchError("need at least 2 experiments")
    space = experiments[0].space
    for record in experiments[1:]:
        if not same_structure(record.space, space):
            raise MatchError(f"record {record.id!r} has a different search-space structure")
    sample = comparison_sample(space)
    vectors = [_prior_vector(r, space, sample) for r in experiments]
    m = len(experiments)
    best = [-np.inf] * m
    for i in range(m):
        for j in range(i + 1, m):
            value = _correlate(*vectors[i], *vectors[j])
            best[i] = max(best[i], value)
            best[j] = max(best[j], value)
    return best, float(np.mean(best))
