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


class KbIndex:
    """A knowledge base's prior vectors over one comparison sample, stacked
    once so that a match scores every prior in one pass.

    The records must share the structure of `space`; `sample` must be
    ``comparison_sample(space)``.  A degenerate prior (σ = 0 over the
    sample) can never match and is left out.
    """

    def __init__(self, kb: Sequence[ExperimentRecord], space: SearchSpace, sample: np.ndarray):
        for record in kb:
            if not same_structure(record.space, space):
                raise MatchError(f"knowledge-base record {record.id!r} has a different search-space structure")
        vectors = [(record.id, *_prior_vector(record, space, sample)) for record in kb]
        kept = [v for v in vectors if v[2] != 0]
        self.space = space
        self.sample = sample
        self.ids = [v[0] for v in kept]
        self.matrix = np.array([v[1] for v in kept], dtype=np.float64).reshape(len(kept), len(sample))
        self.sigmas = np.array([v[2] for v in kept], dtype=np.float64)

    def best(self, values: np.ndarray, threshold: float) -> Optional[MatchResult]:
        """The best prior for the current predictions `values` over the
        sample when its score exceeds `threshold`, else None."""
        if not self.ids or np.ptp(values) == 0:
            return None
        fc, sigma_f = _centred(values)
        if sigma_f == 0:
            return None
        # a row-wise mean sums in the same order as `_correlate`'s 1-D
        # mean, so every score equals `n_corr` to the bit; a BLAS
        # product would not
        scores = np.clip((self.matrix * fc).mean(axis=1) / (sigma_f * self.sigmas), -1.0, 1.0)
        top = scores.max()
        if not top > threshold:
            return None
        prior_id = min(self.ids[i] for i in np.flatnonzero(scores == top))
        return MatchResult(prior_id=prior_id, n_corr=float(top), sample_size=len(self.sample))


def select_previous(kb: Union[KbIndex, Sequence[ExperimentRecord]],
                    current: Union[sg.Surrogate, Sampled],
                    threshold: float = 0.5) -> Optional[MatchResult]:
    """Best prior above the correlation threshold, or None.

    `kb` is a `KbIndex`, or a sequence of records indexed on the spot
    over the current space's comparison sample.  `current` is the
    running experiment's surrogate, or its `Sampled` predictions when
    the caller already holds that sample.  Ties break toward the smaller
    prior id.
    """
    if not isinstance(kb, KbIndex):
        sample = current.sample if isinstance(current, Sampled) else comparison_sample(current.space)
        kb = KbIndex(kb, current.space, sample)
    elif not same_structure(kb.space, current.space):
        raise MatchError("the knowledge-base index was built for a different search-space structure")
    values = current.values if isinstance(current, Sampled) else current.sample_on(kb.sample)
    return kb.best(values, threshold)


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
