"""k-nearest-neighbor surrogate over a discrete search space.

The distance between two points is a per-parameter sum: ordinal
parameters contribute ``|i - j| / (cardinality - 1)`` (normalized index
distance), categorical parameters contribute 0 when equal and 1
otherwise.  Predictions are the arithmetic mean of the effective-k
nearest training outputs, with ties among equidistant neighbors broken
toward lexicographically smaller index vectors.

Internally distances are computed on an integer scale (the normalized
per-dimension distances multiplied by a common denominator) whenever the
scale fits in 64 bits, which makes the tie-breaking exact and lets the
k-selection run on composite integer keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .space import (CATEGORICAL, ORDINAL, Job, Point, SearchSpace, SpaceError,
                    require_valid)

DEFAULT_K = 3
METRIC_ID = "normalized-mixed"

_INT_SCALE_LIMIT = 2 ** 40
# distances per query block in `knn_indices` (2 MB as float64); larger
# blocks were no faster on the seismic-like priors
_KNN_BLOCK_CELLS = 1 << 18


class SurrogateError(ValueError):
    pass


@dataclass(frozen=True)
class SpaceEncoding:
    """Per-space transform turning index vectors into coordinates whose
    cityblock distance equals the surrogate metric.

    Categorical dimensions become one-hot blocks scaled by 1/2, so two
    distinct labels differ by exactly 1 in cityblock distance.
    """

    space: SearchSpace
    scale: int  # common integer denominator, 0 if too large for exact keys

    @classmethod
    def for_space(cls, space: SearchSpace) -> "SpaceEncoding":
        scale = 2  # categorical one-hot halves need an even scale
        for d in space.domains:
            if d.kind == ORDINAL and d.cardinality > 1:
                scale = math.lcm(scale, d.cardinality - 1)
                if scale > _INT_SCALE_LIMIT:
                    return cls(space, 0)
        return cls(space, scale)

    @property
    def exact(self) -> bool:
        return self.scale > 0

    def encode(self, points: np.ndarray) -> np.ndarray:
        """(m, n) index matrix -> (m, ncols) coordinates.

        Integer-valued when `exact`, else floats on the normalized scale.
        """
        points = np.asarray(points, dtype=np.int64)
        cols = []
        for axis, d in enumerate(self.space.domains):
            idx = points[:, axis]
            if d.kind == ORDINAL:
                if d.cardinality == 1:
                    cols.append(np.zeros(len(points)))
                elif self.exact:
                    cols.append(idx * (self.scale // (d.cardinality - 1)))
                else:
                    cols.append(idx / (d.cardinality - 1))
            else:
                onehot = np.zeros((len(points), d.cardinality))
                onehot[np.arange(len(points)), idx] = self.scale / 2 if self.exact else 0.5
                cols.extend(onehot.T)
        return np.column_stack(cols).astype(np.float64)


def distance(space: SearchSpace, a: Sequence[int], b: Sequence[int]) -> float:
    """Scalar metric between two points (normalized scale)."""
    total = 0.0
    for d, i, j in zip(space.domains, a, b):
        if d.kind == ORDINAL:
            if d.cardinality > 1:
                total += abs(i - j) / (d.cardinality - 1)
        else:
            total += 0.0 if i == j else 1.0
    return total


def _lex_ranks(points: np.ndarray, cards: Sequence[int]) -> np.ndarray:
    """Rank of each index vector in the lexicographic enumeration of the
    full space (a unique, order-preserving integer per point)."""
    ranks = np.zeros(len(points), dtype=np.int64)
    stride = 1
    for axis in range(len(cards) - 1, -1, -1):
        ranks += points[:, axis] * stride
        stride *= cards[axis]
    return ranks


def knn_indices(enc: SpaceEncoding, train_points: np.ndarray,
                query_points: np.ndarray, k: int) -> np.ndarray:
    """(q, k) matrix of training-row indices of the k nearest neighbors of
    each query, nearest first, lexicographic tie-break.

    Queries are processed in blocks of at most ``_KNN_BLOCK_CELLS``
    distances, so memory grows with the training set, not with
    queries x training set.
    """
    train_points = np.asarray(train_points, dtype=np.int64)
    query_points = np.asarray(query_points, dtype=np.int64)
    t = len(train_points)
    k = min(k, t)
    cards = enc.space.cardinalities
    train_enc = enc.encode(train_points)
    ranks = _lex_ranks(train_points, cards)
    nspace = int(np.prod(cards, dtype=np.int64))
    exact = enc.exact and enc.scale * len(cards) * nspace < 2 ** 62
    # float fallback: stable sort with training pre-ordered lexicographically
    lex_order = None if exact else np.argsort(ranks, kind="stable")
    out = np.empty((len(query_points), k), dtype=np.int64)
    rows = max(1, _KNN_BLOCK_CELLS // t)
    for start in range(0, len(query_points), rows):
        dist = cdist(enc.encode(query_points[start:start + rows]), train_enc, metric="cityblock")
        if not exact:
            order = np.argsort(dist[:, lex_order], axis=1, kind="stable")[:, :k]
            out[start:start + rows] = lex_order[order]
            continue
        keys = np.rint(dist).astype(np.int64) * nspace + ranks[None, :]
        part = np.argpartition(keys, k - 1, axis=1)[:, :k] if k < t else \
            np.tile(np.arange(t), (len(keys), 1))
        sel = np.take_along_axis(keys, part, axis=1)
        out[start:start + rows] = np.take_along_axis(part, np.argsort(sel, axis=1), axis=1)
    return out


@dataclass(frozen=True, eq=False)
class Surrogate:
    """Immutable k-NN predictor fit from evaluated jobs."""

    space: SearchSpace
    points: np.ndarray  # (t, n) int64
    outputs: np.ndarray  # (t,) float64
    k: int = DEFAULT_K
    metric: str = METRIC_ID
    _enc: SpaceEncoding = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if self._enc is None:
            object.__setattr__(self, "_enc", SpaceEncoding.for_space(self.space))

    @property
    def training_size(self) -> int:
        return len(self.points)

    @property
    def effective_k(self) -> int:
        return min(self.k, self.training_size)

    def predict(self, point: Sequence[int]) -> float:
        point = require_valid(self.space, point)
        return float(self.sample_on([point])[0])

    def sample_on(self, sample: Iterable[Point]) -> np.ndarray:
        """Element-wise predict over an ordered collection of points."""
        sample = np.asarray(list(sample) if not isinstance(sample, np.ndarray) else sample,
                            dtype=np.int64)
        if sample.size == 0:
            return np.zeros(0)
        cards = np.asarray(self.space.cardinalities)
        if (sample < 0).any() or (sample >= cards[None, :]).any():
            raise SpaceError("sample contains out-of-range indices")
        nn = knn_indices(self._enc, self.points, sample, self.effective_k)
        return self.outputs[nn].mean(axis=1)


def fit(jobs: Sequence[Job], space: SearchSpace, k: int = DEFAULT_K) -> Surrogate:
    """Fit a surrogate on done jobs; refitting replaces the training set."""
    if len(jobs) == 0:
        raise SurrogateError("no training data")
    if k < 1:
        raise SurrogateError("k must be at least 1")
    points = []
    outputs = []
    seen = set()
    for job in jobs:
        require_valid(space, job.point)
        if job.point in seen:
            raise SpaceError(f"duplicate training point {job.point}")
        seen.add(job.point)
        points.append(job.point)
        outputs.append(job.output)
    return Surrogate(space=space,
                     points=np.asarray(points, dtype=np.int64),
                     outputs=np.asarray(outputs, dtype=np.float64),
                     k=k)
