"""Experimental variograms over prior-experiment outputs, and the
variogram-based automatic pruning-aggressiveness suggestion.

The semivariance at lag h is half the average squared output difference
over job pairs whose inter-point distance (surrogate metric) falls in
the lag bin.  The sill is the population variance of the outputs; the
nugget extrapolates the first lag bins back to h = 0.  The suggestion is
``1 - nugget / sill`` clamped to [0, cap]; when the outputs are not
plausibly normal/stationary (or the sill degenerates with a nonzero
nugget) a fixed fallback of 0.6 is proposed instead and flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial.distance import pdist

from .pruner import PruneConfig
from .space import ExperimentRecord
from .surrogate import SpaceEncoding

FALLBACK_AGGRESSIVENESS = 0.6
DEFAULT_BIN_COUNT = 15

# configurable proxies for "normally distributed, spatially constant
# mean and variance"
SKEW_LIMIT = 1.0
KURTOSIS_LIMIT = 2.0
MEAN_DRIFT_LIMIT = 1.0  # in global sample standard deviations
VARIANCE_RATIO_LIMIT = 4.0
MIN_JOBS = 8


class VariogramError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Variogram:
    lags: np.ndarray          # bin centers, non-empty bins only
    semivariances: np.ndarray
    pair_counts: np.ndarray
    nugget: float
    sill: float


@dataclass(frozen=True)
class AggressivenessSuggestion:
    value: float
    fallback: bool
    nugget: float
    sill: float
    normal_ok: bool
    stationary_ok: bool


def _pairwise(prior: ExperimentRecord) -> tuple[np.ndarray, np.ndarray]:
    """Condensed pairwise distances (normalized metric) and squared output
    differences over all unordered job pairs."""
    points = np.asarray([j.point for j in prior.jobs], dtype=np.int64)
    outputs = np.asarray([j.output for j in prior.jobs], dtype=np.float64)
    enc = SpaceEncoding.for_space(prior.space)
    coords = enc.encode(points)
    dists = pdist(coords, metric="cityblock")
    if enc.exact:
        dists = dists / enc.scale
    sqdiff = pdist(outputs[:, None], metric="sqeuclidean")
    return dists, sqdiff


def empirical_variogram(prior: ExperimentRecord,
                        bin_width: Optional[float] = None) -> Variogram:
    """Bin all job pairs by distance and average half squared differences.

    Default bin width is max pairwise distance / 15; empty bins are not
    reported.
    """
    if len(prior.jobs) < 2:
        raise VariogramError("need at least 2 done jobs")
    dists, sqdiff = _pairwise(prior)
    outputs = np.asarray([j.output for j in prior.jobs], dtype=np.float64)
    sill = float(outputs.var())
    dmax = float(dists.max())
    if bin_width is None:
        bin_width = dmax / DEFAULT_BIN_COUNT if dmax > 0 else 1.0
    if bin_width <= 0:
        raise VariogramError("bin_width must be positive")
    idx = np.floor(dists / bin_width).astype(np.int64)
    nbins = int(idx.max()) + 1
    counts = np.bincount(idx, minlength=nbins)
    sums = np.bincount(idx, weights=sqdiff, minlength=nbins)
    nonempty = counts > 0
    lags = (np.arange(nbins)[nonempty] + 0.5) * bin_width
    pair_counts = counts[nonempty]
    semivariances = sums[nonempty] / (2.0 * pair_counts)
    nugget = _extrapolate_nugget(lags, semivariances)
    return Variogram(lags=lags, semivariances=semivariances,
                     pair_counts=pair_counts, nugget=nugget, sill=sill)


def _extrapolate_nugget(lags: np.ndarray, semivariances: np.ndarray) -> float:
    """Line through the first two non-empty bins, evaluated at h = 0,
    floored at 0; a single bin contributes its own value."""
    if len(lags) == 1:
        return max(0.0, float(semivariances[0]))
    h1, h2 = lags[0], lags[1]
    v1, v2 = semivariances[0], semivariances[1]
    at_zero = v1 - h1 * (v2 - v1) / (h2 - h1)
    return max(0.0, float(at_zero))


def skew_kurtosis(x: np.ndarray) -> tuple[float, float]:
    """Sample skewness and excess kurtosis, both biased, with the operations
    of `scipy.stats.skew` and `scipy.stats.kurtosis` in their order, so the
    values are the same to the bit; NaN for a sample too flat to tell."""
    mean = x.mean()
    d = x - mean
    m2 = (d ** 2).mean()
    if m2 <= (np.finfo(np.float64).eps * mean) ** 2:
        return math.nan, math.nan
    m3 = (d ** 2 * d).mean()
    m4 = ((d ** 2) ** 2).mean()
    return float(m3 / m2 ** 1.5), float(m4 / m2 ** 2.0 - 3)


def _normality_ok(outputs: np.ndarray) -> bool:
    if outputs.var() == 0:
        return True
    skewness, kurt = skew_kurtosis(outputs)
    return abs(skewness) <= SKEW_LIMIT and abs(kurt) <= KURTOSIS_LIMIT


def _stationarity_ok(prior: ExperimentRecord) -> bool:
    """Split the index space into 2^min(n, 3) half-blocks on the first
    dimensions; every populated block must keep its mean within one
    global standard deviation and its variance within a factor of 4."""
    outputs = np.asarray([j.output for j in prior.jobs], dtype=np.float64)
    gvar = outputs.var()
    if gvar == 0:
        return True
    gmean = outputs.mean()
    gstd = np.sqrt(gvar)
    points = np.asarray([j.point for j in prior.jobs], dtype=np.int64)
    split_dims = [i for i, c in enumerate(prior.space.cardinalities) if c > 1][:3]
    if not split_dims:
        return True
    block_ids = np.zeros(len(points), dtype=np.int64)
    for dim in split_dims:
        half = prior.space.cardinalities[dim] / 2.0
        block_ids = block_ids * 2 + (points[:, dim] >= half)
    for block in np.unique(block_ids):
        sel = outputs[block_ids == block]
        if len(sel) < 2:
            continue
        if abs(sel.mean() - gmean) > MEAN_DRIFT_LIMIT * gstd:
            return False
        bvar = sel.var()
        if bvar > VARIANCE_RATIO_LIMIT * gvar or bvar < gvar / VARIANCE_RATIO_LIMIT:
            return False
    return True


def suggest_aggressiveness(prior: ExperimentRecord,
                           cfg: PruneConfig = PruneConfig()) -> AggressivenessSuggestion:
    if len(prior.jobs) < MIN_JOBS:
        raise VariogramError(f"need at least {MIN_JOBS} done jobs, got {len(prior.jobs)}")
    outputs = np.asarray([j.output for j in prior.jobs], dtype=np.float64)
    vario = empirical_variogram(prior)
    normal_ok = _normality_ok(outputs)
    stationary_ok = _stationarity_ok(prior)
    checks_pass = normal_ok and stationary_ok

    if vario.sill == 0:
        if vario.nugget == 0 and checks_pass:
            # perfectly continuous (constant) data
            value = min(1.0, cfg.cap)
            return AggressivenessSuggestion(value, False, vario.nugget, vario.sill,
                                            normal_ok, stationary_ok)
        return AggressivenessSuggestion(min(FALLBACK_AGGRESSIVENESS, cfg.cap), True,
                                        vario.nugget, vario.sill, normal_ok, stationary_ok)
    if not checks_pass:
        return AggressivenessSuggestion(min(FALLBACK_AGGRESSIVENESS, cfg.cap), True,
                                        vario.nugget, vario.sill, normal_ok, stationary_ok)
    value = 1.0 - vario.nugget / vario.sill
    value = min(max(value, 0.0), cfg.cap)
    return AggressivenessSuggestion(value, False, vario.nugget, vario.sill,
                                    normal_ok, stationary_ok)
