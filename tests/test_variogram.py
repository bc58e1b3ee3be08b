import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jobpruner.pruner import PruneConfig
from jobpruner.space import Job, enumerate_points
from jobpruner.surrogate import distance
from jobpruner.variogram import (FALLBACK_AGGRESSIVENESS, VariogramError,
                                 empirical_variogram, skew_kurtosis,
                                 suggest_aggressiveness)

from _util import grid_space, random_record, random_space, record_of, ref_variogram


def _line_record(outputs, rec_id="rec"):
    space = grid_space(len(outputs))
    return record_of(space, [((i,), v) for i, v in enumerate(outputs)], rec_id=rec_id)


class TestEmpiricalVariogram:
    def test_constant_outputs(self):
        v = empirical_variogram(_line_record([0.5] * 10))
        assert np.all(v.semivariances == 0.0)
        assert v.nugget == 0.0
        assert v.sill == 0.0

    def test_two_jobs(self):
        v = empirical_variogram(_line_record([0.0, 2.0]))
        assert len(v.lags) == 1
        assert v.semivariances[0] == pytest.approx(2.0)  # (1/2) * 2^2 / 1
        assert v.pair_counts[0] == 1

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        outputs = rng.uniform(size=12)
        space = grid_space(12)
        pairs = [((i,), v) for i, v in enumerate(outputs)]
        a = empirical_variogram(record_of(space, pairs))
        b = empirical_variogram(record_of(space, pairs[::-1]))
        assert np.allclose(a.lags, b.lags)
        assert np.allclose(a.semivariances, b.semivariances, atol=1e-12)
        assert np.array_equal(a.pair_counts, b.pair_counts)

    def test_fewer_than_two_jobs_rejected(self):
        with pytest.raises(VariogramError):
            empirical_variogram(record_of(grid_space(3), [((0,), 1.0)]))

    def test_non_positive_bin_width_rejected(self):
        with pytest.raises(VariogramError):
            empirical_variogram(_line_record([0.0, 1.0, 2.0]), bin_width=0.0)

    def test_shift_invariance_and_quadratic_scaling(self):
        rng = np.random.default_rng(9)
        outputs = rng.uniform(size=10)
        base = empirical_variogram(_line_record(outputs))
        shifted = empirical_variogram(_line_record(outputs + 3.7))
        scaled = empirical_variogram(_line_record(outputs * 2.0))
        assert np.allclose(base.semivariances, shifted.semivariances, atol=1e-12)
        assert np.allclose(scaled.semivariances, 4.0 * base.semivariances, atol=1e-12)

    def test_matches_all_pairs_reference(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            space = random_space(rng, max_points=60)
            record = random_record(rng, space, n_jobs=int(rng.integers(2, 30)))
            dmax = max(distance(space, a.point, b.point)
                       for i, a in enumerate(record.jobs)
                       for b in record.jobs[i + 1:])
            # the epsilon keeps bin edges off exact grid-distance multiples,
            # where float noise could flip a pair across a boundary
            bin_width = (dmax / 7 * (1 + 1e-9)) if dmax > 0 else 1.0
            v = empirical_variogram(record, bin_width=bin_width)
            lags, semis, counts = ref_variogram(record, bin_width)
            assert np.allclose(v.lags, lags, atol=1e-12)
            assert np.allclose(v.semivariances, semis, atol=1e-12)
            assert list(v.pair_counts) == counts

    def test_sill_is_population_variance(self):
        rng = np.random.default_rng(2)
        outputs = rng.uniform(size=9)
        v = empirical_variogram(_line_record(outputs))
        assert v.sill == pytest.approx(float(np.var(outputs)), abs=1e-15)


class TestSuggestAggressiveness:
    def test_constant_data_suggests_the_cap(self):
        record = _line_record([0.5] * 12)
        suggestion = suggest_aggressiveness(record, PruneConfig(cap=0.95))
        assert suggestion.value == 0.95
        assert not suggestion.fallback
        suggestion = suggest_aggressiveness(record, PruneConfig(cap=1.0))
        assert suggestion.value == 1.0

    def test_non_normal_data_falls_back(self):
        # heavily right-skewed sample: mostly zeros with two large spikes
        outputs = [0.0] * 14 + [5.0, 6.0]
        suggestion = suggest_aggressiveness(_line_record(outputs), PruneConfig(cap=0.95))
        assert suggestion.fallback
        assert suggestion.value == FALLBACK_AGGRESSIVENESS

    def test_fallback_is_capped(self):
        outputs = [0.0] * 14 + [5.0, 6.0]
        suggestion = suggest_aggressiveness(_line_record(outputs), PruneConfig(cap=0.4))
        assert suggestion.fallback
        assert suggestion.value == 0.4

    def test_smooth_data_matches_closed_form(self):
        rng = np.random.default_rng(21)
        x = np.linspace(0, 2 * np.pi, 40)
        outputs = np.sin(x) + rng.normal(scale=0.05, size=40)
        record = _line_record(outputs)
        suggestion = suggest_aggressiveness(record, PruneConfig(cap=1.0))
        if not suggestion.fallback:
            v = empirical_variogram(record)
            expected = min(max(1.0 - v.nugget / v.sill, 0.0), 1.0)
            assert suggestion.value == pytest.approx(expected, abs=1e-12)

    def test_too_few_jobs_rejected(self):
        with pytest.raises(VariogramError):
            suggest_aggressiveness(_line_record([0.1, 0.4, 0.2]))

    def test_value_always_within_cap(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            space = random_space(rng, max_points=80)
            n_points = len(list(enumerate_points(space)))
            if n_points < 8:
                continue
            record = random_record(rng, space, n_jobs=int(rng.integers(8, n_points + 1)))
            cap = float(rng.uniform(0.3, 1.0))
            suggestion = suggest_aggressiveness(record, PruneConfig(cap=cap))
            assert 0.0 <= suggestion.value <= cap + 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), shift=st.floats(-10, 10))
def test_semivariances_invariant_under_output_shift(seed, shift):
    rng = np.random.default_rng(seed)
    outputs = rng.uniform(size=8)
    a = empirical_variogram(_line_record(outputs))
    b = empirical_variogram(_line_record(outputs + shift))
    assert np.allclose(a.semivariances, b.semivariances, atol=1e-9)


def test_skew_kurtosis_equal_scipy_bit_for_bit():
    from scipy.stats import kurtosis, skew
    rng = np.random.default_rng(29)
    samples = [rng.normal(size=int(rng.integers(2, 300))) for _ in range(300)]
    samples += [rng.exponential(size=int(rng.integers(2, 300))) * 10.0 ** rng.integers(-6, 6)
                for _ in range(300)]
    samples += [rng.integers(0, 3, size=int(rng.integers(2, 50))).astype(float) for _ in range(200)]
    # values one ulp apart: variance above 0 but below the precision floor
    # under which scipy reports NaN
    samples += [1e6 + np.spacing(1e6) * rng.integers(0, 2, size=int(rng.integers(2, 50)))
                for _ in range(200)]
    nans = 0
    with warnings.catch_warnings():
        # scipy warns of catastrophic cancellation on the nearly flat samples
        warnings.simplefilter("ignore", RuntimeWarning)
        for x in samples:
            got = skew_kurtosis(x)
            expected = (float(skew(x)), float(kurtosis(x)))
            nans += np.isnan(expected[0])
            assert np.array_equal(got, expected, equal_nan=True), x
    assert 0 < nans < len(samples)
