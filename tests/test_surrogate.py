import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jobpruner.space import CATEGORICAL, Job, SpaceError, enumerate_points
from jobpruner.surrogate import (DEFAULT_K, SpaceEncoding, Surrogate,
                                 SurrogateError, distance, fit, knn_indices)

from _util import grid_space, ref_knn


def _jobs(space, pairs):
    return [Job(point=tuple(p), output=float(v)) for p, v in pairs]


class TestFit:
    def test_single_job_clamps_effective_k(self):
        space = grid_space(4)
        s = fit(_jobs(space, [((0,), 0.7)]), space, k=3)
        assert s.effective_k == 1
        assert s.predict((3,)) == 0.7

    def test_duplicate_training_point_rejected(self):
        space = grid_space(4)
        with pytest.raises(SpaceError):
            fit(_jobs(space, [((0,), 0.1), ((0,), 0.2)]), space)

    def test_empty_jobs_rejected(self):
        with pytest.raises(SurrogateError, match="no training data"):
            fit([], grid_space(4))

    def test_invalid_k_rejected(self):
        space = grid_space(4)
        with pytest.raises(SurrogateError):
            fit(_jobs(space, [((0,), 1.0)]), space, k=0)

    def test_k5_prediction_is_mean_of_five_nearest(self):
        rng = np.random.default_rng(3)
        space = grid_space(6, 6)
        points = [(i, j) for i in range(6) for j in range(6)]
        chosen = [points[i] for i in rng.choice(len(points), size=10, replace=False)]
        outputs = rng.uniform(size=10)
        s = fit(_jobs(space, zip(chosen, outputs)), space, k=5)
        query = (2, 3)
        # brute-force five nearest by (distance, lexicographic point)
        order = sorted(range(10), key=lambda t: (distance(space, chosen[t], query), chosen[t]))
        expected = float(np.mean([outputs[t] for t in order[:5]]))
        assert s.predict(query) == pytest.approx(expected, abs=1e-12)


class TestPredict:
    def test_training_point_with_k1_returns_its_output(self):
        space = grid_space(5)
        s = fit(_jobs(space, [((1,), 0.4), ((3,), 0.9)]), space, k=1)
        assert s.predict((1,)) == 0.4

    def test_midpoint_between_two_training_points(self):
        space = grid_space(3)
        s = fit(_jobs(space, [((0,), 0.0), ((2,), 1.0)]), space, k=2)
        assert s.predict((1,)) == pytest.approx(0.5)

    def test_constant_training_outputs(self):
        space = grid_space(4, 4)
        jobs = _jobs(space, [((i, i), 0.25) for i in range(4)])
        s = fit(jobs, space, k=3)
        for point in enumerate_points(space):
            assert s.predict(point) == pytest.approx(0.25)

    def test_invalid_point_rejected(self):
        space = grid_space(3)
        s = fit(_jobs(space, [((0,), 1.0)]), space)
        with pytest.raises(SpaceError):
            s.predict((7,))


class TestSampleOn:
    def test_empty_sample(self):
        space = grid_space(3)
        s = fit(_jobs(space, [((0,), 1.0)]), space)
        assert len(s.sample_on([])) == 0

    def test_training_points_with_k1(self):
        space = grid_space(5)
        pairs = [((0,), 0.3), ((2,), 0.8), ((4,), 0.1)]
        s = fit(_jobs(space, pairs), space, k=1)
        got = s.sample_on([p for p, _ in pairs])
        assert list(got) == [0.3, 0.8, 0.1]

    def test_matches_individual_predicts_on_full_enumeration(self):
        space = grid_space(2, 2)
        s = fit(_jobs(space, [((0, 0), 0.1), ((1, 1), 0.9)]), space, k=2)
        points = list(enumerate_points(space))
        vec = s.sample_on(points)
        assert [s.predict(p) for p in points] == pytest.approx(list(vec))


class TestDistance:
    def test_ordinal_normalized_index_distance(self):
        space = grid_space(5)  # cardinality 5 -> denominator 4
        assert distance(space, (0,), (4,)) == pytest.approx(1.0)
        assert distance(space, (1,), (2,)) == pytest.approx(0.25)

    def test_categorical_zero_one(self):
        space = grid_space(3, kinds=[CATEGORICAL])
        assert distance(space, (0,), (0,)) == 0.0
        assert distance(space, (0,), (2,)) == 1.0

    def test_mixed_sum(self):
        space = grid_space(3, 4, kinds=["ordinal", CATEGORICAL])
        assert distance(space, (0, 1), (2, 2)) == pytest.approx(1.0 + 1.0)

    def test_encoding_cityblock_agrees_with_scalar_metric(self):
        rng = np.random.default_rng(11)
        space = grid_space(4, 3, 5, kinds=["ordinal", CATEGORICAL, "ordinal"])
        enc = SpaceEncoding.for_space(space)
        points = np.array(list(enumerate_points(space)))
        sel = points[rng.choice(len(points), size=12, replace=False)]
        coords = enc.encode(sel)
        scale = enc.scale if enc.exact else 1.0
        for a, b in itertools.combinations(range(12), 2):
            city = np.abs(coords[a] - coords[b]).sum() / scale
            assert city == pytest.approx(distance(space, sel[a], sel[b]), abs=1e-9)


class TestKnnTieBreaking:
    def test_ties_prefer_lexicographically_smaller_points(self):
        space = grid_space(5)
        # (1,) and (3,) are equidistant from (2,): the mean over k=1 must
        # use (1,)
        s = fit(_jobs(space, [((3,), 1.0), ((1,), 0.0)]), space, k=1)
        assert s.predict((2,)) == 0.0

    def test_knn_indices_sorted_nearest_first(self):
        space = grid_space(7)
        enc = SpaceEncoding.for_space(space)
        train = np.array([[0], [3], [6]])
        nn = knn_indices(enc, train, np.array([[2]]), k=3)
        assert list(nn[0]) == [1, 0, 2]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 6))
def test_prediction_is_mean_of_brute_force_neighbors(seed, k):
    rng = np.random.default_rng(seed)
    space = grid_space(4, 4)
    points = [(i, j) for i in range(4) for j in range(4)]
    n = int(rng.integers(1, 12))
    chosen = [points[i] for i in rng.choice(len(points), size=n, replace=False)]
    outputs = rng.normal(size=n)
    s = fit(_jobs(space, zip(chosen, outputs)), space, k=k)
    query = points[int(rng.integers(len(points)))]
    order = sorted(range(n), key=lambda t: (distance(space, chosen[t], query), chosen[t]))
    expected = float(np.mean([outputs[t] for t in order[:min(k, n)]]))
    assert s.predict(query) == pytest.approx(expected, abs=1e-9)


class TestKnnMemory:
    def test_large_sample_is_blockwise_and_exact(self):
        """20,000 queries against 4,000 jobs: the distance matrix alone would
        be 640 MB; blocks of query rows keep the peak far below that."""
        rng = np.random.default_rng(21)
        space = grid_space(10, 10, 10, 10, 10)
        grid = np.array(list(itertools.product(range(10), repeat=5)))
        train = grid[rng.choice(len(grid), size=4000, replace=False)]
        outputs = rng.normal(size=4000)
        s = Surrogate(space=space, points=train, outputs=outputs)
        queries = grid[rng.integers(0, len(grid), size=20_000)]
        tracemalloc.start()
        try:
            got = s.sample_on(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20, peak
        nn = knn_indices(s._enc, train, queries, DEFAULT_K)
        for q in rng.choice(len(queries), size=40, replace=False):
            expected = ref_knn(space, train, queries[q], DEFAULT_K)
            assert list(nn[q]) == expected
            assert got[q] == np.mean(outputs[expected])
