import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jobpruner.matcher import (DegenerateSurrogateError, MatchError, Sampled,
                               comparison_sample, ensure_surrogate, n_corr,
                               pairwise_best_correlations, select_previous)
from jobpruner.orchestrator import RunConfig, report_to_csv, run
from jobpruner.pruner import PruneConfig
from jobpruner.space import enumerate_points, space_from_dict, space_to_dict
from jobpruner.surrogate import Surrogate, fit

from _util import grid_space, random_record, random_space, record_of, ref_n_corr


def _full_record(space, values, rec_id):
    points = list(enumerate_points(space))
    return record_of(space, zip(points, values), rec_id=rec_id)


class TestNCorr:
    def test_self_correlation(self):
        assert n_corr([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]) == pytest.approx(1.0, abs=1e-12)

    def test_negation(self):
        f = [0.2, 0.9, 0.4]
        assert n_corr(f, [-x for x in f]) == pytest.approx(-1.0, abs=1e-12)

    def test_positive_scaling(self):
        assert n_corr([1, 2, 3, 4], [2, 4, 6, 8]) == pytest.approx(1.0, abs=1e-12)

    def test_anti_correlated_binary(self):
        assert n_corr([0, 1, 1, 0], [1, 0, 0, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(MatchError):
            n_corr([1, 2], [1, 2, 3])

    def test_zero_variance(self):
        with pytest.raises(DegenerateSurrogateError):
            n_corr([1, 1, 1], [1, 2, 3])

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = int(rng.integers(2, 40))
            f = rng.normal(size=s)
            p = rng.normal(size=s)
            assert n_corr(f, p) == pytest.approx(ref_n_corr(f, p), abs=1e-9)


class TestNCorrProperties:
    @settings(max_examples=100)
    @given(data=st.data())
    def test_symmetry_and_range(self, data):
        s = data.draw(st.integers(2, 20))
        f = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=s, max_size=s))
        p = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=s, max_size=s))
        if max(f) - min(f) < 1e-6 or max(p) - min(p) < 1e-6:
            return
        a = n_corr(f, p)
        b = n_corr(p, f)
        assert a == pytest.approx(b, abs=1e-12)
        assert -1.0 <= a <= 1.0

    @settings(max_examples=100)
    @given(data=st.data())
    def test_positive_affine_invariance(self, data):
        s = data.draw(st.integers(2, 20))
        f = data.draw(st.lists(st.floats(-100, 100), min_size=s, max_size=s))
        p = data.draw(st.lists(st.floats(-100, 100), min_size=s, max_size=s))
        a = data.draw(st.floats(0.01, 50))
        b = data.draw(st.floats(-50, 50))
        if max(f) - min(f) < 1e-6 or max(p) - min(p) < 1e-6:
            return
        scaled = [a * x + b for x in f]
        assert n_corr(scaled, p) == pytest.approx(n_corr(f, p), abs=1e-9)


class TestSelectPrevious:
    def test_copy_of_current_matches_with_full_correlation(self):
        space = grid_space(4, 4)
        rng = np.random.default_rng(0)
        values = rng.uniform(size=16)
        current = ensure_surrogate(_full_record(space, values, "cur"))
        kb = [_full_record(space, values, "twin")]
        result = select_previous(kb, current, threshold=0.5)
        assert result is not None
        assert result.prior_id == "twin"
        assert result.n_corr == pytest.approx(1.0, abs=1e-9)

    def test_empty_kb(self):
        space = grid_space(4)
        current = ensure_surrogate(_full_record(space, [0.1, 0.9, 0.3, 0.5], "cur"))
        assert select_previous([], current, threshold=0.5) is None

    def test_high_threshold_filters_weak_matches(self):
        space = grid_space(8)
        rng = np.random.default_rng(1)
        base = rng.uniform(size=8)
        current = ensure_surrogate(_full_record(space, base, "cur"))
        weak = base + rng.normal(scale=2.0, size=8)
        kb = [_full_record(space, weak, "weak")]
        scored = select_previous(kb, current, threshold=-1.0)
        assert scored is not None and scored.n_corr < 0.95
        assert select_previous(kb, current, threshold=0.95) is None

    def test_structural_mismatch_names_the_record(self):
        space = grid_space(4)
        current = ensure_surrogate(_full_record(space, [0.1, 0.9, 0.3, 0.5], "cur"))
        kb = [_full_record(grid_space(5), [0.1, 0.9, 0.3, 0.5, 0.2], "odd")]
        with pytest.raises(MatchError, match="odd"):
            select_previous(kb, current, threshold=0.5)

    def test_constant_current_surrogate_is_no_match(self):
        space = grid_space(4)
        current = ensure_surrogate(_full_record(space, [0.5] * 4, "cur"))
        kb = [_full_record(space, [0.1, 0.9, 0.3, 0.5], "p")]
        assert select_previous(kb, current, threshold=0.0) is None

    def test_tie_breaks_toward_smaller_prior_id(self):
        space = grid_space(4)
        values = [0.1, 0.9, 0.3, 0.5]
        current = ensure_surrogate(_full_record(space, values, "cur"))
        kb = [_full_record(space, values, "b"), _full_record(space, values, "a")]
        result = select_previous(kb, current, threshold=0.5)
        assert result.prior_id == "a"


class TestComparisonSample:
    def test_small_space_full_enumeration(self):
        space = grid_space(3, 2)
        sample = comparison_sample(space)
        assert [tuple(p) for p in sample] == list(enumerate_points(space))

    def test_large_space_deterministic_draw(self):
        space = grid_space(40, 40, 40)  # 64000 > limit
        a = comparison_sample(space)
        b = comparison_sample(space)
        assert a.shape[0] == 20_000
        assert np.array_equal(a, b)


class TestPairwiseBestCorrelations:
    def test_two_identical_experiments(self):
        space = grid_space(4)
        values = [0.1, 0.9, 0.3, 0.5]
        best, mean = pairwise_best_correlations(
            [_full_record(space, values, "a"), _full_record(space, values, "b")])
        assert best == pytest.approx([1.0, 1.0], abs=1e-9)
        assert mean == pytest.approx(1.0, abs=1e-9)

    def test_negated_third_experiment(self):
        space = grid_space(6)
        values = np.array([0.1, 0.9, 0.3, 0.5, 0.7, 0.2])
        records = [_full_record(space, values, "a"),
                   _full_record(space, values, "b"),
                   _full_record(space, -values, "c")]
        # the negated record is evaluated through a k-NN surrogate, so its
        # correlation against the others is strongly negative but only
        # exactly -1 when k=1 reproduces the raw outputs
        for r in records:
            object.__setattr__(r, "surrogate", fit(r.jobs, space, k=1))
        best, mean = pairwise_best_correlations(records)
        assert best[0] == pytest.approx(1.0, abs=1e-9)
        assert best[1] == pytest.approx(1.0, abs=1e-9)
        assert best[2] == pytest.approx(-1.0, abs=1e-9)
        assert mean == pytest.approx(np.mean(best), abs=1e-12)

    def test_needs_two_experiments(self):
        space = grid_space(4)
        with pytest.raises(MatchError):
            pairwise_best_correlations([_full_record(space, [0.1, 0.2, 0.3, 0.4], "a")])


class TestRecordMemo:
    """Prior-derived values are computed once per record object and reused."""

    @staticmethod
    def _kb_and_app(space):
        rng = np.random.default_rng(4)
        points = list(enumerate_points(space))
        truth = {p: -float((p[0] - 3) ** 2 + (p[1] - 2) ** 2) for p in points}
        kb = [_full_record(space, [truth[p] + rng.normal(scale=0.5) for p in points], f"prior{i}")
              for i in range(2)]
        return kb, (lambda point: truth[tuple(point)])

    def test_record_in_two_runs_is_sampled_once(self, monkeypatch):
        space = grid_space(6, 6)
        kb, app = self._kb_and_app(space)
        calls = []
        original = Surrogate.sample_on

        def counting(self, sample):
            calls.append(self)
            return original(self, sample)

        monkeypatch.setattr(Surrogate, "sample_on", counting)
        for seed in (1, 2):
            report = run(RunConfig(space=space, app=app, budget=20, seed=seed, batch_size=5, kb=kb,
                                   prune_cfg=PruneConfig(aggressiveness=0.5)))
            assert any(row.matched_prior for row in report.history)
        for record in kb:
            assert sum(c is ensure_surrogate(record) for c in calls) == 1

    def test_one_vector_per_feasibility_constraint(self):
        space = grid_space(6, 6)
        doc = space_to_dict(space)
        doc["feasibility"] = "p0 + p1 < 6"
        constrained = space_from_dict(doc)
        kb, app = self._kb_and_app(space)

        def constrained_run(records):
            return report_to_csv(run(RunConfig(space=constrained, app=app, budget=12, seed=3,
                                               batch_size=4, kb=records)))

        fresh = constrained_run(self._kb_and_app(space)[0])
        run(RunConfig(space=space, app=app, budget=12, seed=3, batch_size=4, kb=kb))
        assert constrained_run(kb) == fresh
        lengths = {key[1]: len(value[0]) for key, value in kb[0]._memo.items()
                   if key[0] == "sample"}
        assert lengths == {None: 36, "p0 + p1 < 6": 21}

    def test_records_sharing_an_id_do_not_share_vectors(self):
        space = grid_space(8)
        rng = np.random.default_rng(9)
        current = ensure_surrogate(_full_record(space, rng.uniform(size=8), "cur"))
        a = _full_record(space, rng.uniform(size=8), "same")
        b = _full_record(space, rng.uniform(size=8), "same")
        sample = comparison_sample(space)
        got = [select_previous([r], current, threshold=-2.0).n_corr for r in (a, b, a)]
        expected = [n_corr(current.sample_on(sample), fit(r.jobs, space).sample_on(sample))
                    for r in (a, b, a)]
        assert got == expected
        assert got[0] != got[1]

    def test_scores_equal_n_corr_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            space = random_space(rng, max_points=200)
            current = ensure_surrogate(random_record(rng, space, "cur"))
            sample = comparison_sample(space)
            values = current.sample_on(sample)
            kb = [random_record(rng, space, f"p{i}") for i in range(4)]
            expected = {}
            # a flat current surrogate matches nothing, before any score
            for record in kb if np.ptp(values) > 0 else ():
                try:
                    expected[record.id] = n_corr(values, fit(record.jobs, space).sample_on(sample))
                except MatchError:
                    pass
            for record in kb:
                for query in (current, Sampled(space, sample, values)):
                    result = select_previous([record], query, threshold=-2.0)
                    assert (result and result.n_corr) == expected.get(record.id)
            best = select_previous(kb, current, threshold=-2.0)
            if expected:
                top = max(expected.values())
                assert best.n_corr == top
                assert best.prior_id == min(k for k, v in expected.items() if v == top)
            else:
                assert best is None
