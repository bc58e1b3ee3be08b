import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jobpruner.matcher import comparison_sample
from jobpruner.space import (CATEGORICAL, ExperimentRecord, FeasibilityExpr,
                             Job, ParamDomain, SearchSpace, SpaceError,
                             enumerate_points, feasible_size, is_subspace,
                             load_space, space_from_dict, space_size,
                             space_to_dict, subspace_masks, validate_point)

from _util import grid_space, ref_feasible_points


class TestSpaceSize:
    def test_five_domains_of_four(self):
        assert space_size(grid_space(4, 4, 4, 4, 4)) == 1024

    def test_single_value_domain(self):
        assert space_size(grid_space(1)) == 1

    def test_product_rule(self):
        assert space_size(grid_space(2, 3)) == 6


class TestEnumeratePoints:
    def test_lexicographic_order(self):
        assert list(enumerate_points(grid_space(2, 2))) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_single_point(self):
        assert list(enumerate_points(grid_space(1))) == [(0,)]

    def test_count_matches_size(self):
        space = grid_space(3, 2)
        assert len(list(enumerate_points(space))) == space_size(space) == 6

    def test_feasibility_filters_enumeration(self):
        space = SearchSpace((ParamDomain("a", (0, 1, 2)), ParamDomain("b", (0, 1, 2))),
                            feasibility=FeasibilityExpr("a + b <= 2"))
        points = list(enumerate_points(space))
        assert all(sum(p) <= 2 for p in points)
        assert len(points) == 6


class TestValidatePoint:
    def test_valid_point(self):
        assert validate_point(grid_space(2, 2), (0, 0)) is None

    def test_out_of_range_names_the_domain(self):
        space = grid_space(4, names=["alpha"])
        violation = validate_point(space, (5,))
        assert violation is not None and "alpha" in violation

    def test_feasibility_predicate_rejects(self):
        space = SearchSpace((ParamDomain("a", (0, 1, 2)), ParamDomain("b", (0, 1, 2))),
                            feasibility=FeasibilityExpr("a + b <= 3"))
        assert validate_point(space, (2, 2)) is not None
        assert validate_point(space, (2, 1)) is None

    def test_wrong_arity(self):
        assert validate_point(grid_space(2, 2), (0,)) is not None

    def test_non_integer_index(self):
        space = grid_space(2, 2)
        assert validate_point(space, (0.5, 0)) is not None
        assert validate_point(space, (True, 0)) == "parameter 'p0': index True is not an integer"
        # any other integer type is checked as a Python int
        assert validate_point(space, (np.int64(1), np.uint8(0))) is None
        assert validate_point(space, (0, np.int64(2))) == validate_point(space, (0, 2)) \
            == "parameter 'p1': index 2 outside [0, 1]"

    def test_accepts_exactly_the_enumerated_points(self):
        space = grid_space(3, 2, 2)
        valid = {p for p in enumerate_points(space)}
        for i in range(-1, 4):
            for j in range(-1, 3):
                for k in range(-1, 3):
                    ok = validate_point(space, (i, j, k)) is None
                    assert ok == ((i, j, k) in valid)


class TestDomains:
    def test_empty_domain_rejected(self):
        with pytest.raises(SpaceError):
            ParamDomain("x", ())

    def test_duplicate_values_rejected(self):
        with pytest.raises(SpaceError):
            ParamDomain("x", (1, 1))

    def test_unsorted_ordinal_rejected(self):
        with pytest.raises(SpaceError):
            ParamDomain("x", (2, 1))

    def test_categorical_keeps_declaration_order(self):
        d = ParamDomain("x", ("red", "green", "blue"), kind=CATEGORICAL)
        assert d.values == ("red", "green", "blue")

    def test_duplicate_parameter_names_rejected(self):
        with pytest.raises(SpaceError):
            SearchSpace((ParamDomain("x", (0, 1)), ParamDomain("x", (0, 1))))


class TestRecords:
    def test_duplicate_point_jobs_rejected(self):
        space = grid_space(2, 2)
        with pytest.raises(SpaceError):
            ExperimentRecord(id="r", space=space,
                             jobs=(Job((0, 0), 1.0), Job((0, 0), 2.0)))

    def test_invalid_job_point_rejected(self):
        with pytest.raises(SpaceError):
            ExperimentRecord(id="r", space=grid_space(2), jobs=(Job((5,), 1.0),))

    def test_done_job_needs_finite_output(self):
        with pytest.raises(SpaceError):
            Job((0,), float("nan"))
        with pytest.raises(SpaceError):
            Job((0,), None)


class TestSubspaces:
    def test_identity_is_subspace(self):
        space = grid_space(3, 3)
        assert is_subspace(space, space)

    def test_removed_values_detected(self):
        full = grid_space(3, 3)
        sub = SearchSpace((ParamDomain("p0", (0, 2)), ParamDomain("p1", (0, 1, 2))))
        assert is_subspace(sub, full)
        assert subspace_masks(sub, full) == [[True, False, True], [True, True, True]]

    def test_foreign_value_is_not_subspace(self):
        full = grid_space(3)
        other = SearchSpace((ParamDomain("p0", (0, 1, 5)),))
        assert not is_subspace(other, full)


class TestFeasibilityExpr:
    def test_arithmetic_and_boolean_operators(self):
        expr = FeasibilityExpr("a * 2 + b >= 3 and a - b < 4")
        assert expr({"a": 2, "b": 0})
        assert not expr({"a": 1, "b": 0})

    def test_rejects_calls_and_attributes(self):
        for bad in ("__import__('os')", "a.__class__", "(lambda: 1)()"):
            with pytest.raises(SpaceError):
                FeasibilityExpr(bad)


def _random_constrained_space(rng: np.random.Generator) -> SearchSpace:
    """Up to 5 parameters, some categorical with numeric values in
    declaration order, under a random expression that names a random
    subset of them: chained comparisons, `and`/`or`, unary minus and
    division by a literal."""
    domains = []
    for i in range(int(rng.integers(1, 6))):
        card = int(rng.integers(1, 6))
        values = rng.choice(np.arange(-4, 9), size=card, replace=False).tolist()
        if rng.random() < 0.3:
            domains.append(ParamDomain(f"p{i}", tuple(values), kind=CATEGORICAL))
        else:
            domains.append(ParamDomain(f"p{i}", tuple(sorted(values))))
    named = [d.name for d in domains if rng.random() < 0.6] or [domains[0].name]

    def term(depth):
        if depth == 0 or rng.random() < 0.4:
            return str(rng.choice(named)) if rng.random() < 0.75 else str(int(rng.integers(-3, 6)))
        op = str(rng.choice(["+", "-", "*", "/"]))
        right = str(int(rng.integers(1, 4))) if op == "/" else term(depth - 1)
        text = f"({term(depth - 1)} {op} {right})"
        return f"-{text}" if rng.random() < 0.2 else text

    def comparison():
        parts = [term(2)]
        for _ in range(int(rng.integers(1, 3))):
            parts += [str(rng.choice(["<", "<=", ">", ">=", "==", "!="])), term(2)]
        return " ".join(parts)

    source = comparison()
    for _ in range(int(rng.integers(0, 3))):
        source = f"({source}) {rng.choice(['and', 'or'])} ({comparison()})"
    return SearchSpace(tuple(domains), feasibility=FeasibilityExpr(source))


class TestFeasibilityTable:
    """Counting, enumerating and sampling read feasibility off one table
    over the named parameters; `ref_feasible_points` tests every grid
    point through the expression instead."""

    def test_bulk_operations_equal_the_reference(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            space = _random_constrained_space(rng)
            ref = ref_feasible_points(space)
            assert list(enumerate_points(space)) == ref, space.feasibility
            assert feasible_size(space) == len(ref)
            assert [tuple(p) for p in comparison_sample(space)] == ref
            if len(ref) > 1:
                drawn = np.random.default_rng(7).choice(len(ref), size=len(ref) - 1, replace=False)
                sample = comparison_sample(space, limit=len(ref) - 1, seed=7)
                assert [tuple(p) for p in sample] == [ref[i] for i in drawn]
            assert [p for p in ref if space.is_feasible(p)] == ref

    def test_unconstrained_space_counts_and_enumerates_the_grid(self):
        space = grid_space(3, 1, 4, kinds=["ordinal", CATEGORICAL, "ordinal"])
        assert list(enumerate_points(space)) == ref_feasible_points(space)
        assert feasible_size(space) == 12
        assert [tuple(p) for p in comparison_sample(space)] == ref_feasible_points(space)

    def test_expression_runs_once_per_combination_of_named_values(self, monkeypatch):
        rng = np.random.default_rng(99)
        for _ in range(50):
            built = _random_constrained_space(rng)
            space = SearchSpace(built.domains, feasibility=FeasibilityExpr(built.feasibility.source))
            calls = []
            original = FeasibilityExpr.__call__

            def counted(expr, env):
                calls.append(tuple(sorted(env.items())))
                return original(expr, env)

            monkeypatch.setattr(FeasibilityExpr, "__call__", counted)
            for point in ref_feasible_points(SearchSpace(space.domains)):
                space.is_feasible(point)
            list(enumerate_points(space))
            feasible_size(space)
            comparison_sample(space)
            validate_point(space, (0,) * space.n)
            monkeypatch.undo()
            named = [d for d in space.domains if d.name in space.feasibility.names]
            assert len(calls) == len(set(calls)) == math.prod(d.cardinality for d in named)
            assert all({name for name, _ in env} == {d.name for d in named} for env in calls)

    def test_huge_grid_counts_exactly_and_enumerates_lazily(self):
        domains = tuple(ParamDomain(f"p{i}", tuple(range(10))) for i in range(12))
        tracemalloc.start()
        try:
            space = SearchSpace(domains, feasibility=FeasibilityExpr("p0 + p1 < 3"))
            assert space_size(space) == 10 ** 12
            assert feasible_size(space) == 6 * 10 ** 10
            assert next(enumerate_points(space)) == (0,) * 12
            far = SearchSpace(domains, feasibility=FeasibilityExpr("p0 + p1 > 16"))
            assert next(enumerate_points(far)) == (8, 9) + (0,) * 10
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_unknown_name_raises_everywhere(self):
        space = SearchSpace(grid_space(3, 3).domains, feasibility=FeasibilityExpr("p0 + zz < 3"))
        for call in (lambda: space.is_feasible((0, 0)), lambda: list(enumerate_points(space)),
                     lambda: feasible_size(space), lambda: comparison_sample(space)):
            with pytest.raises(SpaceError, match="zz"):
                call()

    def test_raising_combination_raises_at_that_point_and_in_bulk(self):
        space = SearchSpace((ParamDomain("a", (1, 2)), ParamDomain("b", (-1, 0, 1)),
                             ParamDomain("c", (0, 1))),
                            feasibility=FeasibilityExpr("a / (b + 1) < 2"))
        for point in ((0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 0, 0)):
            with pytest.raises(ZeroDivisionError):
                space.is_feasible(point)
        assert space.is_feasible((0, 1, 0)) and not space.is_feasible((1, 1, 1))
        for call in (lambda: next(enumerate_points(space)), lambda: feasible_size(space),
                     lambda: comparison_sample(space)):
            with pytest.raises(ZeroDivisionError):
                call()


class TestSerialization:
    def test_round_trip(self):
        space = SearchSpace((ParamDomain("lr", (0.1, 0.2, 0.4)),
                             ParamDomain("opt", ("sgd", "adam"), kind=CATEGORICAL)),
                            feasibility=FeasibilityExpr("lr < 0.4"))
        assert space_from_dict(space_to_dict(space)) == space

    def test_load_space_file(self, tmp_path):
        doc = {"parameters": [{"name": "a", "values": [0, 1, 2]}]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        space, raw = load_space(path)
        assert space_size(space) == 3
        assert raw == doc

    def test_missing_parameters_key(self):
        with pytest.raises(SpaceError):
            space_from_dict({})


@settings(max_examples=50)
@given(cards=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
def test_enumeration_count_equals_size(cards):
    space = grid_space(*cards)
    assert len(list(enumerate_points(space))) == space_size(space)
