import math

import numpy as np
import pytest

from jobpruner.optimizers import (OptimizerError, PsoOptimizer, SaOptimizer,
                                  _nearest_allowed, create_optimizer)
from jobpruner.space import (ParamDomain, SearchSpace, enumerate_points,
                             space_size, validate_point)

from _util import grid_space


def _drive(opt, objective, batches):
    """Propose/evaluate/observe loop with a deterministic objective."""
    for _ in range(batches):
        batch = opt.propose_batch()
        opt.observe([(p, objective(p)) for p in batch])


class TestInit:
    def test_single_point_space(self):
        space = grid_space(1, 1)
        for kind in ("pso", "sa"):
            opt = create_optimizer(kind, space, seed=0, batch_size=1)
            assert opt.propose_batch() == [(0, 0)]

    def test_same_seed_same_initial_proposals(self):
        space = grid_space(6, 6, 6)
        a = create_optimizer("pso", space, seed=42, batch_size=8)
        b = create_optimizer("pso", space, seed=42, batch_size=8)
        assert a.propose_batch() == b.propose_batch()

    def test_proposals_valid_and_in_range(self):
        space = grid_space(4, 4, 4, 4, 4)
        opt = create_optimizer("pso", space, seed=3, batch_size=8)
        batch = opt.propose_batch()
        assert len(batch) == 8
        for p in batch:
            assert validate_point(space, p) is None

    def test_batch_size_larger_than_space_rejected(self):
        with pytest.raises(OptimizerError):
            create_optimizer("pso", grid_space(2), seed=0, batch_size=3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(OptimizerError):
            create_optimizer("cma", grid_space(3), seed=0)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["pso", "sa"])
    def test_identical_runs_propose_identically(self, kind):
        space = grid_space(5, 5, 5)
        rng = np.random.default_rng(0)
        values = {p: rng.uniform() for p in enumerate_points(space)}
        seqs = []
        for _ in range(2):
            opt = create_optimizer(kind, space, seed=9, batch_size=6)
            seq = []
            for _ in range(5):
                batch = opt.propose_batch()
                seq.append(tuple(batch))
                opt.observe([(p, values[p]) for p in batch])
            seqs.append(seq)
        assert seqs[0] == seqs[1]


class TestObserve:
    def test_best_updates_and_is_monotone(self):
        space = grid_space(8, 8)
        opt = create_optimizer("pso", space, seed=1, batch_size=4)
        best_trace = []
        for _ in range(6):
            batch = opt.propose_batch()
            opt.observe([(p, float(sum(p))) for p in batch])
            best_trace.append(opt.best_value)
        assert best_trace == sorted(best_trace)
        assert opt.best_value == float(sum(opt.best_point))

    def test_equal_results_leave_best_unchanged(self):
        space = grid_space(6)
        opt = create_optimizer("sa", space, seed=2, batch_size=2)
        batch = opt.propose_batch()
        opt.observe([(p, 0.5) for p in batch])
        before = opt.best_value
        batch = opt.propose_batch()
        opt.observe([(p, 0.5) for p in batch])
        assert opt.best_value == before

    def test_non_finite_results_ignored(self):
        space = grid_space(6)
        opt = create_optimizer("pso", space, seed=0, batch_size=2)
        batch = opt.propose_batch()
        opt.observe([(batch[0], math.nan), (batch[1], 0.3)])
        assert opt.best_value == 0.3


class TestRounding:
    def test_nearest_allowed_full_range(self):
        allowed = np.arange(4)
        assert _nearest_allowed(allowed, 2.6) == 3
        assert _nearest_allowed(allowed, 0.2) == 0

    def test_nearest_allowed_with_gaps(self):
        allowed = np.array([0, 1, 5])
        assert _nearest_allowed(allowed, 3.4) == 5
        assert _nearest_allowed(allowed, 2.9) == 1
        assert _nearest_allowed(allowed, 7.0) == 5

    def test_nearest_allowed_equals_a_per_value_scan(self):
        # reference: the closest allowed index by scanning them all, the
        # lower one on an exact tie
        rng = np.random.default_rng(5)
        for _ in range(200):
            allowed = sorted(rng.choice(12, size=int(rng.integers(1, 8)), replace=False).tolist())
            positions = np.concatenate([rng.uniform(-1.0, 12.0, size=20),
                                        np.arange(-1.0, 12.0, 0.5)])
            for x in positions.tolist():
                expected = min(allowed, key=lambda a: (abs(x - a), a))
                assert _nearest_allowed(allowed, x) == expected


class TestSaNeighborhood:
    def test_neighbor_steps_one_ordinal_coordinate(self):
        space = grid_space(3, 3)
        opt = SaOptimizer(space, seed=5, batch_size=1)
        for _ in range(50):
            moved = opt._neighbor((1, 1))
            diffs = [(a, b) for a, b in zip(moved, (1, 1)) if a != b]
            assert len(diffs) == 1
            a, b = diffs[0]
            assert abs(a - b) == 1

    def test_metropolis_acceptance_probability(self):
        # worse moves are taken with probability exp(delta / T)
        rng = np.random.default_rng(123)
        delta, temperature = -1.0, 2.0
        trials = 10_000
        accepted = sum(SaOptimizer.accepts(rng, delta, temperature) for _ in range(trials))
        assert accepted / trials == pytest.approx(math.exp(delta / temperature), abs=0.02)

    def test_improvements_always_accepted(self):
        rng = np.random.default_rng(0)
        assert SaOptimizer.accepts(rng, 0.5, 1.0)
        assert SaOptimizer.accepts(rng, 0.0, 1e-9)

    def test_zero_temperature_rejects_worse_moves(self):
        rng = np.random.default_rng(0)
        assert not SaOptimizer.accepts(rng, -0.1, 0.0)


class TestSpaceUpdate:
    def _shrunk(self, space, keep):
        domains = tuple(ParamDomain(d.name, tuple(v for v in d.values if v in kept), d.kind)
                        for d, kept in zip(space.domains, keep))
        return SearchSpace(domains)

    @pytest.mark.parametrize("kind", ["pso", "sa"])
    def test_proposals_respect_the_shrunk_space(self, kind):
        space = grid_space(6, 6)
        opt = create_optimizer(kind, space, seed=7, batch_size=4)
        _drive(opt, lambda p: float(sum(p)), 2)
        new_space = self._shrunk(space, [{0, 1, 2}, {3, 4, 5}])
        opt.apply_space_update(new_space)
        for _ in range(10):
            for p in opt.propose_batch():
                assert p[0] in (0, 1, 2) and p[1] in (3, 4, 5)
            opt.observe([(p, float(sum(p))) for p in opt.propose_batch()])

    def test_identity_update_is_a_no_op_for_proposal_validity(self):
        space = grid_space(4, 4)
        opt = create_optimizer("pso", space, seed=0, batch_size=3)
        opt.apply_space_update(space)
        for p in opt.propose_batch():
            assert validate_point(space, p) is None

    def test_particle_clamped_to_nearest_surviving_index(self):
        space = grid_space(4)
        opt = PsoOptimizer(space, seed=0, batch_size=1)
        opt.positions[0] = [3.0]
        new_space = self._shrunk(space, [{0, 1}])
        opt.apply_space_update(new_space)
        assert opt.positions[0][0] == 1.0
        assert opt.propose_batch() == [(1,)]

    def test_best_at_pruned_point_is_retained(self):
        space = grid_space(5)
        opt = create_optimizer("sa", space, seed=1, batch_size=1)
        opt.observe([((4,), 9.9)])
        opt.apply_space_update(self._shrunk(space, [{0, 1}]))
        assert opt.best_point == (4,)
        assert opt.best_value == 9.9

    def test_point_in_current_follows_each_update(self):
        space = grid_space(5, 4, 3)
        opt = create_optimizer("pso", space, seed=0, batch_size=2)
        for keep in ([{0, 1, 3, 4}, {0, 1, 2, 3}, {2}], [{1, 3}, {0, 2}, {2}]):
            opt.apply_space_update(self._shrunk(space, keep))
            for p in enumerate_points(space):
                assert opt.point_in_current(p) == all(i in k for i, k in zip(p, keep))
                assert opt.point_in_current(np.asarray(p)) == opt.point_in_current(p)

    def test_non_subset_update_rejected(self):
        opt = create_optimizer("pso", grid_space(3), seed=0, batch_size=2)
        with pytest.raises(OptimizerError):
            opt.apply_space_update(grid_space(4))


class TestExhaustiveComparison:
    @pytest.mark.parametrize("kind", ["pso", "sa"])
    def test_full_budget_reaches_or_nears_the_true_optimum(self, kind):
        space = grid_space(5, 5)
        rng = np.random.default_rng(17)
        values = {p: float(rng.uniform()) for p in enumerate_points(space)}
        true_best = max(values.values())
        opt = create_optimizer(kind, space, seed=3, batch_size=5)
        seen = set()
        for _ in range(40):
            batch = opt.propose_batch()
            seen.update(batch)
            opt.observe([(p, values[p]) for p in batch])
            if len(seen) == space_size(space):
                break
        assert opt.best_value <= true_best
        assert opt.best_value >= np.quantile(list(values.values()), 0.9)
