"""Discrete-space Particle Swarm Optimization and Simulated Annealing.

Both optimizers propose batches of candidate points, ingest observed
objective values, and accept mid-run shrinkage of the search space.  All
points are expressed as index vectors of the ORIGINAL space; the current
(possibly pruned) space is tracked as per-dimension survival masks, so a
point stays identified with the same parameter values throughout a run.
Maximization only; wrap minimization problems as f = -g.
"""

from __future__ import annotations

import bisect
import math
from typing import Optional, Sequence

import numpy as np

from .space import (CATEGORICAL, Point, SearchSpace, SpaceError,
                    enumerate_points, is_subspace, space_size, subspace_masks)

PSO = "pso"
SA = "sa"

PSO_INERTIA = 0.72
PSO_COGNITIVE = 1.49
PSO_SOCIAL = 1.49
SA_COOLING = 0.95
RESTART_PROB = 0.05
DEFAULT_BATCH_SIZE = 10
_FEASIBILITY_TRIES = 100


class OptimizerError(ValueError):
    pass


def _nearest_allowed(allowed: list[int], position: float) -> int:
    """Nearest surviving original index to a continuous position; a tie
    goes to the lower index.  `allowed` is sorted."""
    i = bisect.bisect_left(allowed, position)
    if i == 0:
        return allowed[0]
    if i == len(allowed):
        return allowed[-1]
    lo, hi = allowed[i - 1], allowed[i]
    return lo if position - lo <= hi - position else hi


class _BaseOptimizer:
    kind: str

    def __init__(self, space: SearchSpace, seed: int, batch_size: int):
        if batch_size < 1:
            raise OptimizerError("batch_size must be at least 1")
        if batch_size > space_size(space):
            raise OptimizerError(f"batch_size {batch_size} exceeds space size {space_size(space)}")
        self.original_space = space
        self.space = space
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)
        self._set_allowed([list(range(c)) for c in space.cardinalities])
        self.best_point: Optional[Point] = None
        self.best_value: float = -math.inf

    # -- space bookkeeping ---------------------------------------------------

    def apply_space_update(self, new_space: SearchSpace) -> None:
        """Shrink the current space; best-so-far survives even if pruned."""
        if not is_subspace(new_space, self.space):
            raise OptimizerError("new space is not a per-dimension subset of the current one")
        masks = subspace_masks(new_space, self.original_space)
        self.space = new_space
        self._set_allowed([np.flatnonzero(m).tolist() for m in masks])
        self._clamp_to_allowed()

    def _set_allowed(self, allowed: list[list[int]]) -> None:
        """Surviving original indices per dimension, as sorted lists and,
        for membership tests, as sets."""
        self.allowed = allowed
        self._allowed_sets = [frozenset(a) for a in allowed]

    def point_in_current(self, point: Sequence[int]) -> bool:
        return all(idx in allowed for idx, allowed in zip(point, self._allowed_sets))

    def _random_allowed_point(self) -> Point:
        return tuple(int(self.rng.choice(a)) for a in self.allowed)

    def _feasible(self, point: Point) -> bool:
        return self.original_space.is_feasible(point)

    def _feasible_or_retry(self, point: Point) -> Point:
        if self._feasible(point):
            return point
        for _ in range(_FEASIBILITY_TRIES):
            candidate = self._random_allowed_point()
            if self._feasible(candidate):
                return candidate
        for candidate in enumerate_points(self.space):
            mapped = self._to_original(candidate)
            if self._feasible(mapped):
                return mapped
        raise OptimizerError("current space has no feasible point")

    def _to_original(self, point: Point) -> Point:
        """Current-space index vector -> original-space index vector."""
        out = []
        for idx, (cur_dom, orig_dom) in zip(point, zip(self.space.domains, self.original_space.domains)):
            out.append(orig_dom.values.index(cur_dom.values[idx]))
        return tuple(out)

    # -- results -------------------------------------------------------------

    def observe(self, results: Sequence[tuple[Point, float]]) -> None:
        finite = [(tuple(p), float(v)) for p, v in results
                  if v is not None and math.isfinite(v)]
        for point, value in finite:
            if value > self.best_value:
                self.best_value = value
                self.best_point = point
        self._ingest(finite)

    # hooks ------------------------------------------------------------------

    def propose_batch(self) -> list[Point]:
        raise NotImplementedError

    def _ingest(self, results: list[tuple[Point, float]]) -> None:
        raise NotImplementedError

    def _clamp_to_allowed(self) -> None:
        raise NotImplementedError


class PsoOptimizer(_BaseOptimizer):
    """Swarm of batch_size particles in continuous index space, rounded to
    the nearest surviving index at proposal time."""

    kind = PSO

    def __init__(self, space: SearchSpace, seed: int, batch_size: int = DEFAULT_BATCH_SIZE,
                 inertia: float = PSO_INERTIA, cognitive: float = PSO_COGNITIVE,
                 social: float = PSO_SOCIAL, restart_prob: float = RESTART_PROB):
        super().__init__(space, seed, batch_size)
        self.restart_prob = restart_prob
        self.inertia = inertia
        self.cognitive = cognitive
        self.social = social
        cards = np.asarray(space.cardinalities, dtype=np.float64)
        self.positions = self.rng.uniform(0.0, cards - 1.0, size=(batch_size, space.n))
        self.velocities = np.zeros_like(self.positions)
        self.vmax = np.maximum((cards - 1.0) / 2.0, 0.5)
        self.pbest_positions = np.zeros_like(self.positions)
        self.pbest_values = np.full(batch_size, -math.inf)
        self.last_proposals: list[Point] = []
        self._seen: set[Point] = set()

    def _scatter(self, i: int) -> Point:
        point = self._random_allowed_point()
        self.positions[i] = point
        self.velocities[i] = 0.0
        return point

    def _jitter(self, i: int) -> None:
        if self.pbest_values[i] > -math.inf:
            center = self.pbest_positions[i]
        else:
            center = np.asarray(self.best_point, dtype=np.float64)
        self.positions[i] = center + self.rng.normal(0.0, 1.0, size=len(center))
        self.velocities[i] = 0.0

    def _rounded(self, i: int) -> Point:
        return tuple(_nearest_allowed(a, x)
                     for a, x in zip(self.allowed, self.positions[i].tolist()))

    def propose_batch(self) -> list[Point]:
        proposals = []
        for i in range(len(self.positions)):
            if self.best_point is not None and self.rng.random() < self.restart_prob:
                # keep a collapsed swarm exploring even before it stagnates
                point = self._scatter(i)
            else:
                point = self._rounded(i)
            if point in self._seen and self.best_point is not None:
                # collapsed particle replaying an evaluated point: nudge it
                # around its own best so the batch buys new information
                self._jitter(i)
                point = self._rounded(i)
            proposals.append(self._feasible_or_retry(point))
        self.last_proposals = proposals
        return proposals

    def _ingest(self, results: list[tuple[Point, float]]) -> None:
        values = dict(results)
        self._seen.update(values)
        for i, proposed in enumerate(self.last_proposals):
            value = values.get(proposed)
            if value is None:
                continue
            if value > self.pbest_values[i]:
                self.pbest_values[i] = value
                self.pbest_positions[i] = proposed
        if self.best_point is None:
            return
        gbest = np.asarray(self.best_point, dtype=np.float64)
        r1 = self.rng.random(self.positions.shape)
        r2 = self.rng.random(self.positions.shape)
        # a particle with no personal best yet uses its own position instead
        pbest = np.where((self.pbest_values > -math.inf)[:, None], self.pbest_positions, self.positions)
        self.velocities = (self.inertia * self.velocities
                           + self.cognitive * r1 * (pbest - self.positions)
                           + self.social * r2 * (gbest - self.positions))
        np.clip(self.velocities, -self.vmax, self.vmax, out=self.velocities)
        self.positions += self.velocities
        cards = np.asarray(self.original_space.cardinalities, dtype=np.float64)
        np.clip(self.positions, 0.0, cards - 1.0, out=self.positions)

    def _clamp_to_allowed(self) -> None:
        for i in range(self.batch_size):
            self.positions[i] = [float(_nearest_allowed(a, x))
                                 for a, x in zip(self.allowed, self.positions[i].tolist())]


class SaOptimizer(_BaseOptimizer):
    """Single-chain simulated annealing; a batch is batch_size neighbor
    moves of the current point, accepted one by one (Metropolis) with
    geometric cooling per batch."""

    kind = SA

    def __init__(self, space: SearchSpace, seed: int, batch_size: int = DEFAULT_BATCH_SIZE,
                 cooling: float = SA_COOLING, initial_temperature: Optional[float] = None,
                 restart_prob: float = RESTART_PROB):
        super().__init__(space, seed, batch_size)
        self.restart_prob = restart_prob
        self.cooling = cooling
        self.temperature = initial_temperature
        self.current_point = self._feasible_or_retry(self._random_allowed_point())
        self.current_value: Optional[float] = None

    def _neighbor(self, point: Point) -> Point:
        movable = [d for d, a in enumerate(self.allowed) if len(a) > 1]
        if not movable:
            return point
        dim = int(self.rng.choice(movable))
        allowed = self.allowed[dim]
        pos = bisect.bisect_left(allowed, point[dim])
        if self.original_space.domains[dim].kind == CATEGORICAL:
            choices = allowed[:pos] + allowed[pos + 1:] if pos < len(allowed) and allowed[pos] == point[dim] else allowed
            new_idx = int(self.rng.choice(choices))
        else:
            step = 1 if self.rng.random() < 0.5 else -1
            target = pos + step
            if target < 0 or target >= len(allowed):
                target = pos - step
            new_idx = int(allowed[target])
        moved = list(point)
        moved[dim] = new_idx
        return tuple(moved)

    def propose_batch(self) -> list[Point]:
        proposals = []
        for _ in range(self.batch_size):
            if self.current_value is not None and self.rng.random() < self.restart_prob:
                candidate = self._random_allowed_point()
            else:
                candidate = self._neighbor(self.current_point)
            proposals.append(self._feasible_or_retry(candidate))
        return proposals

    @staticmethod
    def accepts(rng: np.random.Generator, delta: float, temperature: float) -> bool:
        """Metropolis rule for maximization: always take improvements,
        take a worsening of delta < 0 with probability exp(delta / T)."""
        if delta >= 0:
            return True
        if temperature <= 0:
            return False
        return rng.random() < math.exp(delta / temperature)

    def _ingest(self, results: list[tuple[Point, float]]) -> None:
        if not results:
            return
        if self.temperature is None:
            values = [v for _, v in results]
            spread = max(values) - min(values)
            self.temperature = spread if spread > 0 else 1.0
        for point, value in results:
            if self.current_value is None:
                self.current_point, self.current_value = point, value
                continue
            if self.accepts(self.rng, value - self.current_value, self.temperature):
                self.current_point, self.current_value = point, value
        self.temperature *= self.cooling

    def _clamp_to_allowed(self) -> None:
        clamped = tuple(_nearest_allowed(a, x) for a, x in zip(self.allowed, self.current_point))
        if clamped != self.current_point:
            self.current_point = clamped
            self.current_value = None  # value belongs to the pre-clamp point


def create_optimizer(kind: str, space: SearchSpace, seed: int,
                     batch_size: int = DEFAULT_BATCH_SIZE, **options) -> _BaseOptimizer:
    if kind == PSO:
        return PsoOptimizer(space, seed, batch_size, **options)
    if kind == SA:
        return SaOptimizer(space, seed, batch_size, **options)
    raise OptimizerError(f"unknown optimizer kind {kind!r}")
