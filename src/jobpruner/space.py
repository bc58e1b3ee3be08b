"""Finite discrete parameter domains, points, jobs and experiment records.

Every other module speaks in terms of these types.  A point is a plain
tuple of integer indices, one per parameter, indexing into the
corresponding domain's value list.  All types are immutable after
construction; "mutation" means building a new record.
"""

from __future__ import annotations

import ast
import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Iterator, Optional, Sequence

import numpy as np

Point = tuple[int, ...]

ORDINAL = "ordinal"
CATEGORICAL = "categorical"


class SpaceError(ValueError):
    """Invalid domain, space, point or experiment construction."""


# ---------------------------------------------------------------------------
# Feasibility expressions
# ---------------------------------------------------------------------------

_ALLOWED_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
}
_ALLOWED_CMPOPS = {
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
    ast.Eq: operator.eq,
    ast.NotEq: operator.ne,
}


class FeasibilityExpr:
    """Restricted arithmetic/comparison expression over parameter values.

    Grammar (documented in the README): numeric literals, parameter names,
    ``+ - * /``, comparisons (``< <= > >= == !=``), ``and`` / ``or``,
    unary minus, and parentheses.  Nothing else parses.  `names` is the
    set of parameter names the expression reads.
    """

    def __init__(self, source: str):
        self.source = source
        try:
            tree = ast.parse(source, mode="eval")
        except SyntaxError as exc:
            raise SpaceError(f"feasibility expression does not parse: {exc}") from exc
        self._validate(tree.body)
        self._tree = tree
        self.names = frozenset(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))

    def __repr__(self) -> str:
        return f"FeasibilityExpr({self.source!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FeasibilityExpr) and other.source == self.source

    def __getstate__(self):
        return self.source

    def __setstate__(self, state):
        self.__init__(state)

    @classmethod
    def _validate(cls, node: ast.expr) -> None:
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise SpaceError(f"literal {node.value!r} not allowed in feasibility expression")
        elif isinstance(node, ast.Name):
            pass
        elif isinstance(node, ast.BinOp) and type(node.op) in _ALLOWED_BINOPS:
            cls._validate(node.left)
            cls._validate(node.right)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            cls._validate(node.operand)
        elif isinstance(node, ast.Compare):
            cls._validate(node.left)
            for op, comp in zip(node.ops, node.comparators):
                if type(op) not in _ALLOWED_CMPOPS:
                    raise SpaceError(f"comparison {type(op).__name__} not allowed")
                cls._validate(comp)
        elif isinstance(node, ast.BoolOp):
            for value in node.values:
                cls._validate(value)
        else:
            raise SpaceError(f"construct {type(node).__name__} not allowed in feasibility expression")

    def _eval(self, node: ast.expr, env: dict):
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            try:
                return env[node.id]
            except KeyError:
                raise SpaceError(f"unknown parameter {node.id!r} in feasibility expression")
        if isinstance(node, ast.BinOp):
            return _ALLOWED_BINOPS[type(node.op)](self._eval(node.left, env), self._eval(node.right, env))
        if isinstance(node, ast.UnaryOp):
            return -self._eval(node.operand, env)
        if isinstance(node, ast.Compare):
            left = self._eval(node.left, env)
            for op, comp in zip(node.ops, node.comparators):
                right = self._eval(comp, env)
                if not _ALLOWED_CMPOPS[type(op)](left, right):
                    return False
                left = right
            return True
        if isinstance(node, ast.BoolOp):
            if isinstance(node.op, ast.And):
                return all(self._eval(v, env) for v in node.values)
            return any(self._eval(v, env) for v in node.values)
        raise AssertionError(f"unreachable: {node!r}")

    def __call__(self, env: dict) -> bool:
        return bool(self._eval(self._tree.body, env))


# ---------------------------------------------------------------------------
# Domains and spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamDomain:
    """One parameter: a name plus an ordered finite list of discrete values."""

    name: str
    values: tuple
    kind: str = ORDINAL

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.name:
            raise SpaceError("domain needs a name")
        if self.kind not in (ORDINAL, CATEGORICAL):
            raise SpaceError(f"unknown domain kind {self.kind!r} for {self.name!r}")
        if len(self.values) == 0:
            raise SpaceError(f"domain {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise SpaceError(f"domain {self.name!r} has duplicate values")
        if self.kind == ORDINAL:
            try:
                levels = [float(v) for v in self.values]
            except (TypeError, ValueError):
                raise SpaceError(f"ordinal domain {self.name!r} has non-numeric values")
            if any(b <= a for a, b in zip(levels, levels[1:])):
                raise SpaceError(f"ordinal domain {self.name!r} is not sorted ascending")

    @property
    def cardinality(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SearchSpace:
    """Ordered product of finite discrete domains, with an optional
    feasibility predicate over resolved parameter values."""

    domains: tuple[ParamDomain, ...]
    feasibility: Optional[FeasibilityExpr] = None
    # the predicate's result per tuple of indices of the parameters it
    # names, filled lazily by `is_feasible`; a combination that raises is
    # not stored, so it raises again on every test
    _feasible: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "domains", tuple(self.domains))
        if len(self.domains) == 0:
            raise SpaceError("search space needs at least one domain")
        names = [d.name for d in self.domains]
        if len(set(names)) != len(names):
            raise SpaceError("duplicate parameter names in search space")

    @property
    def n(self) -> int:
        return len(self.domains)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(d.cardinality for d in self.domains)

    def resolve(self, point: Point) -> tuple:
        """Raw domain values at a point (index vector -> value vector)."""
        return tuple(d.values[i] for d, i in zip(self.domains, point))

    def value_env(self, point: Point) -> dict:
        return {d.name: d.values[i] for d, i in zip(self.domains, point)}

    @cached_property
    def _named_axes(self) -> tuple[int, ...]:
        """Positions of the parameters the feasibility expression names."""
        names = self.feasibility.names if self.feasibility is not None else frozenset()
        return tuple(a for a, d in enumerate(self.domains) if d.name in names)

    def is_feasible(self, point: Point) -> bool:
        """The feasibility predicate at `point`; the expression runs at
        most once per combination of the values of the parameters it names."""
        if self.feasibility is None:
            return True
        key = tuple([point[a] for a in self._named_axes])
        if key not in self._feasible:
            # the expression reads only these names, so the result is the
            # one over the whole point; an unknown name raises SpaceError
            self._feasible[key] = self.feasibility(
                {self.domains[a].name: self.domains[a].values[i] for a, i in zip(self._named_axes, key)})
        return self._feasible[key]

    @cached_property
    def feasible_table(self) -> np.ndarray:
        """Read-only boolean array of `is_feasible` that broadcasts over the
        grid: full length along the parameters the expression names,
        length 1 along the others."""
        axes = self._named_axes
        table = np.ones([c if a in axes else 1 for a, c in enumerate(self.cardinalities)], dtype=bool)
        if self.feasibility is not None:
            for index in np.ndindex(table.shape):
                table[index] = self.is_feasible(index)
        table.flags.writeable = False
        return table


def space_size(space: SearchSpace) -> int:
    """Product of per-domain cardinalities (feasibility not applied)."""
    return math.prod(space.cardinalities)


def feasible_size(space: SearchSpace) -> int:
    """Number of feasible points, exact at any grid size: the feasible
    combinations of the named parameters times the product of the other
    cardinalities."""
    table = space.feasible_table
    return int(table.sum()) * (space_size(space) // table.size)


def enumerate_points(space: SearchSpace) -> Iterator[Point]:
    """Yield every feasible point exactly once, in lexicographic index
    order.  Lazy: feasibility is read off `space.feasible_table`, so the
    expression runs once per combination of the named parameters' values,
    not once per grid point, and no grid is built.  An infeasible prefix
    up to the last named parameter is skipped with all its completions."""
    cards = space.cardinalities
    table = space.feasible_table
    split = max(space._named_axes, default=-1) + 1
    head = np.broadcast_to(table.reshape(table.shape[:split]), cards[:split])
    for prefix in product(*(range(c) for c in cards[:split])):
        if head[prefix]:
            for tail in product(*(range(c) for c in cards[split:])):
                yield prefix + tail


def validate_point(space: SearchSpace, point: Sequence[int]) -> Optional[str]:
    """None when valid, else a description naming the offending parameter."""
    if len(point) != space.n:
        return f"point has {len(point)} coordinates, space has {space.n} parameters"
    for domain, idx in zip(space.domains, point):
        if isinstance(idx, bool) or not hasattr(type(idx), "__index__"):
            return f"parameter {domain.name!r}: index {idx!r} is not an integer"
        idx = int(idx)
        if not 0 <= idx < domain.cardinality:
            return f"parameter {domain.name!r}: index {idx} outside [0, {domain.cardinality - 1}]"
    if not space.is_feasible(tuple(point)):
        return f"point {tuple(point)} rejected by feasibility predicate"
    return None


def require_valid(space: SearchSpace, point: Sequence[int]) -> Point:
    violation = validate_point(space, point)
    if violation is not None:
        raise SpaceError(violation)
    return tuple(point)


def same_structure(a: SearchSpace, b: SearchSpace) -> bool:
    """Structural identity: same names, kinds and value lists, in order."""
    return a.domains == b.domains


def is_subspace(sub: SearchSpace, full: SearchSpace) -> bool:
    """True when every domain of `sub` keeps a subset of `full`'s values
    (same names and kinds, same order)."""
    if sub.n != full.n:
        return False
    for ds, df in zip(sub.domains, full.domains):
        if ds.name != df.name or ds.kind != df.kind:
            return False
        if not set(ds.values) <= set(df.values):
            return False
    return True


def subspace_masks(sub: SearchSpace, full: SearchSpace) -> list[list[bool]]:
    """Per-dimension survival masks of `full`'s values in `sub`."""
    if not is_subspace(sub, full):
        raise SpaceError("not a per-dimension subspace")
    masks = []
    for ds, df in zip(sub.domains, full.domains):
        kept = set(ds.values)
        masks.append([v in kept for v in df.values])
    return masks


# ---------------------------------------------------------------------------
# Jobs and experiments
# ---------------------------------------------------------------------------

PENDING = "pending"
DONE = "done"
FAILED = "failed"


@dataclass(frozen=True)
class Job:
    """One application execution at one point of the space."""

    point: Point
    output: Optional[float] = None
    status: str = DONE

    def __post_init__(self):
        object.__setattr__(self, "point", tuple(self.point))
        if self.status not in (PENDING, DONE, FAILED):
            raise SpaceError(f"unknown job status {self.status!r}")
        if self.status == DONE:
            if self.output is None or not math.isfinite(self.output):
                raise SpaceError("done job needs a finite output")


@dataclass(frozen=True)
class ExperimentRecord:
    """An application subject's evaluated jobs plus (optionally) its surrogate."""

    id: str
    space: SearchSpace
    jobs: tuple[Job, ...]
    surrogate: Optional[object] = None
    metadata: dict = field(default_factory=dict, compare=False)
    # values derived from the (frozen) record, filled lazily by the modules
    # that compute them and reused by every later run holding this object
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "jobs", tuple(self.jobs))
        seen = set()
        for job in self.jobs:
            if job.status != DONE:
                raise SpaceError(f"experiment {self.id!r}: job at {job.point} is not done")
            violation = validate_point(self.space, job.point)
            if violation is not None:
                raise SpaceError(f"experiment {self.id!r}: {violation}")
            if job.point in seen:
                raise SpaceError(f"experiment {self.id!r}: duplicate job at {job.point}")
            seen.add(job.point)

    def derived(self, key, compute):
        """The value derived from this record under `key`: `compute()` on
        first use, the stored result afterwards."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


# ---------------------------------------------------------------------------
# Experiment specification files
# ---------------------------------------------------------------------------

def space_to_dict(space: SearchSpace) -> dict:
    doc = {
        "parameters": [
            {"name": d.name, "kind": d.kind, "values": list(d.values)}
            for d in space.domains
        ]
    }
    if space.feasibility is not None:
        doc["feasibility"] = space.feasibility.source
    return doc


def space_from_dict(doc: dict) -> SearchSpace:
    try:
        params = doc["parameters"]
    except (KeyError, TypeError):
        raise SpaceError("experiment spec needs a 'parameters' list")
    domains = []
    for p in params:
        domains.append(ParamDomain(name=p["name"], values=tuple(p["values"]),
                                   kind=p.get("kind", ORDINAL)))
    feas = doc.get("feasibility")
    expr = FeasibilityExpr(feas) if feas else None
    return SearchSpace(tuple(domains), feasibility=expr)


def load_space(path) -> tuple[SearchSpace, dict]:
    """Parse an experiment specification file.

    Returns the space plus the raw document (the orchestrator reads the
    optional 'app' / 'builtin' sections from it as well).
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return space_from_dict(doc), doc
