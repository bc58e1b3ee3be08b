"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the public functions of each jobpruner module
with timing wrappers, patching the names the callers look up (for
example `orchestrator.prune`, which `run()` calls, rather than
`pruner.prune`).  Each wrapper keeps a call count and a self time: its
duration minus the time of wrapped calls nested inside it.  Coarse calls
also leave a span (id, parent, name, start, end) in memory; `write_spans`
saves them when the benchmark ends.  Hot leaf calls (feasibility tests,
`point_in_current`, `n_corr`) keep only their count and time, since a
span each would hold millions of records.

A stat none of whose hook targets exists any more is listed in
`missing`, and the metrics built on it read None; the run goes on.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time
import tracemalloc
from dataclasses import dataclass

# kinds of hook
SPAN = "span"    # call count, self time and one span per call
LEAF = "leaf"    # call count and self time only
GEN = "gen"      # generator: time spent producing items, no span
MEM = "mem"      # as SPAN, plus the tracemalloc peak of the call

# (stat name, module, owner attribute or None for the module itself,
#  function attribute, kind); the owner is where callers look the name up
HOOKS = [
    ("space.feasibility", "space", "FeasibilityExpr", "__call__", LEAF),
    ("space.enumerate", "orchestrator", None, "enumerate_points", GEN),
    ("space.enumerate", "matcher", None, "enumerate_points", GEN),
    ("space.enumerate", "optimizers", None, "enumerate_points", GEN),
    ("optimizers.propose", "optimizers", "PsoOptimizer", "propose_batch", SPAN),
    ("optimizers.propose", "optimizers", "SaOptimizer", "propose_batch", SPAN),
    ("optimizers.observe", "optimizers", "PsoOptimizer", "observe", SPAN),
    ("optimizers.observe", "optimizers", "SaOptimizer", "observe", SPAN),
    ("optimizers.point_in_current", "optimizers", "PsoOptimizer", "point_in_current", LEAF),
    ("optimizers.point_in_current", "optimizers", "SaOptimizer", "point_in_current", LEAF),
    ("optimizers.space_update", "optimizers", "PsoOptimizer", "apply_space_update", SPAN),
    ("optimizers.space_update", "optimizers", "SaOptimizer", "apply_space_update", SPAN),
    ("orchestrator.run", "orchestrator", None, "run", SPAN),
    ("orchestrator.run", "cli", None, "run", SPAN),
    ("orchestrator.execute", "orchestrator", None, "execute_batch", SPAN),
    ("orchestrator.app_command", "orchestrator", "AppCommand", "run", SPAN),
    ("matcher.select", "matcher", None, "select_previous", SPAN),
    ("matcher.comparison_sample", "matcher", None, "comparison_sample", SPAN),
    ("matcher.n_corr", "matcher", None, "n_corr", LEAF),
    ("surrogate.sample_on", "surrogate", "Surrogate", "sample_on", MEM),
    ("variogram.suggest", "orchestrator", None, "suggest_aggressiveness", MEM),
    ("pruner.prune", "orchestrator", None, "prune", SPAN),
    ("kbstore.load", "kbstore", None, "load_kb", SPAN),
    ("kbstore.save", "kbstore", None, "save", SPAN),
    ("bench.family", "bench", None, "generate_family", SPAN),
]


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    items: int = 0          # summed len() of the results (proposals per batch)
    peak_bytes: int = 0     # largest tracemalloc peak of one call

    def copy(self) -> "Stat":
        return dataclasses.replace(self)


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.missing: set[str] = set()
        self.spans: list[tuple[int, int, str, float, float]] = []
        # per open call: [span id, time covered by wrapped children]
        self._stack: list[list] = [[-1, 0.0]]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        installed = set()
        for name, module_name, owner_name, attr, kind in HOOKS:
            self.stats.setdefault(name, Stat())
            try:
                owner = importlib.import_module(f"jobpruner.{module_name}")
                if owner_name is not None:
                    owner = getattr(owner, owner_name)
                target = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            installed.add(name)
            wrapper = self._wrap_gen(name, target) if kind == GEN else self._wrap(name, target, kind)
            # class attributes are read from __dict__ so that an inherited
            # method is shadowed on the subclass, not replaced on the base
            original = vars(owner).get(attr, _ABSENT) if isinstance(owner, type) else target
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        self.missing = set(self.stats) - installed

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn, kind: str):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        if kind == LEAF:
            # no wrapped call runs inside a leaf, so it needs no frame
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - t0
                    stack[-1][1] += duration
                    stat.calls += 1
                    stat.self_s += duration
            return leaf

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started_tracing = kind == MEM and not tracemalloc.is_tracing()
            if started_tracing:
                tracemalloc.start()
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0]
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                stack[-1][1] += duration
                stat.calls += 1
                stat.self_s += duration - frame[1]
                spans.append((span_id, parent, name, t0, t1))
                if isinstance(result, list):
                    stat.items += len(result)
                if started_tracing:
                    stat.peak_bytes = max(stat.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

        return wrapper

    def _wrap_gen(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            iterator = fn(*args, **kwargs)
            while True:
                frame = [stack[-1][0], 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    duration = clock() - t0
                    stack.pop()
                    stack[-1][1] += duration
                    stat.self_s += duration - frame[1]
                yield item

        return wrapper

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict[str, Stat]:
        return {name: stat.copy() for name, stat in self.stats.items()}

    def since(self, before: dict[str, Stat]) -> dict[str, Stat]:
        """Per-hook totals accumulated after `before` was taken."""
        out = {}
        for name, stat in self.stats.items():
            base = before[name]
            out[name] = Stat(stat.calls - base.calls, stat.self_s - base.self_s,
                             stat.items - base.items, stat.peak_bytes)
        return out

    def write_spans(self, path) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"fields": ["id", "parent", "name", "start_s", "end_s"], "names": names,
               "spans": [[i, p, index[n], t0, t1] for i, p, n, t0, t1 in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


_ABSENT = object()
