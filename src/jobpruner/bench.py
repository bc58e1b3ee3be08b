"""Synthetic landscape families and the desk-scale evaluation protocol.

A family is a set of subjects sharing one search space.  Each subject's
objective is a mix of a shared smooth bump field and a subject-specific
field (plus point noise), with the mixing weight calibrated so the
measured mean best pairwise correlation lands on a target.  Outputs are
min-max normalized to [0, 1] per subject, so the global optimum of every
subject is exactly 1 and the optimality gap is directly a percentage.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .orchestrator import RunConfig, RunReport, run
from .pruner import AUTO, PruneConfig
from .space import ExperimentRecord, Job, ParamDomain, SearchSpace, space_size
from .surrogate import DEFAULT_K, SpaceEncoding, knn_indices

CALIBRATION_TOLERANCE = 0.03  # inner loop; the contract allows +/- 0.05
MAX_CALIBRATION_STEPS = 40


class BenchError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Landscapes
# ---------------------------------------------------------------------------

def _grid_points(shape: Sequence[int]) -> np.ndarray:
    grids = np.meshgrid(*(np.arange(c) for c in shape), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)


def _unit_coords(points: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    denom = np.maximum(np.asarray(shape) - 1, 1)
    return points / denom


def _separable_field(rng: np.random.Generator, points: np.ndarray,
                     shape: Sequence[int], amps: np.ndarray) -> np.ndarray:
    """Sum of smooth random per-dimension profiles at fixed per-dimension
    amplitudes; the axis-aligned structure a value-pruner can act on."""
    total = np.zeros(len(points))
    for d, card in enumerate(shape):
        raw = np.cumsum(rng.standard_normal(card))
        raw = raw - raw.min()
        span = raw.max() if raw.max() > 0 else 1.0
        total = total + (raw / span)[points[:, d]] * amps[d]
    return total


def _dimension_amplitudes(rng: np.random.Generator, ndim: int,
                          decay: float = 0.5) -> np.ndarray:
    """Geometrically decaying amplitudes in a random dimension order, so
    one or two dimensions matter much more than the rest — shared by all
    subjects of a family, the way one application's parameters behave."""
    amps = rng.uniform(0.5, 1.0, size=ndim) * decay ** np.arange(ndim)
    return amps[np.argsort(rng.permutation(ndim))]


def _bump_field(rng: np.random.Generator, coords: np.ndarray, n_bumps: int,
                width_range: tuple[float, float]) -> np.ndarray:
    n = coords.shape[1]
    centers = rng.uniform(-0.1, 1.1, size=(n_bumps, n))
    widths = rng.uniform(*width_range, size=n_bumps)
    amps = rng.uniform(0.3, 1.0, size=n_bumps)
    sq = cdist(coords, centers, metric="sqeuclidean")
    return (amps * np.exp(-sq / (2.0 * widths ** 2))).sum(axis=1)


@dataclass(frozen=True, eq=False)
class LandscapeFamily:
    name: str
    seed: int
    space: SearchSpace
    points: np.ndarray           # (N, n) full lexicographic enumeration
    values: np.ndarray           # (subjects, N), min-max normalized per subject
    rho_target: float
    achieved_rho: float
    mixing_weight: float
    subset_indices: np.ndarray = None  # (m,) prior-job grid indices (shared sweep)
    knn_k: int = DEFAULT_K
    _records: dict = field(default_factory=dict, repr=False)

    @property
    def subjects(self) -> int:
        return len(self.values)

    def subject_id(self, index: int) -> str:
        return f"{self.name}-s{index:02d}"

    def evaluate(self, subject: int, point) -> float:
        flat = 0
        for idx, card in zip(point, self.space.cardinalities):
            flat = flat * card + idx
        return float(self.values[subject, flat])

    def global_optimum(self, subject: int) -> float:
        return float(self.values[subject].max())

    def subject_record(self, index: int) -> ExperimentRecord:
        """Budgeted prior experiment record for one subject (cached)."""
        if index not in self._records:
            sel = (self.subset_indices if self.subset_indices is not None
                   else np.arange(len(self.points)))
            jobs = tuple(Job(point=tuple(int(i) for i in self.points[j]),
                             output=float(self.values[index, j]))
                         for j in sel)
            self._records[index] = ExperimentRecord(
                id=self.subject_id(index), space=self.space, jobs=jobs)
        return self._records[index]


def _mean_best_correlation(smoothed: np.ndarray) -> float:
    centered = smoothed - smoothed.mean(axis=1, keepdims=True)
    sd = centered.std(axis=1)
    if (sd == 0).any():
        raise BenchError("degenerate subject landscape")
    z = centered / sd[:, None]
    corr = np.clip(z @ z.T / smoothed.shape[1], -1.0, 1.0)
    np.fill_diagonal(corr, -np.inf)
    return float(corr.max(axis=1).mean())


def generate_family(seed: int, subjects: int, shape: Sequence[int], rho_target: float,
                    name: str = "family", n_bumps: int = 6,
                    width_range: tuple[float, float] = (0.6, 1.0),
                    fine_bumps: int = 50,
                    fine_width_range: tuple[float, float] = (0.2, 0.35),
                    fine_amp: float = 0.5,
                    noise: float = 0.1, sep_amp: float = 0.0,
                    sharpen: float = 1.0, sample_frac: float = 0.1,
                    knn_k: int = DEFAULT_K) -> LandscapeFamily:
    """Build a family whose measured mean best pairwise correlation lands
    within the tolerance of `rho_target`, via bisection on the mixing
    weight between the shared and per-subject components.

    The shared base combines broad bumps (the structure pruning should
    discover) with a fine-scale rugged layer (what makes the bare
    optimizer struggle); the per-subject component is fine-scale only, so
    lowering the correlation jitters a subject's landscape without
    relocating the promising region wholesale.
    """
    if subjects < 2:
        raise BenchError("need at least 2 subjects")
    if not 0.0 <= rho_target <= 1.0:
        raise BenchError("rho_target must be in [0, 1]")
    shape = tuple(int(c) for c in shape)
    domains = tuple(ParamDomain(name=f"p{i}", values=tuple(range(c)))
                    for i, c in enumerate(shape))
    space = SearchSpace(domains)
    points = _grid_points(shape)
    coords = _unit_coords(points, shape)
    rng = np.random.default_rng(seed)
    amps = _dimension_amplitudes(rng, len(shape))
    base = (sep_amp * _separable_field(rng, points, shape, amps)
            + _bump_field(rng, coords, n_bumps, width_range)
            + fine_amp * _bump_field(rng, coords, fine_bumps, fine_width_range))
    # the per-subject component mirrors the base's structure — same
    # dominant dimensions, fresh profiles — so the mixing weight blends
    # per-dimension behavior instead of burying it
    own = np.stack([sep_amp * _separable_field(rng, points, shape, amps)
                    + fine_amp * _bump_field(rng, coords, fine_bumps, fine_width_range)
                    for _ in range(subjects)])
    eps = rng.standard_normal(own.shape)
    own = own + noise * own.std(axis=1, keepdims=True) * eps

    # prior experiments execute a budgeted sample of the grid, not all of
    # it; the calibration measure must see the same surrogate samples the
    # matcher will
    n_points = len(points)
    subset_size = min(n_points, max(100, round(sample_frac * n_points)))
    # one sweep design shared by every subject, so sample correlations
    # reflect the landscapes rather than interpolation noise
    subset_indices = np.sort(rng.choice(n_points, size=subset_size, replace=False))
    enc = SpaceEncoding.for_space(space)
    subset_nbrs = np.concatenate([
        knn_indices(enc, points[subset_indices], points[start:start + 1024], knn_k)
        for start in range(0, n_points, 1024)])

    def build(weight: float) -> np.ndarray:
        mixed = weight * base[None, :] + (1.0 - weight) * own
        lo = mixed.min(axis=1, keepdims=True)
        hi = mixed.max(axis=1, keepdims=True)
        span = np.where(hi > lo, hi - lo, 1.0)
        # sharpen > 1 concentrates value in the top of the landscape, so
        # focusing the budget on the right region is what wins
        return ((mixed - lo) / span) ** sharpen

    def sample_vectors(values: np.ndarray) -> np.ndarray:
        return values[:, subset_indices][:, subset_nbrs].mean(axis=2)

    def measure(weight: float) -> float:
        return _mean_best_correlation(sample_vectors(build(weight)))

    lo_w, hi_w = 0.0, 1.0
    weight = 1.0 if rho_target >= 1.0 else 0.5
    achieved = measure(weight)
    for _ in range(MAX_CALIBRATION_STEPS):
        if abs(achieved - rho_target) <= CALIBRATION_TOLERANCE:
            break
        if achieved < rho_target:
            lo_w = weight
        else:
            hi_w = weight
        weight = (lo_w + hi_w) / 2.0
        achieved = measure(weight)
    else:
        if abs(achieved - rho_target) > 0.05:
            raise BenchError(
                f"calibration failed: target {rho_target}, achieved {achieved:.4f}")
    values = build(weight)
    return LandscapeFamily(name=name, seed=seed, space=space, points=points,
                           values=values, rho_target=rho_target,
                           achieved_rho=achieved, mixing_weight=weight,
                           subset_indices=subset_indices, knn_k=knn_k)


FAMILY_PRESETS = {
    # shape, subjects, rho_target, then generator knobs
    "seismic-like": dict(shape=(5, 5, 5, 4, 11), subjects=12, rho_target=0.82,
                         n_bumps=5, width_range=(0.35, 0.6),
                         fine_bumps=90, fine_width_range=(0.09, 0.16),
                         fine_amp=1.4, noise=0.9, sep_amp=2.0,
                         sharpen=2.0),
    "agro-like": dict(shape=(4, 4, 4, 4, 4), subjects=21, rho_target=0.89,
                      n_bumps=5, width_range=(0.35, 0.6),
                      fine_bumps=120, fine_width_range=(0.07, 0.14),
                      fine_amp=1.0, noise=1.2, sep_amp=2.0,
                      sharpen=2.0, sample_frac=1.0),
    "sched-like": dict(shape=(5, 9, 11), subjects=12, rho_target=0.58,
                       n_bumps=4, width_range=(0.3, 0.5),
                       fine_bumps=70, fine_width_range=(0.08, 0.18),
                       fine_amp=2.0, noise=1.2, sep_amp=1.5,
                       sharpen=2.0, sample_frac=0.3),
}


def preset_family(name: str, seed: int = 7) -> LandscapeFamily:
    try:
        params = FAMILY_PRESETS[name]
    except KeyError:
        raise BenchError(f"unknown family preset {name!r}; choose from {sorted(FAMILY_PRESETS)}")
    return generate_family(seed=seed, name=name, **params)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def percent_diff(best_found: float, global_opt: float) -> float:
    """(global_opt - best_found) * 100 on the normalized scale."""
    if best_found > global_opt + 1e-9:
        raise BenchError(f"best_found {best_found} exceeds the exhaustive optimum {global_opt}")
    return max(0.0, (global_opt - best_found) * 100.0)


def confidence_interval(samples: Sequence[float], level: float = 0.95) -> tuple[float, float]:
    """Student-t interval around the sample mean."""
    # imported here: loading scipy.stats takes longer than importing the
    # rest of the package, and only a study needs it
    from scipy import stats
    samples = np.asarray(samples, dtype=np.float64)
    n = len(samples)
    if n < 2:
        raise BenchError("need at least 2 samples")
    mean = samples.mean()
    sd = samples.std(ddof=1)
    half = stats.t.ppf(0.5 + level / 2.0, n - 1) * sd / math.sqrt(n)
    return float(mean - half), float(mean + half)


# ---------------------------------------------------------------------------
# Study protocol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StudyRow:
    study: str              # "aggressiveness" or "kb_size"
    optimizer: str
    p_aggr: object          # float or "auto"
    kb_size: int
    reps: int
    mean_pct_diff: float
    ci_lo: float
    ci_hi: float
    mean_reduction: float


@dataclass
class StudyResult:
    family: str
    rows: list[StudyRow]
    # key -> list of (subject, rep, pct_diff, reduction); key is
    # (study, optimizer, p_aggr, kb_size)
    samples: dict

    def row(self, study: str, optimizer: str, p_aggr, kb_size: int) -> StudyRow:
        for r in self.rows:
            if (r.study, r.optimizer, r.p_aggr, r.kb_size) == (study, optimizer, p_aggr, kb_size):
                return r
        raise KeyError((study, optimizer, p_aggr, kb_size))

    def subject_reductions(self, study: str, optimizer: str, p_aggr, kb_size: int) -> dict:
        """subject -> mean final space reduction over repetitions."""
        rows = self.samples[(study, optimizer, p_aggr, kb_size)]
        out: dict[int, list[float]] = {}
        for subject, _rep, _pct, reduction in rows:
            out.setdefault(subject, []).append(reduction)
        return {s: float(np.mean(v)) for s, v in out.items()}


def _run_seed(family_seed: int, subject: int, rep: int) -> int:
    # config-independent: the kb-size-0 column replays the bare optimizer
    # with identical seeds
    return (family_seed * 1_000_003 + subject * 10_007 + rep * 101) % (2 ** 31 - 1)


def _single_run(family: LandscapeFamily, subject: int, rep: int, optimizer: str,
                p_aggr, kb_size: int, budget: float, batch_size: int,
                corr_threshold: float, cap: float) -> tuple[float, float]:
    others = [i for i in range(family.subjects) if i != subject][:kb_size]
    kb = [family.subject_record(i) for i in others]
    cfg = RunConfig(
        space=family.space,
        app=lambda point: family.evaluate(subject, point),
        optimizer=optimizer,
        seed=_run_seed(family.seed, subject, rep),
        batch_size=batch_size,
        budget=budget,
        prune_cfg=PruneConfig(aggressiveness=p_aggr, cap=cap, corr_threshold=corr_threshold),
        kb=kb,
        knn_k=family.knn_k,
    )
    report = run(cfg)
    pct = percent_diff(report.best_value, family.global_optimum(subject))
    return pct, report.reduction_from(family.space)


def _study_chunk(args) -> list:
    (family, study, optimizer, p_aggr, kb_size, subjects, reps,
     budget, batch_size, corr_threshold, cap) = args
    out = []
    for subject in subjects:
        for rep in range(reps):
            pct, reduction = _single_run(family, subject, rep, optimizer, p_aggr,
                                         kb_size, budget, batch_size,
                                         corr_threshold, cap)
            out.append((study, optimizer, p_aggr, kb_size, subject, rep, pct, reduction))
    return out


def run_study(family: LandscapeFamily,
              optimizer_kinds: Sequence[str] = ("pso",),
              p_aggr_grid: Sequence = (0.0, 0.6, 0.9, 0.99, AUTO),
              kb_sizes: Sequence[int] = (),
              reps: int = 30,
              budget: float = 0.1,
              batch_size: int = 10,
              corr_threshold: float = 0.5,
              cap: float = 0.95,
              workers: int = 1,
              out_dir=None) -> StudyResult:
    """Leave-one-out evaluation over the family's subjects.

    The aggressiveness study runs every p_aggr in the grid against the
    full knowledge base (all other subjects); the kb-size study runs
    every knowledge-base size with automatic aggressiveness.
    """
    if reps < 2:
        raise BenchError("need reps >= 2 for confidence intervals")
    full_kb = family.subjects - 1
    tasks = []
    subjects = list(range(family.subjects))
    for optimizer in optimizer_kinds:
        for p_aggr in p_aggr_grid:
            tasks.append(("aggressiveness", optimizer, p_aggr, full_kb))
        for kb_size in kb_sizes:
            tasks.append(("kb_size", optimizer, AUTO, kb_size))

    chunks = [(family, study, optimizer, p_aggr, kb_size, subjects, reps,
               budget, batch_size, corr_threshold, cap)
              for study, optimizer, p_aggr, kb_size in tasks]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk_results = list(pool.map(_study_chunk, chunks))
    else:
        chunk_results = [_study_chunk(c) for c in chunks]

    samples: dict = {}
    for chunk in chunk_results:
        for study, optimizer, p_aggr, kb_size, subject, rep, pct, reduction in chunk:
            samples.setdefault((study, optimizer, p_aggr, kb_size), []).append(
                (subject, rep, pct, reduction))

    rows = []
    for key, entries in samples.items():
        study, optimizer, p_aggr, kb_size = key
        pcts = [e[2] for e in entries]
        reductions = [e[3] for e in entries]
        lo, hi = confidence_interval(pcts)
        rows.append(StudyRow(study=study, optimizer=optimizer, p_aggr=p_aggr,
                             kb_size=kb_size, reps=len(entries),
                             mean_pct_diff=float(np.mean(pcts)),
                             ci_lo=lo, ci_hi=hi,
                             mean_reduction=float(np.mean(reductions))))
    result = StudyResult(family=family.name, rows=rows, samples=samples)
    if out_dir is not None:
        write_study_files(result, out_dir)
    return result


def write_study_files(result: StudyResult, out_dir) -> None:
    """Emit study.csv, reductions.csv and per-study plot-data files."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "study.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "study", "optimizer", "p_aggr", "kb_size", "reps",
                         "mean_pct_diff", "ci_lo", "ci_hi", "mean_reduction"])
        for r in sorted(result.rows, key=lambda r: (r.study, r.optimizer, str(r.p_aggr), r.kb_size)):
            writer.writerow([result.family, r.study, r.optimizer, r.p_aggr, r.kb_size,
                             r.reps, repr(r.mean_pct_diff), repr(r.ci_lo), repr(r.ci_hi),
                             repr(r.mean_reduction)])
    with open(out_dir / "reductions.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "study", "optimizer", "p_aggr", "kb_size",
                         "subject", "mean_reduction"])
        for key in sorted(result.samples, key=lambda k: (k[0], k[1], str(k[2]), k[3])):
            study, optimizer, p_aggr, kb_size = key
            per_subject = result.subject_reductions(study, optimizer, p_aggr, kb_size)
            for subject in sorted(per_subject):
                writer.writerow([result.family, study, optimizer, p_aggr, kb_size,
                                 subject, repr(per_subject[subject])])
    for study, xfield in (("aggressiveness", "p_aggr"), ("kb_size", "kb_size")):
        rows = [r for r in result.rows if r.study == study]
        for optimizer in sorted({r.optimizer for r in rows}):
            sel = [r for r in rows if r.optimizer == optimizer]
            if not sel:
                continue
            path = out_dir / f"plot_{study}_{optimizer}.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["x", "y", "err"])
                for r in sorted(sel, key=lambda r: (str(r.p_aggr), r.kb_size)):
                    x = getattr(r, xfield)
                    writer.writerow([x, repr(r.mean_pct_diff),
                                     repr((r.ci_hi - r.ci_lo) / 2.0)])


# ---------------------------------------------------------------------------
# Builtin application ids ("<preset>:<seed>:<subject>")
# ---------------------------------------------------------------------------

_builtin_cache: dict = {}


def resolve_builtin(app_id: str):
    """Objective callable for a builtin landscape id."""
    try:
        name, seed, subject = app_id.split(":")
        seed, subject = int(seed), int(subject)
    except ValueError:
        raise BenchError(f"builtin id {app_id!r} is not '<preset>:<seed>:<subject>'")
    key = (name, seed)
    if key not in _builtin_cache:
        _builtin_cache[key] = preset_family(name, seed=seed)
    family = _builtin_cache[key]
    if not 0 <= subject < family.subjects:
        raise BenchError(f"subject {subject} outside [0, {family.subjects - 1}]")
    return family, (lambda point: family.evaluate(subject, point))
