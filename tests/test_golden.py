"""Report CSVs pinned by hash.

`golden_reports.json` holds the sha256 of each run's report CSV for
fixed seeds, so a change that moves any byte of a report fails here.
The runs of one family share one set of record objects, so later cases
reuse what earlier ones derived from the records, across optimizers, p
settings and feasibility constraints.
"""

import hashlib
import json
from pathlib import Path

from jobpruner import bench
from jobpruner.orchestrator import RunConfig, report_to_csv, run
from jobpruner.pruner import AUTO, PruneConfig
from jobpruner.space import (CATEGORICAL, ExperimentRecord, Job, ParamDomain,
                             SearchSpace, space_from_dict, space_to_dict)

GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json").read_text())

# constraints beyond the benchmark's `p0 + p1 < 7`: `or` with an equality,
# and division with unary minus under `and`
_CONSTRAINTS = {
    "or": "p2 * p4 <= 20 or p0 == 0",
    "div": "p3 / (p1 + 1) < 1.5 and -p4 > -9",
}


def _constrained(space, source):
    doc = space_to_dict(space)
    doc["feasibility"] = source
    return space_from_dict(doc)


def _categorical(space, axis):
    """`space` with the parameter at `axis` declared categorical."""
    domains = list(space.domains)
    domains[axis] = ParamDomain(domains[axis].name, domains[axis].values, kind=CATEGORICAL)
    return SearchSpace(tuple(domains))


def _leave_out(records, subject):
    return [r for i, r in enumerate(records) if i != subject]


def _cases():
    """(name, family, space, kb, optimizer, subject, p, seed) per pinned report."""
    family = bench.preset_family("seismic-like", seed=7)
    records = [family.subject_record(i) for i in range(family.subjects)]
    constrained = _constrained(family.space, "p0 + p1 < 7")
    for subject, p in ((0, 0.0), (1, 0.6), (2, AUTO)):
        for seed in (11, 12):
            yield (f"seismic-s{subject}-p{p}-seed{seed}", family, family.space,
                   _leave_out(records, subject), "pso", subject, p, seed)
    for subject in (3, 4):
        for seed in (21, 22):
            yield (f"constrained-s{subject}-p0.6-seed{seed}", family, constrained,
                   _leave_out(records, subject), "pso", subject, 0.6, seed)
    for subject, p in ((5, 0.0), (6, 0.6), (7, AUTO)):
        yield (f"sa-seismic-s{subject}-p{p}-seed31", family, family.space,
               _leave_out(records, subject), "sa", subject, p, 31)
    for label, source in _CONSTRAINTS.items():
        space = _constrained(family.space, source)
        for optimizer, subject in (("pso", 8), ("sa", 9)):
            yield (f"{optimizer}-{label}-s{subject}-p0.6-seed41", family, space,
                   _leave_out(records, subject), optimizer, subject, 0.6, 41)

    # the same grid with p3 categorical, and the priors rebuilt on that space
    categorical = _categorical(family.space, 3)
    cat_records = [ExperimentRecord(id=r.id, space=categorical, jobs=r.jobs) for r in records]
    for optimizer, subject, p, seed in (("pso", 0, 0.6, 51), ("pso", 6, AUTO, 53), ("sa", 2, 0.6, 51)):
        yield (f"categorical-{optimizer}-s{subject}-p{p}-seed{seed}", family, categorical,
               _leave_out(cat_records, subject), optimizer, subject, p, seed)

    # a constant prior, which never matches, and two identical priors
    # under different ids, listed larger id first: an exact tie
    constant = ExperimentRecord(id="const", space=family.space,
                                jobs=tuple(Job(j.point, 0.5) for j in records[6].jobs))
    twins = [ExperimentRecord(id=rid, space=family.space, jobs=records[6].jobs)
             for rid in ("tie-b", "tie-a")]
    for seed in (61, 62):
        yield (f"degenerate-tie-s0-p0.6-seed{seed}", family, family.space,
               [constant, *twins], "pso", 0, 0.6, seed)

    for name in ("agro-like", "sched-like"):
        other = bench.preset_family(name, seed=7)
        other_records = [other.subject_record(i) for i in range(other.subjects)]
        for optimizer, subject, p in (("pso", 0, 0.6), ("pso", 1, AUTO), ("sa", 2, 0.6)):
            yield (f"{name}-{optimizer}-s{subject}-p{p}-seed71", other, other.space,
                   _leave_out(other_records, subject), optimizer, subject, p, 71)


def _report(family, space, kb, optimizer, subject, p, seed):
    return run(RunConfig(space=space, app=lambda point: family.evaluate(subject, point),
                         optimizer=optimizer, seed=seed, batch_size=10, budget=100,
                         prune_cfg=PruneConfig(aggressiveness=p), kb=kb))


def test_report_csvs_match_the_golden_hashes():
    got = {}
    for name, *case in _cases():
        csv = report_to_csv(_report(*case))
        got[name] = hashlib.sha256(csv.encode()).hexdigest()
    assert got == GOLDEN
