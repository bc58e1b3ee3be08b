"""Report CSVs pinned by hash.

`golden_reports.json` holds the sha256 of each run's report CSV for
fixed seeds, so a change that moves any byte of a report fails here.
The runs share one set of record objects, so later cases reuse what
earlier ones derived from the records, across optimizers, p settings and
feasibility constraints.
"""

import hashlib
import json
from pathlib import Path

from jobpruner import bench
from jobpruner.orchestrator import RunConfig, report_to_csv, run
from jobpruner.pruner import AUTO, PruneConfig
from jobpruner.space import space_from_dict, space_to_dict

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


def _cases(family):
    """(name, space, optimizer, subject, p, seed) per pinned report."""
    constrained = _constrained(family.space, "p0 + p1 < 7")
    for subject, p in ((0, 0.0), (1, 0.6), (2, AUTO)):
        for seed in (11, 12):
            yield f"seismic-s{subject}-p{p}-seed{seed}", family.space, "pso", subject, p, seed
    for subject in (3, 4):
        for seed in (21, 22):
            yield f"constrained-s{subject}-p0.6-seed{seed}", constrained, "pso", subject, 0.6, seed
    for subject, p in ((5, 0.0), (6, 0.6), (7, AUTO)):
        yield f"sa-seismic-s{subject}-p{p}-seed31", family.space, "sa", subject, p, 31
    for label, source in _CONSTRAINTS.items():
        space = _constrained(family.space, source)
        for optimizer, subject in (("pso", 8), ("sa", 9)):
            yield f"{optimizer}-{label}-s{subject}-p0.6-seed41", space, optimizer, subject, 0.6, 41


def test_report_csvs_match_the_golden_hashes():
    family = bench.preset_family("seismic-like", seed=7)
    got = {}
    for name, space, optimizer, subject, p, seed in _cases(family):
        kb = [family.subject_record(i) for i in range(family.subjects) if i != subject]
        report = run(RunConfig(space=space, app=lambda point, s=subject: family.evaluate(s, point),
                               optimizer=optimizer, seed=seed, batch_size=10, budget=100,
                               prune_cfg=PruneConfig(aggressiveness=p), kb=kb))
        got[name] = hashlib.sha256(report_to_csv(report).encode()).hexdigest()
    assert got == GOLDEN
