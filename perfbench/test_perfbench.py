"""Tests of the benchmark itself: a short run of each workload, each
correctness check against a corrupted result, and the tracer.

    python3 -m pytest perfbench -q
"""

import dataclasses
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import Reference, Row, RunRecord  # noqa: E402


# ---------------------------------------------------------------------------
# Smoke runs: two rounds of each workload, cut to their first experiment
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_smoke(name, tmp_path):
    probe = workloads.RunProbe()
    try:
        workload = workloads.WORKLOADS[name](3, probe, tmp_path, runs=1)
        records = [op() for index in range(2) for op in workload.round(index)]
    finally:
        probe.close()
    assert records
    assert checks.run_all(records, workload.ref) + workload.extra_checks() == []
    for record in records:
        assert record.rows[-1].evals_used <= record.budget
        assert record.seconds > 0


def test_command_repeats_its_first_invocation(tmp_path):
    probe = workloads.RunProbe()
    try:
        workload = workloads.command(5, probe, tmp_path, runs=1)
    finally:
        probe.close()
    first, second = workload.round(0), workload.round(1)
    assert len(first) == len(second) == 2  # one seed, then its repeat
    # rounds draw seeds of their own, the same for the same workload seed
    assert workloads._run_seeds(5, 0, 3) == workloads._run_seeds(5, 0, 3)
    assert workloads._run_seeds(5, 0, 3) != workloads._run_seeds(5, 1, 3)


def test_probe_counts_the_failed_jobs_the_report_counts():
    from jobpruner import orchestrator
    from jobpruner.orchestrator import RunConfig
    from jobpruner.space import space_from_dict
    space = space_from_dict({"parameters": [{"name": "a", "values": list(range(6))},
                                            {"name": "b", "values": list(range(6))}]})

    def app(point):
        # an objective that breaks on a third of the grid
        return float("nan") if point[0] % 3 == 0 else float(point[0] + point[1])

    probe = workloads.RunProbe()
    try:
        probe.start_run()
        report = orchestrator.run(RunConfig(space=space, app=app, seed=1, batch_size=4,
                                            budget=20))
    finally:
        probe.close()
    assert report.failures > 0
    assert probe.failures() == report.failures


def test_run_without_sources_fails_fast(tmp_path):
    # a directory holding only the benchmark: no src/jobpruner to measure
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "seismic",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# Each check fails on a corrupted result
# ---------------------------------------------------------------------------

SHAPE = (3, 4)
VALUES = np.arange(12, dtype=np.float64)[None, :] / 11.0   # v[i, j] = (4i + j) / 11
PRIOR_POINTS = np.array([(i, j) for i in range(3) for j in range(4)], dtype=np.int64)
CSV = "header\n"


def _ref(**changes) -> Reference:
    ref = Reference(values=VALUES, shape=SHAPE, feasible=np.ones(12, dtype=bool),
                    priors={"prior": (PRIOR_POINTS, VALUES[0].copy())})
    return dataclasses.replace(ref, **changes)


def _run(**changes) -> RunRecord:
    # at p = 0.7 the cutoff is 0.7: dimension 0 loses values 0 and 1 (their
    # maxima are 3/11 and 7/11), dimension 1 keeps all (its least maximum
    # is 8/11), leaving 1 * 4 points
    run = RunRecord(label="run", subject=0, p_aggr=0.7, budget=5, seconds=1.0, csv=CSV,
                    rows=[Row(1, 3, 0.5, 12, "", None, None),
                          Row(2, 5, 1.0, 4, "prior", 0.9, 0.7)],
                    best_point=(2, 3), best_value=1.0,
                    kept=[np.array([2]), np.arange(4)], failures=0)
    return dataclasses.replace(run, **changes)


def test_clean_result_passes_every_check():
    assert checks.run_all([_run(), _run()], _ref()) == []


def test_lookup_fails_on_a_shifted_best_value():
    assert checks.check_lookup(_run(best_value=1.0 - 1e-6), _ref()) is not None
    assert checks.check_lookup(_run(best_point=(2, 2)), _ref()) is not None


def test_optimum_fails_above_the_feasible_optimum():
    feasible = np.ones(12, dtype=bool)
    feasible[11] = False   # the best point (2, 3) is flat index 11
    assert checks.check_optimum(_run(), _ref(feasible=feasible)) is not None
    assert checks.check_optimum(_run(best_value=1.5), _ref()) is not None


def test_no_failures_fails_on_one_failed_job():
    assert checks.check_no_failures(_run(failures=1), _ref()) is not None


def test_budget_fails_when_overspent():
    rows = [Row(1, 3, 0.5, 12, "", None, None), Row(2, 6, 1.0, 4, "prior", 0.9, 0.7)]
    assert checks.check_budget(_run(rows=rows), _ref()) is not None


@pytest.mark.parametrize("bad_row", [
    Row(2, 2, 1.0, 4, "prior", 0.9, 0.7),     # evals_used decreases
    Row(2, 5, 0.4, 4, "prior", 0.9, 0.7),     # best_value decreases
    Row(2, 5, 1.0, 13, "prior", 0.9, 0.7),    # space_size grows
])
def test_monotone_fails_on_a_reversal(bad_row):
    rows = [Row(1, 3, 0.5, 12, "", None, None), bad_row]
    assert checks.check_monotone(_run(rows=rows), _ref()) is not None


def test_no_prune_at_zero_fails_on_any_reduction():
    assert checks.check_no_prune_at_zero(_run(p_aggr=0.0), _ref()) is not None
    assert checks.check_no_prune_at_zero(_run(), _ref()) is None


def test_removed_value_above_the_cutoff_fails():
    # value 3 of dimension 1 has prior maximum 1.0 >= 0.7 * 1.0
    rows = [Row(1, 3, 0.5, 12, "", None, None), Row(2, 5, 1.0, 3, "prior", 0.9, 0.7)]
    run = _run(rows=rows, kept=[np.array([2]), np.arange(3)])
    assert "without prior evidence" in checks.check_removed_values(run, _ref())


def test_removed_value_the_prior_never_tried_fails():
    points = PRIOR_POINTS[PRIOR_POINTS[:, 0] != 1]
    outputs = VALUES[0][PRIOR_POINTS[:, 0] != 1]
    ref = _ref(priors={"prior": (points, outputs)})
    assert checks.check_removed_values(_run(), ref) is not None


def test_removed_values_fail_on_a_size_mismatch():
    assert checks.check_removed_values(_run(kept=[np.array([1, 2]), np.arange(4)]),
                                       _ref()) is not None


def test_same_output_fails_on_one_changed_byte():
    assert checks.check_same_output([_run(), _run(csv=CSV + " ")]) is not None
    assert checks.check_same_output([_run(), _run(label="other", csv="x")]) is None


def test_knn_reference_breaks_ties_lexicographically():
    points = np.array([[2, 0], [0, 0], [1, 2]])
    outputs = np.array([10.0, 20.0, 30.0])
    query = np.array([[1, 0]])
    # (0, 0) and (2, 0) are both one step from (1, 0): the smaller index vector wins
    assert checks.knn_reference(points, outputs, query, (3, 3), 1)[0] == 20.0
    assert checks.knn_reference(points, outputs, query, (3, 3), 2)[0] == 15.0


def test_knn_check_fails_on_a_perturbed_prediction():
    expected = np.array([0.25, 0.5])
    assert checks.check_knn(expected.copy(), expected) is None
    assert checks.check_knn(expected + np.array([0.0, 1e-12]), expected) is not None


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def test_self_time_excludes_wrapped_children():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        wrapped_inner()
        wrapped_inner()

    tracer.stats.update(inner=tracing.Stat(), outer=tracing.Stat())
    wrapped_inner = tracer._wrap("inner", inner, tracing.SPAN)
    tracer._wrap("outer", outer, tracing.SPAN)()
    assert tracer.stats["inner"].calls == 2
    assert tracer.stats["outer"].calls == 1
    assert 0.04 <= tracer.stats["inner"].self_s < 0.1
    assert 0.01 <= tracer.stats["outer"].self_s < 0.035
    outer_span = next(s for s in tracer.spans if s[2] == "outer")
    assert {s[1] for s in tracer.spans if s[2] == "inner"} == {outer_span[0]}


def test_missing_hook_is_reported_and_others_still_installed(monkeypatch):
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + [
        ("gone.layer", "orchestrator", None, "no_such_function", tracing.SPAN)])
    from jobpruner import orchestrator
    original = orchestrator.execute_batch
    with tracing.Tracer() as tracer:
        assert tracer.missing == {"gone.layer"}
        assert orchestrator.execute_batch is not original
    assert orchestrator.execute_batch is original


def test_install_and_uninstall_restore_inherited_methods():
    from jobpruner.optimizers import PsoOptimizer, _BaseOptimizer
    with tracing.Tracer():
        assert "observe" in vars(PsoOptimizer)
    assert "observe" not in vars(PsoOptimizer)
    assert PsoOptimizer.observe is _BaseOptimizer.observe
