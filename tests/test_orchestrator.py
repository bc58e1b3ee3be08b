import json
import shlex
import sys

import numpy as np
import pytest

from jobpruner import matcher
from jobpruner.matcher import comparison_sample
from jobpruner.orchestrator import (AppCommand, RunConfig, RunError,
                                    _SampleSurrogate, execute_batch,
                                    report_to_csv, resolve_budget, run)
from jobpruner.pruner import AUTO, PruneConfig
from jobpruner.space import (CATEGORICAL, Job, ParamDomain, SearchSpace,
                             enumerate_points, space_size)
from jobpruner.surrogate import fit

from _util import grid_space, random_space, record_of


def _landscape(space, seed=0):
    rng = np.random.default_rng(seed)
    values = {p: float(v) for p, v in zip(enumerate_points(space),
                                          rng.uniform(size=space_size(space)))}
    return values, (lambda point: values[tuple(point)])


def _full_record(space, values, rec_id):
    return record_of(space, list(values.items()), rec_id=rec_id)


def _smooth_landscape(space, peak=(4, 2)):
    values = {p: -float(sum((a - b) ** 2 for a, b in zip(p, peak)))
              for p in enumerate_points(space)}
    return values, (lambda point: values[tuple(point)])


class TestResolveBudget:
    def test_ten_percent_of_1024(self):
        cfg = RunConfig(space=grid_space(4, 4, 4, 4, 4), app=lambda p: 0.0, budget=0.1)
        assert resolve_budget(cfg, cfg.space) == 102

    def test_fraction_floors_with_minimum_one(self):
        cfg = RunConfig(space=grid_space(5), app=lambda p: 0.0, budget=0.1)
        assert resolve_budget(cfg, cfg.space) == 1

    def test_absolute_passes_through(self):
        cfg = RunConfig(space=grid_space(10, 10), app=lambda p: 0.0, budget=50)
        assert resolve_budget(cfg, cfg.space) == 50

    def test_invalid_fraction_rejected(self):
        cfg = RunConfig(space=grid_space(10), app=lambda p: 0.0, budget=1.5)
        with pytest.raises(RunError):
            resolve_budget(cfg, cfg.space)


class TestExecuteBatch:
    def test_cached_points_are_not_re_executed(self):
        space = grid_space(4)
        calls = []

        def app(point):
            calls.append(tuple(point))
            return 1.0

        cache = {}
        execute_batch([(0,), (1,)], app, cache, space)
        execute_batch([(0,), (1,)], app, cache, space)
        assert calls == [(0,), (1,)]

    def test_results_in_input_order(self):
        space = grid_space(5)
        cache = {}
        results = execute_batch([(3,), (0,), (3,)], lambda p: float(p[0]), cache, space)
        assert results == [((3,), 3.0), ((0,), 0.0), ((3,), 3.0)]

    def test_callable_failure_recorded_as_none(self):
        space = grid_space(3)

        def app(point):
            if point[0] == 1:
                raise RunError("boom")
            return 2.0

        results = execute_batch([(0,), (1,)], app, {}, space)
        assert results == [((0,), 2.0), ((1,), None)]

    def test_value_error_from_callable_reaches_the_caller(self):
        space = grid_space(8)

        def app(point):
            return float("not a number")

        with pytest.raises(ValueError, match="not a number"):
            run(RunConfig(space=space, app=app, budget=2, seed=0, batch_size=4))

    def test_unparsable_command_output_is_a_failure(self):
        space = grid_space(2, names=["x"])
        app = AppCommand(command=f"{shlex.quote(sys.executable)} -c 'print(\"n/a {{x}}\")'")
        assert execute_batch([(0,)], app, {}, space) == [((0,), None)]

    def test_command_exit_nonzero_is_a_failure(self):
        space = grid_space(2, names=["x"])
        app = AppCommand(command=f"{sys.executable} -c 'import sys; sys.exit({{x}})'")
        results = execute_batch([(0,), (1,)], app, {}, space)
        assert results[1][1] is None


class TestAppCommand:
    def test_template_must_reference_every_parameter_once(self):
        space = grid_space(2, 2)
        AppCommand(command="run --a {p0} --b {p1}").validate_against(space)
        with pytest.raises(ValueError):
            AppCommand(command="run --a {p0}").validate_against(space)
        with pytest.raises(ValueError):
            AppCommand(command="run {p0} {p0} {p1}").validate_against(space)

    def test_objective_parsed_from_last_stdout_line(self):
        space = grid_space(3, names=["x"])
        app = AppCommand(command=f"{sys.executable} -c 'print(\"log line\"); print({{x}} * 2)'")
        assert app.run(space, (2,)) == 4.0

    def test_objective_from_file(self, tmp_path):
        space = grid_space(3, names=["x"])
        out = tmp_path / "obj.txt"
        app = AppCommand(
            command=f"{sys.executable} -c 'open(\"{out}\", \"w\").write(str({{x}}))'",
            objective_from="file", output_file=str(out))
        assert app.run(space, (2,)) == 2.0

    def _argv_probe(self, tmp_path):
        """A command that saves its arguments as JSON and prints their count."""
        script = tmp_path / "argv.py"
        script.write_text("import json, sys\n"
                          f"open({str(tmp_path / 'argv.json')!r}, 'w').write(json.dumps(sys.argv[1:]))\n"
                          "print(len(sys.argv) - 1)\n")
        prefix = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"
        return prefix.replace("{", "{{").replace("}", "}}"), tmp_path / "argv.json"

    @pytest.mark.parametrize("value", ["a b", "it's", 'say "hi"'])
    def test_each_value_is_one_argument(self, tmp_path, value):
        space = SearchSpace((ParamDomain("x", ("c", value), kind=CATEGORICAL),))
        prefix, saved = self._argv_probe(tmp_path)
        app = AppCommand(command=f"{prefix} --x {{x}}")
        assert app.run(space, (1,)) == 2.0
        assert json.loads(saved.read_text()) == ["--x", value]

    def test_numeric_values_format_as_before(self, tmp_path):
        space = SearchSpace((ParamDomain("a", (0, 3, 7)), ParamDomain("b", (0.1, 2.5))))
        prefix, saved = self._argv_probe(tmp_path)
        app = AppCommand(command=f"{prefix} -v k={{a}}:{{b}}")
        assert app.run(space, (1, 0)) == 2.0
        assert json.loads(saved.read_text()) == ["-v", "k=3:0.1"]

    def test_file_mode_requires_output_file(self):
        with pytest.raises(ValueError):
            AppCommand(command="x {a}", objective_from="file")


class TestRun:
    def test_budget_one_executes_exactly_one_job(self):
        space = grid_space(6, 6)
        _, app = _landscape(space)
        report = run(RunConfig(space=space, app=app, budget=1, seed=4, batch_size=3))
        assert report.evaluations == 1
        assert report.best_point is not None

    def test_empty_kb_equals_bare_optimizer(self):
        space = grid_space(6, 6)
        _, app = _landscape(space)
        bare = run(RunConfig(space=space, app=app, budget=12, seed=8, kb=()))
        # a knowledge base that can never clear the threshold changes nothing
        values, _ = _landscape(space, seed=99)
        kb = [_full_record(space, values, "unrelated")]
        guarded = run(RunConfig(space=space, app=app, budget=12, seed=8, kb=kb,
                                prune_cfg=PruneConfig(aggressiveness=0.6, corr_threshold=1.0)))
        assert bare.best_value == guarded.best_value
        assert bare.best_point == guarded.best_point
        assert [r.space_size for r in bare.history] == [r.space_size for r in guarded.history]
        assert all(r.space_size == space_size(space) for r in guarded.history)

    def test_matching_prior_shrinks_the_space(self):
        space = grid_space(6, 6)
        values, app = _smooth_landscape(space)
        kb = [_full_record(space, values, "same")]
        report = run(RunConfig(space=space, app=app, budget=18, seed=2, kb=kb,
                               prune_cfg=PruneConfig(aggressiveness=0.6)))
        assert any(r.matched_prior == "same" for r in report.history)
        assert report.final_space_size < space_size(space)
        sizes = [r.space_size for r in report.history]
        assert sizes == sorted(sizes, reverse=True)  # only shrinks

    def test_auto_aggressiveness_records_the_value_used(self):
        space = grid_space(6, 6)
        values, app = _smooth_landscape(space)
        kb = [_full_record(space, values, "same")]
        report = run(RunConfig(space=space, app=app, budget=18, seed=2, kb=kb,
                               prune_cfg=PruneConfig(aggressiveness=AUTO, cap=0.95)))
        used = [r.p_aggr for r in report.history if r.p_aggr is not None]
        assert used and all(0.0 <= p <= 0.95 for p in used)

    def test_failed_jobs_consume_budget(self):
        space = grid_space(8)
        calls = []

        def app(point):
            calls.append(point)
            if len(calls) <= 2:
                raise RunError("crash")
            return float(point[0])

        report = run(RunConfig(space=space, app=app, budget=8, seed=0, batch_size=4))
        assert report.failures == 2
        assert report.evaluations == len(calls)
        assert report.evaluations <= 8
        assert report.best_value >= 0

    def test_rematches_only_after_a_batch_that_added_a_job(self, monkeypatch):
        space = grid_space(5, 5, 4)
        _, app = _landscape(space, seed=3)
        kb = [_full_record(space, _landscape(space, seed=s)[0], f"r{s}") for s in (4, 5)]
        calls = []
        select = matcher.select_previous
        monkeypatch.setattr(matcher, "select_previous",
                            lambda *args: calls.append(args) or select(*args))
        report = run(RunConfig(space=space, app=app, optimizer="sa", seed=1, budget=40, kb=kb))
        used = [0] + [row.evals_used for row in report.history]
        gained = sum(1 for before, after in zip(used, used[1:]) if after > before)
        assert len(calls) == gained < len(report.history)

    def test_structural_kb_mismatch_aborts(self):
        space = grid_space(4, 4)
        _, app = _landscape(space)
        values, _ = _landscape(grid_space(4, 5), seed=1)
        kb = [_full_record(grid_space(4, 5), values, "odd")]
        with pytest.raises(RunError, match="odd"):
            run(RunConfig(space=space, app=app, budget=4, kb=kb))

    def test_small_space_terminates_on_full_coverage(self):
        space = grid_space(3)
        _, app = _landscape(space)
        report = run(RunConfig(space=space, app=app, budget=100, seed=0, batch_size=2))
        assert report.evaluations <= 3

    def test_evaluations_never_exceed_budget(self):
        space = grid_space(7, 7)
        _, app = _landscape(space, seed=3)
        report = run(RunConfig(space=space, app=app, budget=10, seed=1, batch_size=6))
        assert report.evaluations <= 10


class TestReportCsv:
    def test_identical_runs_give_byte_identical_csv(self):
        space = grid_space(6, 6)
        values, app = _landscape(space, seed=6)
        kb = [_full_record(space, values, "prior")]
        texts = []
        for _ in range(2):
            report = run(RunConfig(space=space, app=app, budget=12, seed=11, kb=kb,
                                   prune_cfg=PruneConfig(aggressiveness=0.6)))
            texts.append(report_to_csv(report))
        assert texts[0] == texts[1]
        header = texts[0].splitlines()[0]
        assert header == "batch_index,evals_used,best_value,space_size,matched_prior,n_corr,p_aggr"

    def test_history_columns_are_complete(self):
        space = grid_space(5, 5)
        _, app = _landscape(space)
        report = run(RunConfig(space=space, app=app, budget=6, seed=0))
        lines = report_to_csv(report).strip().splitlines()
        assert len(lines) == len(report.history) + 1
        for line in lines[1:]:
            assert len(line.split(",")) == 7


class TestSampleSurrogate:
    def test_incremental_values_equal_a_full_refit(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            space = random_space(rng, max_points=300)
            points = list(enumerate_points(space))
            order = rng.permutation(len(points))  # distinct points, as in a run
            k = int(rng.integers(1, 6))
            sample = comparison_sample(space)
            sampler = _SampleSurrogate(space, sample, k)
            jobs = []
            for size in rng.integers(1, 8, size=6):
                batch = [points[i] for i in order[len(jobs):len(jobs) + size]]
                if not batch:
                    break
                outputs = rng.normal(size=len(batch))
                sampler.add(batch, list(outputs))
                jobs += [Job(point=p, output=float(v)) for p, v in zip(batch, outputs)]
                assert np.array_equal(sampler.values(), fit(jobs, space, k=k).sample_on(sample))
