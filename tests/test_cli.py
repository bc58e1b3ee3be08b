import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jobpruner

from jobpruner import kbstore
from jobpruner.cli import build_parser, main
from jobpruner.space import enumerate_points

from _util import grid_space, record_of


def _write_spec(path, cards=(4, 4), extra=None):
    doc = {"parameters": [
        {"name": f"p{i}", "values": list(range(c))} for i, c in enumerate(cards)]}
    doc.update(extra or {})
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _write_prior(tmp_path, rec_id="prior", cards=(4, 4)):
    space = grid_space(*cards)
    jobs = [(p, float(sum(p))) for p in enumerate_points(space)]
    record = record_of(space, jobs, rec_id=rec_id)
    return kbstore.save_record(record, tmp_path / "kb"), record


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        actions = {a.dest: a for a in parser._actions}
        choices = actions["command"].choices
        assert set(choices) == {"run", "prune", "suggest-aggr", "match", "bench"}

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--spec", "s.json"])
        assert args.optimizer == "pso"
        assert args.paggr == "auto"
        assert args.budget is None and args.budget_frac == 0.1

    def test_missing_subcommand_exits(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestPruneCommand:
    def test_prints_removals_and_reduction(self, tmp_path, capsys):
        _write_prior(tmp_path)
        spec = _write_spec(tmp_path / "spec.json")
        rc = main(["prune", "--prior", str(tmp_path / "kb" / "prior.json"),
                   "--spec", str(spec), "--paggr", "0.6"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[-1].startswith("reduction,")
        reduction = float(lines[-1].split(",")[1])
        assert 0.0 < reduction < 1.0
        assert any(ln.startswith("removed,p0,") or ln.startswith("removed,p1,")
                   for ln in lines)

    def test_zero_aggressiveness_removes_nothing(self, tmp_path, capsys):
        _write_prior(tmp_path)
        spec = _write_spec(tmp_path / "spec.json")
        rc = main(["prune", "--prior", str(tmp_path / "kb" / "prior.json"),
                   "--spec", str(spec), "--paggr", "0"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "reduction,0.0"

    def test_bad_prior_path_is_exit_code_1(self, tmp_path, capsys):
        spec = _write_spec(tmp_path / "spec.json")
        rc = main(["prune", "--prior", str(tmp_path / "nope.json"),
                   "--spec", str(spec), "--paggr", "0.6"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestSuggestAggrCommand:
    def test_reports_suggestion_fields(self, tmp_path, capsys):
        _write_prior(tmp_path, cards=(5, 5))
        rc = main(["suggest-aggr", "--prior", str(tmp_path / "kb" / "prior.json")])
        assert rc == 0
        out = capsys.readouterr().out
        fields = dict(ln.split("=", 1) for ln in out.strip().splitlines())
        assert set(fields) == {"s_aggr", "nugget", "sill", "normal_ok",
                               "stationary_ok", "fallback"}
        assert 0.0 <= float(fields["s_aggr"]) <= 0.95

    def test_cap_limits_the_value(self, tmp_path, capsys):
        _write_prior(tmp_path, cards=(5, 5))
        rc = main(["suggest-aggr", "--prior", str(tmp_path / "kb" / "prior.json"),
                   "--cap", "0.3"])
        assert rc == 0
        out = capsys.readouterr().out
        value = float(out.splitlines()[0].split("=")[1])
        assert value <= 0.3


class TestMatchCommand:
    def test_finds_identical_prior(self, tmp_path, capsys):
        _write_prior(tmp_path, rec_id="twin")
        _write_prior(tmp_path, rec_id="current")
        current_path = tmp_path / "kb" / "current.json"
        current_path.rename(tmp_path / "current.json")
        rc = main(["match", "--kb", str(tmp_path / "kb"),
                   "--current", str(tmp_path / "current.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "match=twin" in out
        assert "n_corr=1.0" in out

    def test_no_match_when_threshold_unreachable(self, tmp_path, capsys):
        _write_prior(tmp_path, rec_id="twin")
        _write_prior(tmp_path, rec_id="current")
        current_path = tmp_path / "kb" / "current.json"
        current_path.rename(tmp_path / "current.json")
        rc = main(["match", "--kb", str(tmp_path / "kb"),
                   "--current", str(tmp_path / "current.json"),
                   "--corr-threshold", "1.0"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "match=none"


class TestRunCommand:
    def test_builtin_run_writes_csv(self, tmp_path, capsys):
        spec = _write_spec(tmp_path / "spec.json",
                           cards=(5, 9, 11),
                           extra={"builtin": "sched-like:7:0"})
        out = tmp_path / "report.csv"
        rc = main(["run", "--spec", str(spec), "--budget", "20",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        text = out.read_text(encoding="utf-8")
        header = text.splitlines()[0]
        assert header == "batch_index,evals_used,best_value,space_size,matched_prior,n_corr,p_aggr"
        assert len(text.splitlines()) >= 2
        assert "best_value=" in capsys.readouterr().err

    def test_two_runs_are_byte_identical(self, tmp_path):
        spec = _write_spec(tmp_path / "spec.json",
                           cards=(5, 9, 11),
                           extra={"builtin": "sched-like:7:0"})
        texts = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = main(["run", "--spec", str(spec), "--budget", "20",
                       "--seed", "5", "--out", str(out)])
            assert rc == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_run_with_kb_records_match_column(self, tmp_path):
        _write_prior(tmp_path, cards=(6, 6))
        spec = _write_spec(tmp_path / "spec.json", cards=(6, 6),
                           extra={"app": {"command": "true --a {p0} --b {p1}"}})
        # the external command yields no objective, so use a builtin-free
        # smoke check only for spec parsing: expect a clean failure report
        rc = main(["run", "--spec", str(spec), "--budget", "4",
                   "--kb", str(tmp_path / "kb"), "--paggr", "0.6",
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 0
        text = (tmp_path / "r.csv").read_text(encoding="utf-8")
        assert text.splitlines()[0].startswith("batch_index,")

    def test_spec_without_app_fails(self, tmp_path, capsys):
        spec = _write_spec(tmp_path / "spec.json")
        with pytest.raises(SystemExit) as err:
            main(["run", "--spec", str(spec), "--budget", "4"])
        assert err.value.code == 2

    def test_bad_paggr_exits_2(self, tmp_path):
        spec = _write_spec(tmp_path / "spec.json", extra={"builtin": "sched-like:7:0"})
        with pytest.raises(SystemExit) as err:
            main(["run", "--spec", str(spec), "--paggr", "wild"])
        assert err.value.code == 2


def test_import_leaves_scipy_stats_unloaded():
    # loading scipy.stats takes longer than importing the rest of the
    # package, and only `jobpruner bench` needs it
    env = dict(os.environ)
    src = str(Path(jobpruner.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, jobpruner, jobpruner.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout.strip() == "False"
