import csv
import json
import os

import pytest

from llb.cli import (
    CURVE_HEADER,
    FLAT_HEADER,
    config_from_dict,
    config_hash,
    config_to_dict,
    emit_report,
    main,
)
from llb.protocol import aggregate_reports, run_seed


TOY = {
    "learner": "agem",
    "stream": {"kind": "permuted-mnist", "tasks": 3, "cv_split": 1,
               "train_per_task": 30, "test_per_task": 20,
               "base_train": 200, "base_test": 80},
    "hidden": [6, 5],
    "base": {"lr": 0.05, "memory_per_task": 10, "ref_batch_size": 8,
             "batch_size": 10, "beta": 2},
    "grid": {"lr": [0.05]},
    "seeds": [0],
}


TIMING_KEYS = ("mean_step_seconds", "step_seconds_by_task")


def metric_content(report: dict) -> dict:
    """report.json without its wall-clock fields."""

    def strip(d):
        return {k: v for k, v in d.items() if k not in TIMING_KEYS}

    return {**report, "aggregate": strip(report["aggregate"]),
            "reports": [strip(r) for r in report["reports"]]}


@pytest.fixture
def toy_config(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(TOY))
    return str(path)


class TestConfigHash:
    def test_stable_under_key_reordering(self):
        a = {"x": 1, "y": {"b": 2, "a": 3}}
        b = {"y": {"a": 3, "b": 2}, "x": 1}
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_values(self):
        assert config_hash({"x": 1}) != config_hash({"x": 2})

    def test_config_roundtrip(self):
        config = config_from_dict(TOY)
        again = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
        assert config_to_dict(config) == config_to_dict(again)


class TestRunCommand:
    def test_toy_run_exit_zero_and_files(self, toy_config, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["run", "--config", toy_config, "--out", out]) == 0
        for name in ("report.json", "results.csv", "curves.csv", "manifest.json"):
            assert os.path.exists(os.path.join(out, name))
        report = json.load(open(os.path.join(out, "report.json")))
        assert report["config_hash"] == config_hash(report["config"])
        assert len(report["reports"]) == 1
        assert report["aggregate"]["A_T"]["n"] == 1
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        for path in manifest["outputs"]["per_seed"].values():
            assert os.path.exists(path)

    def test_parallel_jobs(self, toy_config, tmp_path, capsys):
        reports = {}
        for jobs in (2, 1):
            out = str(tmp_path / f"jobs{jobs}")
            assert main(["run", "--config", toy_config, "--seeds", "0,1",
                         "--jobs", str(jobs), "--out", out]) == 0
            reports[jobs] = json.load(open(os.path.join(out, "report.json")))
        assert [r["seed"] for r in reports[2]["reports"]] == [0, 1]
        # the same metric content whether seeds run in workers or in-process
        assert metric_content(reports[2]) == metric_content(reports[1])

    def test_unknown_learner_exit_2_lists_valid(self, toy_config, tmp_path, capsys):
        code = main(["run", "--config", toy_config, "--learner", "bogus",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        for name in ("vanilla", "ewc", "agem", "gem", "sgem", "multitask"):
            assert name in err

    def test_print_config_shows_defaults(self, toy_config, capsys):
        assert main(["run", "--config", toy_config, "--print-config"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["learner"] == "agem"
        assert shown["base"]["lr"] == 0.05
        assert shown["study_epochs"] == 1

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2

    def test_bad_config_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"learnerz": "agem"}))
        assert main(["run", "--config", str(path)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("config,message", [
        ({"learner": "agem", "base": {"lrr": 0.1}}, "'lrr'"),
        ({"learner": "agem", "base": [1, 2]}, "'base' must be an object"),
        ({"learner": "agem", "base": {"lr": "fast"}}, "lr and lam must be numbers"),
        ({"learner": "agem", "base": {"batch_size": 2.5}}, "counts must be integers"),
        ({"learner": "agem", "hidden": 5}, "'hidden' must be a list of integers"),
        ({"hidden": [64, "a"]}, "'hidden' must be a list of integers"),
        ({"seeds": "0,1"}, "'seeds' must be a list of integers"),
        ({"seeds": [0, True]}, "'seeds' must be a list of integers"),
        ({"stream": "permuted-mnist"}, "'stream' must be an object"),
        ({"grid": {"lr": 0.1}}, "'grid' must be an object of lists"),
        ({"learner": 3}, "'learner' must be a string"),
        ({"study_epochs": "2"}, "'study_epochs' must be an integer"),
        ([1, 2], "config must be a JSON object"),
    ])
    def test_malformed_config_exit_2(self, config, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path), "--print-config"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"learner": "agem",}')
        assert main(["run", "--config", str(path), "--print-config"]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--seeds", "a,b"), ("--hidden", "64,x")])
    def test_malformed_int_flag_exit_2(self, flag, value, toy_config, capsys):
        assert main(["run", "--config", toy_config, flag, value, "--print-config"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{flag} takes comma-separated integers" in err

    def test_misspelt_stream_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({**TOY, "stream": {**TOY["stream"], "train_per_tsk": 20}}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "train_per_tsk" in err and "'train_per_task'" in err

    def test_malformed_grid_value_exit_2(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({**TOY, "grid": {"lr": ["fast"]}}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "lr and lam must be numbers" in capsys.readouterr().err

    def test_overrides_replace_config_fields(self, toy_config, capsys):
        assert main(["run", "--config", toy_config, "--learner", "gem", "--seeds", "3,4",
                     "--hidden", "7", "--stream", "permuted-mnist", "--study-epochs", "2",
                     "--print-config"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown == {**config_to_dict(config_from_dict(TOY)), "learner": "gem",
                         "seeds": [3, 4], "hidden": [7], "study_epochs": 2}


class TestEmitReport:
    def make_reports(self):
        config = config_from_dict(TOY)
        results = [run_seed(config, s) for s in (0, 1)]
        return [r.report for r in results], config

    def test_flat_csv_schema(self, tmp_path):
        reports, config = self.make_reports()
        emit_report(reports, aggregate_reports(reports), config_to_dict(config),
                    str(tmp_path), 1.0)
        with open(tmp_path / "results.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == FLAT_HEADER
        assert len(rows) == 1 + len(reports)

    def test_curve_csv_row_count(self, tmp_path):
        reports, config = self.make_reports()
        emit_report(reports, aggregate_reports(reports), config_to_dict(config),
                    str(tmp_path), 1.0)
        with open(tmp_path / "curves.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == CURVE_HEADER
        for r in reports:
            T = len(r.zero_shot)
            beta = r.lca_beta
            bshot = [
                row for row in rows[1:]
                if row[2] == "bshot" and int(row[1]) == r.seed
            ]
            assert len(bshot) == T * (beta + 1)

    def test_report_json_roundtrip(self, tmp_path):
        reports, config = self.make_reports()
        emit_report(reports, aggregate_reports(reports), config_to_dict(config),
                    str(tmp_path), 1.0)
        loaded = json.load(open(tmp_path / "report.json"))
        assert loaded["reports"][0] == reports[0].to_dict()

    def test_metric_outputs_reproducible(self, tmp_path):
        # byte-for-byte identical metric files under a fixed seed (wall-clock
        # timing lives in manifest.json and the timing columns only)
        reports, config = self.make_reports()
        agg = aggregate_reports(reports)
        emit_report(reports, agg, config_to_dict(config), str(tmp_path / "a"), 1.0)
        emit_report(reports, agg, config_to_dict(config), str(tmp_path / "b"), 2.0)
        assert (tmp_path / "a" / "curves.csv").read_bytes() == (
            tmp_path / "b" / "curves.csv"
        ).read_bytes()


class TestCompareAndGrid:
    def test_compare_csv_one_row_per_learner_per_seed(self, toy_config, tmp_path, capsys):
        out = str(tmp_path / "cmp")
        code = main(["compare", "--config", toy_config, "--learners",
                     "vanilla,agem", "--seeds", "0,1", "--out", out])
        assert code == 0
        with open(os.path.join(out, "results.csv")) as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + 2 * 2
        learners = {r[0] for r in rows[1:]}
        assert learners == {"vanilla", "agem"}

    def test_grid_emits_cv_table(self, tmp_path):
        config = dict(TOY)
        config["stream"] = {**TOY["stream"], "tasks": 2, "cv_split": 1}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = str(tmp_path / "grid")
        assert main(["grid", "--config", str(path), "--learners", "vanilla",
                     "--out", out]) == 0
        with open(os.path.join(out, "cv_table.csv")) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["learner", "seed", "lr", "lam", "cv_accuracy", "selected"]
        assert len(rows) == 1 + 8  # the eight-point default learning-rate grid
        assert sum(int(r[5]) for r in rows[1:]) == 1


class TestSelftest:
    def test_fast_selftest_passes(self, capsys):
        assert main(["selftest", "--fast"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
