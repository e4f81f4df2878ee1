import csv
import json
import multiprocessing
import os
import time

import pytest

from llb import cli, protocol
from llb.cli import (
    CURVE_HEADER,
    FLAT_HEADER,
    config_from_dict,
    config_hash,
    config_to_dict,
    emit_report,
    main,
)
from llb.errors import ProtocolError
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


OUTPUT_FILES = ("report.json", "results.csv", "curves.csv", "cv_table.csv")
TIMING_KEYS = ("mean_step_seconds", "step_seconds_by_task", "wall_seconds")


def metric_content(report):
    """report.json without its wall-clock fields, at any depth."""
    if isinstance(report, dict):
        return {k: metric_content(v) for k, v in report.items() if k not in TIMING_KEYS}
    if isinstance(report, list):
        return [metric_content(v) for v in report]
    return report


def record_workers(monkeypatch) -> list[int]:
    """Wrap the one worker pool, ``fork_map``, to record how many workers
    each call runs on (no more than its items); a call made inside a forked
    worker is recorded in that worker's copy and not seen here."""
    started, fork_map = [], protocol.fork_map

    def recorder(fn, items, workers):
        started.append(min(workers, len(items)))
        return fork_map(fn, items, workers)

    monkeypatch.setattr(protocol, "fork_map", recorder)
    monkeypatch.setattr(cli, "fork_map", recorder)
    return started


def jobs_outputs(monkeypatch, tmp_path, argv, lrs) -> dict:
    """``argv`` on the toy config with an ``lr`` grid of ``lrs``, run with
    ``--jobs 2`` and ``--jobs 1`` on two usable cores: jobs -> (report.json,
    the bytes of cv_table.csv), checked to hold the same content.  With
    ``--jobs 1`` selection fans a grid of two or more out to workers; with
    ``--jobs 2`` over two seeds no core is left, and it scores in-process."""
    config = tmp_path / "toy.json"
    config.write_text(json.dumps({**TOY, "grid": {"lr": lrs}}))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = record_workers(monkeypatch)
    outs = {}
    for jobs in (2, 1):
        out = tmp_path / f"jobs{jobs}"
        assert main([*argv, "--config", str(config), "--jobs", str(jobs), "--out", str(out)]) == 0
        outs[jobs] = (json.loads((out / "report.json").read_text()),
                      (out / "cv_table.csv").read_bytes())
    # the same content whether seeds or candidates run in workers or in-process
    assert metric_content(outs[2][0]) == metric_content(outs[1][0])
    assert outs[2][1] == outs[1][1]
    # per learner: --jobs 2 runs its two seeds on two workers, whose selections
    # are not seen here; --jobs 1 runs them in-process, each selection on up
    # to two candidate workers
    learners = len(outs[1][0]["config"])
    candidates = min(2, len(lrs)) if protocol.openblas(protocol.BLAS_SET_THREADS) else 1
    assert started == [2] * learners + [1, candidates, candidates] * learners
    return outs


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
        report = json.load(open(os.path.join(out, "report.json")))
        assert report["config_hash"] == config_hash(report["config"])
        assert list(report["config"]) == ["agem"]
        assert len(report["reports"]) == 1
        assert report["aggregate"]["agem"]["A_T"]["n"] == 1
        assert report["wall_seconds"] > 0
        # the per-learner table, as compare and grid print it
        assert capsys.readouterr().out.splitlines()[-1].startswith("agem ")

    @pytest.mark.parametrize("command", ["run", "compare", "grid"])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exit_2(self, command, jobs, toy_config, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "run_config_seeds", lambda config, jobs=1: ran.append(config))
        code = main([command, "--config", toy_config, "--jobs", jobs, "--out", str(tmp_path / "x")])
        assert code == 2 and ran == []
        assert capsys.readouterr().err.startswith(f"error: --jobs must be at least 1, got {jobs}")

    def test_no_more_workers_than_seeds(self, tmp_path, monkeypatch):
        config = tmp_path / "toy.json"
        config.write_text(json.dumps({**TOY, "grid": {"lr": [0.1, 0.05, 0.01]}}))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        started = record_workers(monkeypatch)
        fans = protocol.openblas(protocol.BLAS_SET_THREADS) is not None
        # seed workers, then each in-process seed's candidate workers: 4 cores
        # over one seed worker, so up to 4, but never more than 3 candidates
        for seeds, jobs, expected in (("0,1", 64, [2]), ("0", 8, [1, 3 if fans else 1]),
                                      ("0,1,2", 2, [2])):
            started.clear()
            assert main(["run", "--config", str(config), "--seeds", seeds, "--jobs", str(jobs),
                         "--out", str(tmp_path / f"j{jobs}")]) == 0
            assert started == expected

    def test_a_seed_worker_that_dies_exits_2_naming_its_exit_code(
            self, toy_config, tmp_path, capsys, monkeypatch, bounded):
        parent, run = os.getpid(), cli.run_seed

        def die(config, seed, workers):
            if os.getpid() == parent:
                pytest.fail("seed ran in-process")
            if seed == 1:
                os._exit(3)
            return run(config, seed, workers)

        monkeypatch.setattr(cli, "run_seed", die)
        with bounded(30):
            code = main(["run", "--config", toy_config, "--seeds", "0,1", "--jobs", "2",
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exited with code 3" in err
        assert multiprocessing.active_children() == []

    def test_a_failing_seed_stops_its_sibling_and_exits_2(self, toy_config, tmp_path, capsys,
                                                          monkeypatch, bounded):
        def fail(config, seed, workers):
            if seed == 0:
                time.sleep(600)     # read first, yet stopped by seed 1's failure, not waited for
            raise ProtocolError("single-pass audit failed for 1 example(s): {7: (2, 1)}")

        monkeypatch.setattr(cli, "run_seed", fail)
        with bounded(30):
            code = main(["run", "--config", toy_config, "--seeds", "0,1", "--jobs", "2",
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: single-pass audit failed")
        assert multiprocessing.active_children() == []

    def test_parallel_jobs(self, tmp_path, capsys, monkeypatch):
        outs = jobs_outputs(monkeypatch, tmp_path, ["run", "--seeds", "0,1"], [0.05])
        assert [r["seed"] for r in outs[2][0]["reports"]] == [0, 1]

    def test_parallel_jobs_with_a_grid(self, tmp_path, capsys, monkeypatch):
        outs = jobs_outputs(monkeypatch, tmp_path, ["run", "--seeds", "0,1"], [0.1, 0.05])
        assert outs[1][1].count(b"\n") == 1 + 2 * 2      # header, 2 seeds x 2 candidates

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

    def test_config_path_a_directory_exit_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path), "--print-config"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err

    def test_out_path_not_a_directory_fails_before_any_seed(self, toy_config, tmp_path, capsys,
                                                             monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "run_config_seeds", lambda config, jobs=1: ran.append(config))
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["run", "--config", toy_config, "--out", str(out)]) == 2
        assert ran == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "File exists" in err

    def test_bad_config_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"learnerz": "agem"}))
        assert main(["run", "--config", str(path)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("config,message", [
        ({"learner": "agem", "base": {"lrr": 0.1}}, "'lrr'"),
        ({"learner": "agem", "base": [1, 2]}, "'base' must be an object"),
        ({"learner": "agem", "base": {"lr": "fast"}}, "base 'lr' must be a number > 0"),
        ({"learner": "agem", "base": {"batch_size": 2.5}}, "base 'batch_size' must be an integer >= 1"),
        ({"learner": "agem", "hidden": 5}, "'hidden' must be a list of integers"),
        ({"hidden": [64, "a"]}, "'hidden' must be a list of integers"),
        ({"seeds": "0,1"}, "'seeds' must be a list of integers"),
        ({"seeds": [0, True]}, "'seeds' must be a list of integers"),
        ({"stream": "permuted-mnist"}, "'stream' must be an object"),
        ({"grid": {"lr": 0.1}}, "grid 'lr' must be a list of numbers > 0"),
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

    @pytest.mark.parametrize("stream,keys", [
        ({**TOY["stream"], "tasks": 3, "cv_split": 3}, ["cv_split=3", "tasks=3"]),
        ({"kind": "synthetic-split", "tasks": 30, "classes_per_task": 5, "num_classes": 20},
         ["tasks=30", "classes_per_task=5", "num_classes=20"]),
        ({"kind": "synthetic-split", "classes_per_task": 9, "num_classes": 8, "attributes": 3,
          "with_replacement": True}, ["classes_per_task=9", "num_classes=8"]),
        ({"kind": "synthetic-split", "tasks": 4, "num_classes": 20, "attributes": 4},
         ["attributes=4", "num_classes=20"]),
        # with replacement a class may recur in all 4 tasks, one shard of its pool each
        ({"kind": "synthetic-split", "tasks": 4, "cv_split": 1, "num_classes": 2,
          "classes_per_task": 2, "attributes": 4, "with_replacement": True,
          "train_per_class": 2, "test_per_class": 3, "input_dim": 5},
         ["train_per_class=2", "tasks=4"]),
    ])
    def test_unrunnable_stream_exit_2(self, stream, keys, tmp_path, capsys):
        # cross-key stream limits are checked with the config, before any stream is built
        path = tmp_path / "stream.json"
        path.write_text(json.dumps({**TOY, "stream": stream}))
        assert main(["run", "--config", str(path), "--print-config"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and all(key in err for key in keys)

    @pytest.mark.parametrize("stream,message", [
        ({**TOY["stream"], "tasks": "4"}, "stream 'tasks' must be an integer >= 2"),
        ({**TOY["stream"], "train_per_task": -5},
         "stream 'train_per_task' must be an integer >= 1 or null"),
        ({"kind": "synthetic-split", "noise": "big"}, "stream 'noise' must be a number >= 0"),
    ])
    def test_malformed_stream_value_exit_2(self, stream, message, tmp_path, capsys):
        path = tmp_path / "stream.json"
        path.write_text(json.dumps({**TOY, "stream": stream}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_data_dir_without_idx_files_exit_2(self, tmp_path, capsys):
        path = tmp_path / "data.json"
        path.write_text(json.dumps({**TOY, "stream": {**TOY["stream"], "data_dir": str(tmp_path)}}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "lacks train-images-idx3-ubyte" in err

    def test_malformed_grid_value_exit_2(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({**TOY, "grid": {"lr": ["fast"]}}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "grid 'lr' must be a list of numbers > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("key,override", [
        ("train_per_task", {"stream": {**TOY["stream"], "train_per_task": 0}}),
        ("base_train", {"stream": {**TOY["stream"], "base_train": 0}}),
        ("train_per_class", {"stream": {"kind": "synthetic-split", "tasks": 4, "cv_split": 1,
                                        "num_classes": 20, "train_per_class": 0}}),
        ("fisher_samples", {"base": {**TOY["base"], "fisher_samples": 0}}),
        ("fisher_samples", {"base": {**TOY["base"], "fisher_samples": -3}}),
        ("seeds", {"seeds": [-1]}),
    ])
    def test_zero_or_negative_count_exit_2(self, key, override, tmp_path, capsys):
        path = tmp_path / "count.json"
        path.write_text(json.dumps({**TOY, "learner": "ewc", **override}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{key}'" in err

    @pytest.mark.parametrize("override,flags,message", [
        ({"stream": {**TOY["stream"], "tasks": "4"}}, [], "stream 'tasks'"),
        ({"grid": {"lr": ["fast"]}}, [], "grid 'lr'"),
        ({}, ["--learner", "bogus"], "unknown learner 'bogus'"),
        ({}, ["--study-epochs", "0"], "config 'study_epochs'"),
        ({}, ["--seeds", "0,0"], "config 'seeds' names a seed twice"),
        ({}, ["--learner", "agem-je"], "integer task ids"),
    ])
    def test_print_config_checks_every_value(self, override, flags, message, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TOY, **override}))
        assert main(["run", "--config", str(path), "--print-config", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

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
        assert FLAT_HEADER[4:6] == ["LCA", "lca_beta"]
        assert len(rows) == 1 + len(reports)
        # the area is taken at the run's own horizon, which the next column names
        for row, r in zip(rows[1:], reports):
            assert float(row[4]) == r.lca and int(row[5]) == r.lca_beta

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
        # timing lives in report.json's timing fields and columns only)
        reports, config = self.make_reports()
        agg = aggregate_reports(reports)
        emit_report(reports, agg, config_to_dict(config), str(tmp_path / "a"), 1.0)
        emit_report(reports, agg, config_to_dict(config), str(tmp_path / "b"), 2.0)
        assert (tmp_path / "a" / "curves.csv").read_bytes() == (
            tmp_path / "b" / "curves.csv"
        ).read_bytes()


def two_task_toy(tmp_path) -> str:
    path = tmp_path / "toy2.json"
    path.write_text(json.dumps({**TOY, "stream": {**TOY["stream"], "tasks": 2, "cv_split": 1}}))
    return str(path)


class TestCompareAndGrid:
    TWO_LEARNERS = ("--learners", "vanilla,agem", "--seeds", "0,1")

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

    @pytest.mark.parametrize("command", ["compare", "grid"])
    def test_report_names_each_learner_config(self, command, tmp_path, capsys):
        out = str(tmp_path / command)
        assert main([command, "--config", two_task_toy(tmp_path), "--learners", "vanilla,ewc",
                     "--out", out]) == 0
        report = json.load(open(os.path.join(out, "report.json")))
        assert sorted(report["config"]) == ["ewc", "vanilla"]
        assert report["config_hash"] == config_hash(report["config"])
        for name, config in report["config"].items():
            assert config["learner"] == name
        assert sorted(report["aggregate"]) == ["ewc", "vanilla"]
        assert {r["learner"] for r in report["reports"]} == {"ewc", "vanilla"}
        # grid sweeps the default grid, and lam for EWC only
        ewc_grid = report["config"]["ewc"]["grid"]
        if command == "grid":
            assert ewc_grid == {"lr": cli.DEFAULT_LR_GRID, "lam": cli.DEFAULT_REG_GRID}
            assert report["config"]["vanilla"]["grid"] == {"lr": cli.DEFAULT_LR_GRID}
        else:
            assert ewc_grid == TOY["grid"]

    def test_compare_hash_depends_on_learner_list(self, toy_config, tmp_path, capsys):
        hashes = set()
        for learners in ("vanilla,agem", "vanilla,gem"):
            out = str(tmp_path / learners)
            assert main(["compare", "--config", toy_config, "--learners", learners,
                         "--out", out]) == 0
            hashes.add(json.load(open(os.path.join(out, "report.json")))["config_hash"])
        assert len(hashes) == 2

    def test_compare_parallel_jobs(self, tmp_path, capsys, monkeypatch):
        outs = jobs_outputs(monkeypatch, tmp_path, ["compare", *self.TWO_LEARNERS], [0.05])
        assert sorted(outs[2][0]["aggregate"]) == ["agem", "vanilla"]

    def test_compare_parallel_jobs_with_a_grid(self, tmp_path, capsys, monkeypatch):
        outs = jobs_outputs(monkeypatch, tmp_path, ["compare", *self.TWO_LEARNERS], [0.1, 0.05])
        assert outs[1][1].count(b"\n") == 1 + 2 * 2 * 2     # header, 2 learners x 2 seeds x 2

    @pytest.mark.parametrize("command", ["compare", "grid"])
    def test_learner_flag_removed(self, command, toy_config, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", toy_config, "--learner", "agem",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --learner" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compare", "grid"])
    def test_unknown_learner_rejected_before_any_run(self, command, toy_config, tmp_path,
                                                     capsys, monkeypatch):
        ran, run = [], cli.run_config_seeds
        monkeypatch.setattr(cli, "run_config_seeds",
                            lambda config, jobs=1: ran.append(config) or run(config, jobs))
        code = main([command, "--config", toy_config, "--learners", "agem,bogus",
                     "--out", str(tmp_path / "out")])
        assert code == 2 and ran == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unknown learner 'bogus'" in err
        # the patched function is the one that runs seeds
        assert main([command, "--config", two_task_toy(tmp_path), "--learners", "vanilla",
                     "--out", str(tmp_path / "out")]) == 0
        assert [c.learner for c in ran] == ["vanilla"]

    def test_je_learner_on_integer_stream_rejected_before_any_run(self, toy_config, tmp_path,
                                                                 capsys, monkeypatch):
        # found after agem's seeds, the error would lose their finished results
        ran, run = [], cli.run_config_seeds
        monkeypatch.setattr(cli, "run_config_seeds",
                            lambda config, jobs=1: ran.append(config) or run(config, jobs))
        out = tmp_path / "out"
        assert main(["compare", "--config", toy_config, "--learners", "agem,agem-je",
                     "--out", str(out)]) == 2
        assert ran == [] and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "integer task ids" in err

    @pytest.mark.parametrize("command", ["compare", "grid"])
    def test_repeated_learner_rejected_before_any_run(self, command, toy_config, tmp_path,
                                                      capsys, monkeypatch):
        # the report's config and aggregate are keyed by learner, one entry each
        ran = []
        monkeypatch.setattr(cli, "run_config_seeds", lambda config, jobs=1: ran.append(config))
        code = main([command, "--config", toy_config, "--learners", "agem,vanilla,agem",
                     "--out", str(tmp_path / "out")])
        assert code == 2 and ran == []
        assert "--learners names a learner twice" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare", "grid"])
    def test_one_layout(self, command, tmp_path, capsys):
        out = str(tmp_path / command)
        assert main([command, "--config", two_task_toy(tmp_path), "--out", out]) == 0
        assert sorted(os.listdir(out)) == sorted(OUTPUT_FILES)
        report = json.load(open(os.path.join(out, "report.json")))
        assert sorted(report) == ["aggregate", "config", "config_hash", "reports", "wall_seconds"]
        assert sorted(report["aggregate"]) == sorted(report["config"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[-len(report["config"]) - 1].split() == ["learner", "A_T", "F_T", "LCA",
                                                            "viol", "s/step"]

    def test_cv_table_tells_apart_every_hyper_parameter(self, tmp_path, capsys):
        path = tmp_path / "ref.json"
        path.write_text(json.dumps({**TOY, "grid": {"ref_batch_size": [4, 8]}}))
        out = str(tmp_path / "ref")
        assert main(["run", "--config", str(path), "--out", out]) == 0
        with open(os.path.join(out, "cv_table.csv")) as f:
            rows = list(csv.DictReader(f))
        assert [r["ref_batch_size"] for r in rows] == ["4", "8"]
        assert [r["lr"] for r in rows] == ["0.05", "0.05"]

    def test_grid_emits_cv_table(self, tmp_path):
        out = str(tmp_path / "grid")
        assert main(["grid", "--config", two_task_toy(tmp_path), "--learners", "vanilla",
                     "--out", out]) == 0
        with open(os.path.join(out, "cv_table.csv")) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["learner", "seed", "lr", "lam", "memory_per_task", "ref_batch_size",
                           "batch_size", "epochs", "beta", "fisher_samples", "cv_accuracy",
                           "selected"]
        assert len(rows) == 1 + 8  # the eight-point default learning-rate grid
        assert sum(int(r[-1]) for r in rows[1:]) == 1
        # one layout: no per-learner directory
        assert not os.path.exists(os.path.join(out, "vanilla"))


class TestSelftest:
    def test_fast_selftest_passes(self, capsys):
        assert main(["selftest", "--fast"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
