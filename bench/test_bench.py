"""Checks on the benchmark itself.

    python3 -m pytest bench

Runs every workload once traced (one repetition each), one workload
untraced, and one workload traced a second time; a few minutes on two
cores.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

# counts that must repeat exactly between two traced runs of one seed
EXACT = (
    "protocol.ev_steps", "streams.batches", "nn.trunk_forward.calls", "nn.trunk_forward.rows",
    "nn.trunk_gflop", "learners.agem.violation_rate", "learners.gem.violation_rate",
    "qp.solve_nonneg_qp.calls", "qp.iterations_p50", "qp.iterations_max",
    "qp.unconverged_frac", "memory.bytes", "learners.ewc.anchor_bytes",
    "learners.batch_loss_and_grad.calls", "learners.mixed_loss_and_grad.calls",
    "learners.mixed_loss_and_grad.tasks_p50", "metrics.record.calls",
    "protocol.eval_accuracy.calls",
)

ALL = set(WORKLOADS)
REF_PATH = {"pmnist-agem", "split-je"}
# metric -> workloads where it must be nonzero; it must be zero on the rest
NONZERO = {
    "streams.build_stream.s": ALL, "streams.minibatches.s": ALL, "streams.batches": ALL,
    "nn.trunk_forward.calls": ALL, "nn.trunk_forward.rows": ALL, "nn.trunk_gflop": ALL,
    "nn.apply_update.s": ALL, "nn.apply_update.ms_p50": ALL, "nn.predict.s": {"pmnist-agem", "pmnist-long"},
    "embedding.je_loss_and_grad.s": {"split-je"}, "embedding.je_predict.s": {"split-je"},
    "memory.sample_ref_batch.s": REF_PATH, "memory.sample_ref_batch.ms_p50": REF_PATH,
    "memory.update_eps_mem.s": ALL, "memory.bytes": ALL,
    "qp.DualProblem.from_gradients.s": {"pmnist-long"}, "qp.solve_nonneg_qp.s": {"pmnist-long"},
    "qp.solve_nonneg_qp.ms_p50": {"pmnist-long"}, "qp.solve_nonneg_qp.ms_p95": {"pmnist-long"},
    "qp.solve_nonneg_qp.calls": {"pmnist-long"}, "qp.iterations_p50": {"pmnist-long"},
    "qp.iterations_max": {"pmnist-long"}, "qp.drop_zero_rows.s": {"pmnist-long"},
    "qp.reconstruct.s": {"pmnist-long"},
    "learners.agem.step.ms_p50": REF_PATH, "learners.agem.step.ms_p95": REF_PATH,
    "learners.gem.step.ms_p50": {"pmnist-long"}, "learners.gem.step.ms_p95": {"pmnist-long"},
    "learners.ewc.step.ms_p50": {"pmnist-long"}, "learners.ewc.step.ms_p95": {"pmnist-long"},
    "learners.batch_loss_and_grad.s": ALL, "learners.batch_loss_and_grad.calls": ALL,
    "learners.mixed_loss_and_grad.s": REF_PATH, "learners.mixed_loss_and_grad.calls": REF_PATH,
    "learners.mixed_loss_and_grad.tasks_p50": REF_PATH, "learners.agem_project.s": REF_PATH,
    "learners.gem_step.s": {"pmnist-long"}, "learners.gem.ms_per_stored_task": {"pmnist-long"},
    "learners.agem.ms_per_stored_task": REF_PATH,
    "learners.ewc_penalty_and_grad.s": {"pmnist-long"},
    "learners.ewc_consolidate.s": {"pmnist-long"}, "learners.ewc.anchor_bytes": {"pmnist-long"},
    "learners.agem.violation_rate": REF_PATH, "learners.gem.violation_rate": {"pmnist-long"},
    "metrics.record.calls": ALL, "protocol.eval_accuracy.s": ALL,
    "protocol.eval_accuracy.calls": ALL, "protocol.eval_all.s": ALL,
    "protocol.run_single_pass.self_s": ALL, "protocol.cross_validate.s": ALL,
    "protocol.audit.s": ALL, "protocol.build_report.s": ALL, "cli.emit_report.s": ALL,
    "protocol.ev_steps": ALL, "protocol.run_single_pass.child_coverage": ALL,
}


def bench(workload: str, trace: int, seed: int = 0, script: str = run.__file__, cwd=ROOT):
    cmd = [sys.executable, script, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=cwd)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced() -> dict:
    return {name: result_of(bench(name, 1)) for name in WORKLOADS}


def test_spec_names_and_workloads():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_untraced_run_prints_every_end_to_end_metric():
    result = result_of(bench("split-je", 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_runs_print_every_per_layer_metric(traced):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, result in traced.items():
        assert result["correct"], name
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected, name


@pytest.mark.parametrize("metric", sorted(NONZERO))
def test_layer_metric_is_nonzero_exactly_where_the_layer_works(traced, metric):
    for name, result in traced.items():
        value = result["metrics"][metric]["value"]
        assert (value != 0) == (name in NONZERO[metric]), (name, metric, value)


def test_gem_cost_rises_with_stored_tasks_and_agem_stays_flatter(traced):
    long_ = traced["pmnist-long"]["metrics"]
    agem = traced["pmnist-agem"]["metrics"]
    assert long_["learners.gem.ms_per_stored_task"]["value"] > 0
    assert (abs(agem["learners.agem.ms_per_stored_task"]["value"])
            < long_["learners.gem.ms_per_stored_task"]["value"])


def test_exact_counts_repeat(traced):
    again = result_of(bench("pmnist-long", 1))["metrics"]
    first = traced["pmnist-long"]["metrics"]
    for key in EXACT:
        assert again[key]["value"] == first[key]["value"], key


def test_reference_tolerance_rejects_plain_sgd():
    reference = load_reference()
    agem = reference["workloads"]["pmnist-agem"]["agem"]
    vanilla = reference["controls"]["pmnist-agem"]["vanilla"]["A_T"]
    for seed, acc in vanilla.items():
        assert abs(acc - agem["A_T"][seed]) > agem["tol"], seed

    run.import_llb()
    workload = WORKLOADS["pmnist-agem"]
    from llb import cli

    config = cli.config_from_dict(workload.config_dict("vanilla", 1))
    report = cli.run_config_seeds(config, jobs=1)[0].report.to_dict()
    problems = run.check_report(report, 500, False, agem["A_T"]["1"], agem["tol"])
    assert any("reference" in p for p in problems)


def test_exits_nonzero_without_the_program():
    # a dot directory, so that pytest does not collect the copied tests
    bare = os.path.join(run.OUT_DIR, ".bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench("split-je", 0, script=os.path.join(bare, "bench", "run.py"), cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
