"""The benchmark tracer's contract with the library, checked in seconds.

``bench/tracer.py`` wraps library functions by module attribute name, so a
deleted or renamed name breaks the benchmark.  These tests run tiny
``gem`` and ``agem-je`` configs under ``Tracer(layers=True)``: entering the
tracer fails on a missing name, and each wrapped call site must still be
reached, on the head mode the benchmark expects it on.
"""

import importlib.util
import os

import pytest

from llb import cli

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")

GEM = {
    "learner": "gem",
    "stream": {"kind": "permuted-mnist", "tasks": 4, "cv_split": 1,
               "train_per_task": 60, "test_per_task": 20,
               "base_train": 200, "base_test": 80, "input_dim": 32},
    "hidden": [16, 16],
    "base": {"lr": 0.1, "memory_per_task": 10, "batch_size": 5, "beta": 2},
    "grid": {"lr": [0.1]},
    "seeds": [0],
}

AGEM_JE = {
    "learner": "agem-je",
    "stream": {"kind": "synthetic-split", "tasks": 4, "cv_split": 1,
               "num_classes": 20, "classes_per_task": 3, "attributes": 8,
               "input_dim": 12, "train_per_class": 10, "test_per_class": 10},
    "hidden": [12, 10],
    "base": {"lr": 0.05, "memory_per_task": 10, "ref_batch_size": 8,
             "batch_size": 5, "beta": 2},
    "grid": {"lr": [0.05]},
    "seeds": [0],
}

# spans every run reaches, whatever its learner and head mode
COMMON = {
    "protocol.cross_validate", "protocol.run_single_pass", "streams.build_stream",
    "streams.minibatches", "nn.trunk_forward", "nn.apply_update",
    "memory.update_eps_mem", "learners.step", "learners.batch_loss_and_grad",
    "metrics.record", "protocol.eval_accuracy", "protocol.eval_all",
    "protocol.audit_single_pass", "protocol.audit_isolation", "protocol.audit_reset",
    "protocol.build_report", "protocol.run_seed",
}
EXPECTED = {
    "gem": COMMON | {
        "nn.predict", "learners.gem_step", "qp.drop_zero_rows",
        "qp.DualProblem.from_gradients", "qp.solve_nonneg_qp", "qp.reconstruct",
    },
    "agem-je": COMMON | {
        "embedding.je_loss_and_grad", "embedding.je_predict", "memory.sample_ref_batch",
        "learners.mixed_loss_and_grad", "learners.agem_project",
    },
}
# the head mode that must never reach a span
ABSENT = {"gem": {"embedding.je_loss_and_grad", "embedding.je_predict"},
          "agem-je": {"nn.predict"}}


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_run(tracer_module, config_dict):
    config = cli.config_from_dict(config_dict)
    with tracer_module.Tracer(layers=True) as tracer:
        reports = [r.report for r in cli.run_config_seeds(config, jobs=1)]
    return tracer.spans, reports


@pytest.mark.parametrize("config", [GEM, AGEM_JE], ids=["gem", "agem-je"])
def test_wrapped_names_reached(tracer_module, config):
    spans, _ = traced_run(tracer_module, config)
    names = {s.name for s in spans}
    learner = config["learner"]
    assert EXPECTED[learner] <= names, sorted(EXPECTED[learner] - names)
    assert not names & ABSENT[learner]


def test_attribute_readers_see_solver_and_state(tracer_module):
    spans, reports = traced_run(tracer_module, GEM)
    solves = [s.attrs for s in spans if s.name == "qp.solve_nonneg_qp"]
    assert solves and all(a["converged"] and a["iterations"] >= 1 for a in solves)
    ev = [s.attrs for s in spans if s.name == "protocol.run_single_pass" and s.ev]
    assert len(ev) == 1
    assert ev[0]["violations"] == reports[0].violations == len(solves)
    assert ev[0]["memory_bytes"] > 0 and ev[0]["anchor_bytes"] == 0


def test_tracing_leaves_results_and_names_untouched(tracer_module):
    from llb import learners, protocol

    before = (learners.batch_loss_and_grad, protocol.je_predict)
    _, traced = traced_run(tracer_module, AGEM_JE)
    assert (learners.batch_loss_and_grad, protocol.je_predict) == before
    plain = cli.run_config_seeds(cli.config_from_dict(AGEM_JE), jobs=1)
    strip = ("mean_step_seconds", "step_seconds_by_task")
    assert [{k: v for k, v in r.to_dict().items() if k not in strip} for r in traced] == [
        {k: v for k, v in r.report.to_dict().items() if k not in strip} for r in plain
    ]
