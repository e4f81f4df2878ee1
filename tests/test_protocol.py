import inspect
import json
import multiprocessing
import os
import re
import struct
import time
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from llb import cli, nn, protocol
from llb.cli import config_from_dict
from llb.errors import ConfigurationError, LlbError, NumericError, ProtocolError
from llb.learners import LearnerState, make_learner, multitask_train
from llb.metrics import AccuracyTensor, avg_accuracy
from llb.protocol import (
    DATA_DIR_ENV,
    IDX_FILES,
    LEAST_VALUES,
    ExperimentConfig,
    HyperParams,
    STREAM_DEFAULTS,
    RunTrace,
    arch_for_stream,
    audit_isolation,
    audit_reset,
    audit_single_pass,
    build_report,
    build_stream,
    cross_validate,
    eval_all,
    eval_accuracy,
    expand_grid,
    parse_learner,
    run_seed,
    run_single_pass,
    split_cv_ev,
)
from llb.streams import make_permuted_stream, synthetic_mnist_base


def toy_stream(T=3, cv=1, n=30, dim=8, seed=0):
    base = synthetic_mnist_base(200, 80, seed=seed, dim=dim)
    return make_permuted_stream(base, T=T, seed=seed, cv_split=cv,
                                train_per_task=n, test_per_task=20)


def stream_ids(tasks):
    """Every training sample id of the tasks, in task order: the ledger of a
    correct single pass, up to order."""
    return np.concatenate([t.train_ids for t in tasks])


def toy_hp(**kw):
    defaults = dict(lr=0.05, memory_per_task=10, ref_batch_size=8, batch_size=10, beta=2)
    defaults.update(kw)
    return HyperParams(**defaults)


class TestRunSinglePass:
    def test_cadence_key_audit(self):
        cont = toy_stream()
        cv, ev = split_cv_ev(cont)
        arch = arch_for_stream(cont, (6, 5), False)
        hp = toy_hp()
        learner = make_learner("vanilla", nn.init_model(arch, 0), hp, 0)
        _, run = run_single_pass(learner, ev, hp, 0)
        tensor = run.tensor
        expected = set()
        for task in ev:
            bk = tensor.batch_counts[task.task_id]
            expected.add((task.task_id, 0, task.task_id))
            for i in range(1, min(hp.beta, bk) + 1):
                expected.add((task.task_id, i, task.task_id))
            for other in ev:
                expected.add((task.task_id, bk, other.task_id))
        assert set(tensor.entries) == expected

    def test_same_seed_identical_tensors(self):
        cont = toy_stream()
        cv, ev = split_cv_ev(cont)
        arch = arch_for_stream(cont, (6, 5), False)
        hp = toy_hp()
        tensors = []
        for _ in range(2):
            learner = make_learner("agem", nn.init_model(arch, 3), hp, 3)
            tensors.append(run_single_pass(learner, ev, hp, 3)[1].tensor)
        assert tensors[0].entries == tensors[1].entries

    def test_visit_audit_counts_every_example_once(self):
        cont = toy_stream()
        cv, ev = split_cv_ev(cont)
        arch = arch_for_stream(cont, (6, 5), False)
        hp = toy_hp()
        learner = make_learner("vanilla", nn.init_model(arch, 0), hp, 0)
        _, trace = run_single_pass(learner, ev, hp, 0)
        assert trace.visits.dtype == np.int64
        assert np.array_equal(np.sort(trace.visits), np.sort(stream_ids(ev)))

    def test_ledger_and_audit_cost_a_few_int64_per_visit(self):
        # 20 tasks of 1,000 rows; the inputs are tiny, so the run's growth in
        # traced memory is its visit ledger (8 bytes a visit), the audit's
        # sorted copy of it (8) and one-byte mark, and one task's batches
        import tracemalloc

        from llb.streams import TaskDataset

        rng = np.random.default_rng(0)
        tasks = [
            TaskDataset(
                task_id=k, train_x=rng.normal(size=(1000, 4)), train_y=rng.integers(0, 2, 1000),
                test_x=rng.normal(size=(20, 4)), test_y=rng.integers(0, 2, 20),
                descriptor=k, label_set=(0, 1),
            )
            for k in range(1, 21)
        ]
        arch = nn.mlp(4, (3,), [2] * 20, task_ids=list(range(1, 21)))
        hp = toy_hp(batch_size=10)
        learner = make_learner("vanilla", nn.init_model(arch, 0), hp, 0)
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        _, run = run_single_pass(learner, tasks, hp, 0, log_accuracy=False)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # a ledger of Python ints (a Counter and the audit's dict) takes over 100
        assert peak - before <= 24 * 20_000
        assert len(run.visits) == 20_000

    def test_numeric_failure_keeps_its_type_and_names_the_task(self):
        cont = toy_stream()
        _, ev = split_cv_ev(cont)
        # the second EV task's training inputs are NaN; its test split is clean
        ev[1] = replace(ev[1], train_x=np.full(ev[1].train_x.shape, np.nan))
        hp = toy_hp()
        learner = make_learner("vanilla", nn.init_model(arch_for_stream(cont, (6, 5), False), 0),
                               hp, 0)
        with pytest.raises(NumericError, match=f"during task {ev[1].task_id}: non-finite"):
            run_single_pass(learner, ev, hp, 0)

    def test_hand_built_tasks_pass_the_single_pass_audit(self):
        # tasks made without train_ids get distinct default ids, so one
        # correct pass over two of them visits 20 distinct examples once each
        from llb.streams import TaskDataset

        rng = np.random.default_rng(0)
        tasks = [
            TaskDataset(
                task_id=t, train_x=rng.normal(size=(10, 5)), train_y=np.zeros(10, dtype=np.int64),
                test_x=rng.normal(size=(4, 5)), test_y=np.zeros(4, dtype=np.int64),
                descriptor=t, label_set=(0,),
            )
            for t in (1, 2)
        ]
        arch = nn.mlp(5, (4,), [1, 1], task_ids=[1, 2])
        hp = toy_hp(batch_size=3)
        learner = make_learner("vanilla", nn.init_model(arch, 0), hp, 0)
        _, trace = run_single_pass(learner, tasks, hp, 0)
        assert len(trace.visits) == 20 and len(np.unique(trace.visits)) == 20

    def test_memory_tensor_recorded_for_memory_learners(self):
        cont = toy_stream()
        cv, ev = split_cv_ev(cont)
        arch = arch_for_stream(cont, (6, 5), False)
        hp = toy_hp()
        learner = make_learner("agem", nn.init_model(arch, 0), hp, 0)
        _, trace = run_single_pass(learner, ev, hp, 0)
        assert trace.memory_tensor is not None
        first, second = ev[0].task_id, ev[1].task_id
        bk = trace.memory_tensor.batch_counts[second]
        assert (second, bk, first) in trace.memory_tensor.entries

    @pytest.mark.parametrize("name, has_memory", [
        ("vanilla", False), ("ewc", False), ("agem", True), ("gem", True),
    ])
    def test_returns_state_and_its_own_record(self, name, has_memory):
        cont = toy_stream()
        _, ev = split_cv_ev(cont)
        arch = arch_for_stream(cont, (6, 5), False)
        hp = toy_hp()
        learner = make_learner(name, nn.init_model(arch, 0), hp, 0)
        state, run = run_single_pass(learner, ev, hp, 0)
        order = [t.task_id for t in ev]
        assert state is learner.state
        assert isinstance(run, RunTrace)
        assert run.tensor.order == order
        assert [k for k, _ in run.violations_by_task] == order
        assert [k for k, _ in run.step_seconds_by_task] == order
        if has_memory:
            assert run.memory_tensor.order == order
            assert run.memory_tensor.batch_counts == run.tensor.batch_counts
            last = order[-1]
            assert {(k, j) for k, _, j in run.memory_tensor.entries if k == last} == {
                (last, j) for j in order
            }
        else:
            assert run.memory_tensor is None
        # every call builds a fresh record
        learner = make_learner(name, nn.init_model(arch, 0), hp, 0)
        assert run_single_pass(learner, ev, hp, 0)[1].tensor is not run.tensor

    def test_caller_passes_no_log(self):
        assert list(inspect.signature(run_single_pass).parameters) == [
            "learner", "tasks", "hp", "seed", "log_accuracy",
        ]
        assert list(inspect.signature(build_report).parameters) == [
            "learner_name", "seed", "state", "run", "hp",
        ]

    def test_own_task_test_split_gathered_once_per_task(self):
        from llb.streams import Rows

        class CountingRows(Rows):
            __slots__ = ("gathers",)

            def __getitem__(self, key):
                self.gathers += 1
                return super().__getitem__(key)

        cont = toy_stream(T=4)
        _, ev = split_cv_ev(cont)
        for t in ev:
            t.test_x = CountingRows(t.test_x.base, t.test_x.rows, t.test_x.perm)
            t.test_x.gathers = 0
        arch = arch_for_stream(cont, (6, 5), False)
        hp = toy_hp(beta=3)
        learner = make_learner("vanilla", nn.init_model(arch, 0), hp, 0)
        run_single_pass(learner, ev, hp, 0)
        # once for the 1 + beta cadence evaluations, once per task boundary
        assert [t.test_x.gathers for t in ev] == [1 + len(ev)] * len(ev)


class TestAudits:
    def test_single_pass_audit_passes_a_correct_ledger_in_any_order(self):
        _, ev = split_cv_ev(toy_stream())
        ledger = stream_ids(ev)
        audit_single_pass(ledger, ev, 1)
        audit_single_pass(np.random.default_rng(0).permutation(ledger), ev, 1)
        audit_single_pass(np.concatenate([ledger[::-1], ledger]), ev, 2)

    def test_single_pass_audit_detects_missing_visit(self):
        _, ev = split_cv_ev(toy_stream())
        ledger = stream_ids(ev)
        with pytest.raises(ProtocolError, match="single-pass") as err:
            audit_single_pass(ledger[1:], ev, 1)
        assert str(err.value).endswith(f"for 1 example(s): {{{ledger[0]}: (0, 1)}}")

    def test_single_pass_audit_of_an_empty_stream_passes(self):
        audit_single_pass(np.empty(0, dtype=np.int64), [])

    def test_single_pass_audit_detects_double_visit(self):
        _, ev = split_cv_ev(toy_stream())
        ledger = stream_ids(ev)
        with pytest.raises(ProtocolError, match="single-pass") as err:
            audit_single_pass(np.append(ledger, ledger[3]), ev, 1)
        assert str(err.value).endswith(f"for 1 example(s): {{{ledger[3]}: (2, 1)}}")

    def test_single_pass_audit_detects_an_id_in_no_task(self):
        _, ev = split_cv_ev(toy_stream())
        with pytest.raises(ProtocolError, match="single-pass") as err:
            audit_single_pass(np.append(stream_ids(ev), 999), ev, 1)
        assert str(err.value).endswith("for 1 example(s): {999: (1, None)}")

    def test_single_pass_audit_expects_each_id_once_per_epoch(self):
        _, ev = split_cv_ev(toy_stream())
        ledger = stream_ids(ev)
        with pytest.raises(ProtocolError, match="single-pass") as err:
            audit_single_pass(np.concatenate([ledger, ledger[1:]]), ev, 2)
        assert str(err.value).endswith(f"for 1 example(s): {{{ledger[0]}: (1, 2)}}")

    def test_single_pass_audit_fails_an_id_two_tasks_list(self):
        # each task's correct pass visits the shared id once, so the stream's
        # one example with that id is seen twice
        _, ev = split_cv_ev(toy_stream())
        shared = ev[0].train_ids[0]
        ev[1].train_ids = np.append(ev[1].train_ids[:-1], shared)
        with pytest.raises(ProtocolError, match="single-pass") as err:
            audit_single_pass(stream_ids(ev), ev, 1)
        assert str(err.value).endswith(f"for 1 example(s): {{{shared}: (2, 1)}}")

    def test_single_pass_audit_samples_at_most_five_ids_ascending(self):
        _, ev = split_cv_ev(toy_stream())
        ledger = np.sort(stream_ids(ev))
        with pytest.raises(ProtocolError) as err:
            audit_single_pass(np.concatenate([ledger[7:], [-3, -3]]), ev, 1)
        sample = {-3: (2, None), **{int(i): (0, 1) for i in ledger[:4]}}
        assert str(err.value) == f"single-pass audit failed for 8 example(s): {sample}"

    def test_isolation_audit_rejects_cross_reads(self):
        cont = toy_stream(T=4, cv=2)
        cv, ev = split_cv_ev(cont)
        audit_isolation(cv, ev, stream_ids(ev))
        with pytest.raises(ProtocolError, match="EV phase"):
            audit_isolation(cv, ev, np.append(stream_ids(ev), cv[0].train_ids[0]))

    def test_isolation_audit_rejects_shared_sample_ids(self):
        cv, ev = split_cv_ev(toy_stream(T=4, cv=2))
        ev[1].train_ids = np.append(ev[1].train_ids[:-1], cv[1].train_ids[5])
        with pytest.raises(ProtocolError, match="share training sample ids"):
            audit_isolation(cv, ev, stream_ids(ev))

    def test_isolation_audit_rejects_shared_task_ids(self):
        cv, ev = split_cv_ev(toy_stream(T=4, cv=2))
        ev[0] = replace(ev[0], task_id=cv[1].task_id, train_ids=ev[0].train_ids)
        with pytest.raises(ProtocolError, match="share task ids"):
            audit_isolation(cv, ev, stream_ids(ev))

    def test_reset_audit(self):
        cont = toy_stream()
        arch = arch_for_stream(cont, (6, 5), False)
        hp = toy_hp()
        learner = make_learner("agem", nn.init_model(arch, 5), hp, 5)
        audit_reset(learner, arch, 5)
        learner.state.model.theta[0] += 1.0
        with pytest.raises(ProtocolError, match="parameter vector"):
            audit_reset(learner, arch, 5)
        learner = make_learner("agem", nn.init_model(arch, 5), hp, 5)
        learner.state.violation_count = 3
        with pytest.raises(ProtocolError, match="counters"):
            audit_reset(learner, arch, 5)


class TestEvalAll:
    def test_single_class_tasks_are_perfect(self):
        from llb.streams import TaskDataset

        rng = np.random.default_rng(0)
        tasks = [
            TaskDataset(
                task_id=t,
                train_x=rng.normal(size=(4, 5)),
                train_y=np.zeros(4, dtype=np.int64),
                test_x=rng.normal(size=(6, 5)),
                test_y=np.zeros(6, dtype=np.int64),
                descriptor=t,
                label_set=(0,),
            )
            for t in (1, 2)
        ]
        arch = nn.mlp(5, (4,), [1, 1], task_ids=[1, 2])
        accs = eval_all(nn.init_model(arch, 0), tasks)
        assert np.array_equal(accs, [1.0, 1.0])

    def test_random_model_near_chance(self):
        cont = toy_stream(T=2, cv=1, n=30)
        arch = arch_for_stream(cont, (6, 5), False)
        accs = [
            eval_all(nn.init_model(arch, s), cont.tasks).mean() for s in range(40)
        ]
        assert abs(np.mean(accs) - 0.1) < 0.05

    def test_matches_direct_recount(self):
        cont = toy_stream(T=2, cv=1)
        arch = arch_for_stream(cont, (6, 5), False)
        model = nn.init_model(arch, 7)
        accs = eval_all(model, cont.tasks)
        for task, acc in zip(cont.tasks, accs):
            preds = nn.predict(model, task.test_x, task.task_id)
            manual = sum(int(p == y) for p, y in zip(preds, task.test_y)) / len(task.test_y)
            assert acc == pytest.approx(manual)


class TestCrossValidate:
    def test_single_candidate_wins(self):
        cont = toy_stream(T=3, cv=2)
        cv, _ = split_cv_ev(cont)
        arch = arch_for_stream(cont, (6, 5), False)
        hp = toy_hp()
        result = cross_validate("vanilla", cv, arch, [hp], seed=0)
        assert result.best == hp

    def test_divergent_candidate_loses(self):
        cont = toy_stream(T=3, cv=2, n=40)
        cv, _ = split_cv_ev(cont)
        arch = arch_for_stream(cont, (6, 5), False)
        stable = toy_hp(lr=0.03)
        divergent = toy_hp(lr=10.0)
        result = cross_validate("vanilla", cv, arch, [divergent, stable], seed=0)
        assert result.best == stable
        accs = {c.hp.lr: c.accuracy for c in result.candidates}
        assert accs[10.0] is None or accs[10.0] < accs[0.03]

    def test_selection_reads_only_cv_tasks(self):
        cont = toy_stream(T=4, cv=2)
        cv, ev = split_cv_ev(cont)
        arch = arch_for_stream(cont, (6, 5), False)
        poisoned = [
            t.__class__(**{**t.__dict__, "train_x": np.full_like(t.train_x, np.nan)})
            for t in ev
        ]
        result = cross_validate("vanilla", cv, arch, [toy_hp()], seed=0)
        del poisoned
        assert result.best is not None

    def test_tie_keeps_first_in_grid(self):
        cont = toy_stream(T=3, cv=2)
        cv, _ = split_cv_ev(cont)
        arch = arch_for_stream(cont, (6, 5), False)
        a = toy_hp(lam=1.0)
        b = toy_hp(lam=2.0)  # lam unused by vanilla: identical accuracy
        result = cross_validate("vanilla", cv, arch, [a, b], seed=0)
        assert result.best == a

    def test_all_failed_raises(self):
        cont = toy_stream(T=3, cv=2)
        cv, _ = split_cv_ev(cont)
        arch = arch_for_stream(cont, (6, 5), False)
        for t in cv:
            t.train_x = np.full_like(t.train_x, np.nan)
        with pytest.raises(ProtocolError, match="failed"):
            cross_validate("vanilla", cv, arch, [toy_hp(lr=0.05), toy_hp(lr=0.01)], seed=0)

    @staticmethod
    def cv_setup(learner):
        _, je = parse_learner(learner)
        if je:
            stream = {"kind": "synthetic-split", "tasks": 5, "cv_split": 3,
                      "num_classes": 20, "classes_per_task": 3, "attributes": 8,
                      "input_dim": 12, "train_per_class": 10, "test_per_class": 10}
        else:
            stream = {"kind": "permuted-mnist", "tasks": 5, "cv_split": 3,
                      "train_per_task": 30, "test_per_task": 20,
                      "base_train": 200, "base_test": 80, "input_dim": 8}
        cont = build_stream(stream, 0)
        cv, _ = split_cv_ev(cont)
        return cv, arch_for_stream(cont, (6, 5), je)

    @pytest.mark.parametrize("learner", [
        "vanilla", "ewc", "agem", "gem", "sgem", "agem-je", "multitask",
    ])
    def test_scores_equal_a_full_logging_pass(self, learner):
        cv, arch = self.cv_setup(learner)
        grid = [toy_hp(lr=0.05, fisher_samples=20), toy_hp(lr=0.01, fisher_samples=20)]
        result = cross_validate(learner, cv, arch, grid, seed=0)
        base, _ = parse_learner(learner)
        for hp, candidate in zip(grid, result.candidates):
            if base == "multitask":
                # multitask has no single pass: the reference is its own final evaluation
                model, _ = multitask_train(nn.init_model(arch, 0), cv, hp, 0)
                expected = float(np.mean(eval_all(model, cv)))
            else:
                single = make_learner(base, nn.init_model(arch, 0), hp, 0)
                _, run = run_single_pass(single, cv, hp, 0)
                expected = avg_accuracy(run.tensor, cv[-1].task_id)
            assert candidate.hp == hp
            assert candidate.accuracy == expected

    def test_a_candidate_evaluates_only_once_after_the_last_task(self, monkeypatch):
        cv, arch = self.cv_setup("agem")
        counts = {"eval_accuracy": 0, "accuracy": 0}

        def counting(name):
            original = getattr(protocol, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(protocol, name, counting(name))
        hp = toy_hp(beta=2)
        cross_validate("agem", cv, arch, [hp], seed=0)
        # one test-split evaluation per CV task, no memory-buffer prediction
        assert counts == {"eval_accuracy": len(cv), "accuracy": len(cv)}

        counts.update(eval_accuracy=0, accuracy=0)
        learner = make_learner("agem", nn.init_model(arch, 0), hp, 0)
        _, run = run_single_pass(learner, cv, hp, 0)
        T = len(cv)
        batches = [run.tensor.batch_counts[t.task_id] for t in cv]
        # a later task's zero-shot entry is read off the previous boundary's
        # evaluation, so only the first task is evaluated before training
        evals = 1 + sum(min(hp.beta, b) + T for b in batches)
        # the full pass also scores the k buffers stored after task k
        assert counts == {"eval_accuracy": evals, "accuracy": evals + T * (T + 1) // 2}

    def test_numeric_failure_of_the_final_evaluation_scores_none(self, monkeypatch):
        cv, arch = self.cv_setup("vanilla")
        original, calls = protocol.eval_all, []

        def fail_first(model, tasks):
            calls.append(len(tasks))
            if len(calls) == 1:
                raise NumericError("non-finite activation in trunk layer 0")
            return original(model, tasks)

        monkeypatch.setattr(protocol, "eval_all", fail_first)
        a, b = toy_hp(lr=0.05), toy_hp(lr=0.01)
        result = cross_validate("vanilla", cv, arch, [a, b], seed=0)
        assert calls == [len(cv), len(cv)]
        assert [c.accuracy is None for c in result.candidates] == [True, False]
        assert result.best == b

    # the forked path: candidates scored side by side in worker processes

    @pytest.mark.parametrize("learner", ["vanilla", "agem", "gem", "agem-je", "multitask"])
    def test_workers_select_as_in_process(self, learner):
        cv, arch = self.cv_setup(learner)
        grid = [toy_hp(lr=lr) for lr in (0.1, 0.05, 0.01)]
        forked = cross_validate(learner, cv, arch, grid, seed=0, workers=2)
        assert forked == cross_validate(learner, cv, arch, grid, seed=0, workers=1)
        assert [c.hp for c in forked.candidates] == grid

    def test_divergence_inside_a_worker_scores_none(self):
        cv, arch = self.cv_setup("vanilla")
        grid = [toy_hp(lr=0.05), toy_hp(lr=1e200), toy_hp(lr=0.01)]
        with np.errstate(over="ignore", invalid="ignore"):
            result = cross_validate("vanilla", cv, arch, grid, seed=0, workers=2)
            assert result == cross_validate("vanilla", cv, arch, grid, seed=0, workers=1)
        assert [c.accuracy is None for c in result.candidates] == [False, True, False]

    def test_a_worker_exception_keeps_its_type_and_message(self, monkeypatch, bounded):
        cv, arch = self.cv_setup("vanilla")

        def audit_fails(learner, tasks, hp, seed, **kwargs):
            if hp.lr == 0.05:
                raise ProtocolError("single-pass audit failed for 1 example(s): {7: (2, 1)}")
            time.sleep(600)     # the other worker is stopped, not waited for

        monkeypatch.setattr(protocol, "run_single_pass", audit_fails)
        with bounded(30), pytest.raises(ProtocolError, match=re.escape("{7: (2, 1)}")):
            cross_validate("vanilla", cv, arch, [toy_hp(lr=0.05), toy_hp(lr=0.01)],
                           seed=0, workers=2)
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_raises_naming_its_exit_code(self, monkeypatch, bounded):
        cv, arch = self.cv_setup("vanilla")
        parent = os.getpid()

        def die(base, cv_tasks, arch, hp, seed):
            if os.getpid() == parent:
                pytest.fail("scored in-process")
            if hp.lr == 0.01:       # the last worker's candidate
                os._exit(3)
            return 0.5

        monkeypatch.setattr(protocol, "_score", die)
        with bounded(30), pytest.raises(LlbError, match="exited with code 3"):
            cross_validate("vanilla", cv, arch, [toy_hp(lr=0.05), toy_hp(lr=0.01)],
                           seed=0, workers=2)
        assert multiprocessing.active_children() == []

    def test_a_worker_runs_one_blas_thread_and_the_parent_keeps_its_own(self, monkeypatch):
        get = protocol.openblas("scipy_openblas_get_num_threads64_")
        if get is None or protocol.openblas(protocol.BLAS_SET_THREADS) is None:
            pytest.skip("numpy's bundled OpenBLAS thread getter or setter is not available")
        cv, arch = self.cv_setup("vanilla")
        before = get()
        monkeypatch.setattr(protocol, "_score", lambda *args: float(get()))
        result = cross_validate("vanilla", cv, arch, [toy_hp(lr=0.05), toy_hp(lr=0.01)],
                                seed=0, workers=2)
        assert [c.accuracy for c in result.candidates] == [1.0, 1.0]
        assert get() == before
        # seed workers keep the caller's count, so --jobs does not change results
        monkeypatch.setattr(cli, "run_seed", lambda config, seed, workers: get())
        assert cli.run_config_seeds(ExperimentConfig(seeds=(0, 1)), jobs=2) == [before, before]
        assert get() == before
        # candidates scored in-process, here for want of fork, keep the caller's count too
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        result = cross_validate("vanilla", cv, arch, [toy_hp(lr=0.05), toy_hp(lr=0.01)],
                                seed=0, workers=2)
        assert [c.accuracy for c in result.candidates] == [float(before)] * 2
        assert get() == before


def write_mnist_idx(directory, names=IDX_FILES):
    """Tiny IDX files (12 train and 6 test images of 4 x 3 pixels) under the
    standard MNIST names, for the given names only."""
    def images(n, salt):
        return struct.pack(">IIII", 0x803, n, 4, 3) + bytes((salt + i) % 256 for i in range(n * 12))

    def labels(n):
        return struct.pack(">II", 0x801, n) + bytes(i % 10 for i in range(n))

    blobs = dict(zip(IDX_FILES, (images(12, salt=1), labels(12), images(6, salt=7), labels(6))))
    for name in names:
        (directory / name).write_bytes(blobs[name])


class TestDataDiscovery:
    def test_idx_files_used_when_present(self, tmp_path):
        write_mnist_idx(tmp_path)
        stream = build_stream(
            {"kind": "permuted-mnist", "tasks": 2, "cv_split": 1,
             "data_dir": str(tmp_path)}, 0,
        )
        assert stream.tasks[0].train_x.shape == (12, 12)
        assert stream.tasks[0].train_x[0][1] == pytest.approx(2 / 255)

    @pytest.mark.parametrize("absent", IDX_FILES)
    def test_missing_idx_file_raises_naming_it(self, absent, tmp_path):
        write_mnist_idx(tmp_path, [n for n in IDX_FILES if n != absent])
        with pytest.raises(ConfigurationError, match=absent) as err:
            build_stream({"kind": "permuted-mnist", "data_dir": str(tmp_path)}, 0)
        assert str(tmp_path) in str(err.value)
        assert all(n not in str(err.value) for n in IDX_FILES if n != absent)

    def test_env_dir_without_idx_files_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path / "no-such-dir"))
        with pytest.raises(ConfigurationError, match="no-such-dir") as err:
            build_stream({"kind": "permuted-mnist", "tasks": 2, "cv_split": 1}, 0)
        assert all(n in str(err.value) for n in IDX_FILES)

    def test_env_dir_used_when_data_dir_null(self, tmp_path, monkeypatch):
        write_mnist_idx(tmp_path)
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        stream = build_stream(
            {"kind": "permuted-mnist", "tasks": 2, "cv_split": 1, "data_dir": None}, 0
        )
        assert stream.tasks[0].train_x.shape == (12, 12)

    def test_synthetic_base_fixed_across_run_seeds(self):
        kw = {"kind": "permuted-mnist", "tasks": 2, "cv_split": 1,
              "train_per_task": 10, "test_per_task": 5,
              "base_train": 50, "base_test": 20}
        a = build_stream(kw, 0)
        b = build_stream(kw, 1)
        # task 1 is the identity permutation of the same fixed base, but
        # per-seed subsampling may pick different rows; compare the pool
        ida = a.tasks[0].train_ids - 2**32
        idb = b.tasks[0].train_ids - 2**32
        base_a = {int(i): tuple(x) for i, x in zip(ida, a.tasks[0].train_x)}
        base_b = {int(i): tuple(x) for i, x in zip(idb, b.tasks[0].train_x)}
        shared = set(base_a) & set(base_b)
        assert shared
        for i in shared:
            assert base_a[i] == base_b[i]


class TestDefaults:
    def test_benchmark_defaults_match_published_config(self):
        hp = HyperParams()
        assert hp.memory_per_task == 250
        assert hp.ref_batch_size == 256
        assert hp.batch_size == 10
        assert hp.epochs == 1
        assert hp.beta == 10

    def test_default_split_is_three_cv_tasks(self):
        stream = build_stream({"kind": "permuted-mnist", "tasks": 8,
                               "base_train": 200, "base_test": 100,
                               "train_per_task": 20, "test_per_task": 10}, 0)
        cv, ev = split_cv_ev(stream)
        assert len(cv) == 3 and len(ev) == 5

    def test_stream_defaults_match_the_makers_own(self):
        from llb.streams import make_synthetic_split_stream as split

        base, permuted = synthetic_mnist_base, make_permuted_stream
        makers = {     # stream key -> (the function that reads it, its argument)
            "permuted-mnist": {
                "cv_split": (permuted, "cv_split"), "base_train": (base, "n_train"),
                "base_test": (base, "n_test"), "base_seed": (base, "seed"),
                "base_noise": (base, "noise"), "input_dim": (base, "dim"),
            },
            "synthetic-split": {
                "cv_split": (split, "cv_split"), "attributes": (split, "A"),
                "with_replacement": (split, "with_replacement"),
                "input_dim": (split, "input_dim"), "train_per_class": (split, "train_per_class"),
                "test_per_class": (split, "test_per_class"), "noise": (split, "noise"),
            },
        }
        # keys the makers require, the IDX directory (not a maker argument), and
        # the per-task subsamples, whose maker default None means all rows
        unmatched = {"tasks", "num_classes", "classes_per_task", "data_dir",
                     "train_per_task", "test_per_task"}
        for kind, defaults in STREAM_DEFAULTS.items():
            assert set(defaults) - unmatched == set(makers[kind]), kind
            for key, (maker, arg) in makers[kind].items():
                default = inspect.signature(maker).parameters[arg].default
                assert default == defaults[key], (kind, key)


class TestStreamKeys:
    def test_misspelt_key_rejected_naming_valid_keys(self):
        stream = {"kind": "permuted-mnist", "tasks": 2, "train_per_tsk": 20}
        with pytest.raises(ConfigurationError, match="train_per_tsk") as err:
            build_stream(stream, 0)
        for key in ("kind", *STREAM_DEFAULTS["permuted-mnist"]):
            assert repr(key) in str(err.value)

    def test_other_kinds_key_rejected(self):
        # train_per_task is read by permuted-mnist only
        with pytest.raises(ConfigurationError, match="'train_per_task'.*'synthetic-split'"):
            build_stream({"kind": "synthetic-split", "train_per_task": 20}, 0)
        with pytest.raises(ConfigurationError, match="'attributes'.*'permuted-mnist'"):
            build_stream({"attributes": 8}, 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown stream kind 'split'"):
            build_stream({"kind": "split"}, 0)

    def test_shipped_configs_use_known_keys(self):
        root = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
        for name in sorted(os.listdir(root)):
            with open(os.path.join(root, name)) as f:
                data = json.load(f)
            stream = data["stream"]
            assert set(stream) <= {"kind", *STREAM_DEFAULTS[stream["kind"]]}, name
            # and every value passes the config check, as ``llb run`` builds it
            config_from_dict(data)


class TestStreamValues:
    @pytest.mark.parametrize("kind, key, value, message", [
        ("permuted-mnist", "tasks", "4", "'tasks' must be an integer >= 2, got '4'"),
        ("permuted-mnist", "tasks", 4.0, "'tasks' must be an integer >= 2"),
        ("permuted-mnist", "tasks", True, "'tasks' must be an integer >= 2"),
        ("permuted-mnist", "train_per_task", -5,
         "'train_per_task' must be an integer >= 1 or null, got -5"),
        ("permuted-mnist", "base_noise", "big", "'base_noise' must be a number >= 0"),
        ("permuted-mnist", "data_dir", 3, "'data_dir' must be a string or null"),
        ("permuted-mnist", "cv_split", None, "'cv_split' must be an integer >= 1, got None"),
        ("synthetic-split", "noise", "big", "'noise' must be a number >= 0, got 'big'"),
        ("synthetic-split", "noise", -0.5, "'noise' must be a number >= 0"),
        ("synthetic-split", "with_replacement", 1, "'with_replacement' must be a boolean"),
        ("synthetic-split", "num_classes", [80], "'num_classes' must be an integer >= 1"),
    ])
    def test_wrong_type_or_negative_rejected(self, kind, key, value, message):
        with pytest.raises(ConfigurationError) as err:
            build_stream({"kind": kind, key: value}, 0)
        assert message in str(err.value)

    def test_null_row_counts_keep_every_base_row(self):
        stream = build_stream({"kind": "permuted-mnist", "tasks": 2, "cv_split": 1,
                               "train_per_task": None, "test_per_task": None,
                               "data_dir": None, "base_train": 40, "base_test": 15}, 0)
        assert [len(t.train_y) for t in stream.tasks] == [40, 40]
        assert [len(t.test_y) for t in stream.tasks] == [15, 15]

    def test_integer_serves_as_number(self):
        a = build_stream({"kind": "synthetic-split", "tasks": 4, "cv_split": 1,
                          "num_classes": 20, "noise": 1}, 0)
        b = build_stream({"kind": "synthetic-split", "tasks": 4, "cv_split": 1,
                          "num_classes": 20, "noise": 1.0}, 0)
        assert np.array_equal(a.tasks[0].train_x[:], b.tasks[0].train_x[:])

    def test_non_string_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown stream kind"):
            build_stream({"kind": ["permuted-mnist"]}, 0)


class TestConfigValues:
    @pytest.mark.parametrize("name, value, message", [
        ("lr", 0, "base 'lr' must be a number > 0, got 0"),
        ("lr", True, "base 'lr' must be a number > 0"),
        ("lam", -1.0, "base 'lam' must be a number >= 0"),
        ("memory_per_task", 0, "base 'memory_per_task' must be an integer >= 1"),
        ("ref_batch_size", 0, "base 'ref_batch_size' must be an integer >= 1"),
        ("batch_size", 2.5, "base 'batch_size' must be an integer >= 1"),
        ("epochs", 0, "base 'epochs' must be an integer >= 1"),
        ("beta", -1, "base 'beta' must be an integer >= 0"),
        ("fisher_samples", 0, "base 'fisher_samples' must be an integer >= 1"),
    ])
    def test_hyperparams_checked(self, name, value, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            HyperParams(**{name: value})

    def test_zero_where_no_least_value(self):
        hp = HyperParams(lr=1, lam=0, beta=0)
        assert (hp.lr, hp.lam, hp.beta) == (1, 0, 0)

    @pytest.mark.parametrize("change, message", [
        ({"learner": "bogus-je"}, "unknown learner 'bogus-je'"),
        ({"learner": None}, "config 'learner' must be a string"),
        ({"stream": {"kind": "permuted-mnist", "tasks": 1}}, "stream 'tasks' must be an integer >= 2"),
        ({"stream": {"kind": "synthetic-split", "attributes": 0}}, "stream 'attributes'"),
        ({"stream": {"train_per_tsk": 20}}, "unknown stream key(s) ['train_per_tsk']"),
        ({"grid": {"lr": [0.1, 0]}}, "grid 'lr' must be a list of numbers > 0"),
        ({"grid": {"lr": []}}, "grid 'lr' must be a list of numbers > 0, not empty, got []"),
        ({"grid": {"nope": [1]}}, "unknown hyper-parameter(s) in grid"),
        ({"base": {"lr": 0.1}}, "config 'base' must be an object"),
        ({"hidden": (64, 0)}, "config 'hidden' must be a list of integers >= 1"),
        ({"seeds": ()}, "config 'seeds' must be a list of integers >= 0, not empty, got ()"),
        ({"seeds": (0, -1)}, "config 'seeds' must be a list of integers >= 0"),
        ({"study_epochs": 0}, "config 'study_epochs' must be an integer >= 1"),
        # a seed run twice would be aggregated as two independent runs; a
        # candidate listed twice would train twice, both rows marked selected
        ({"seeds": (0, 1, 0)}, "config 'seeds' names a seed twice"),
        ({"grid": {"lr": [0.03, 0.03]}}, "grid 'lr' lists a value twice"),
        ({"grid": {"lr": [0.1], "lam": [1, 2, 1.0]}}, "grid 'lam' lists a value twice"),
        ({"hidden": ()}, "config 'hidden' must be a list of integers >= 1, not empty, got ()"),
    ])
    def test_experiment_config_checked_when_built_and_replaced(self, change, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            ExperimentConfig(**change)
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            replace(ExperimentConfig(), **change)

    def test_least_values_name_config_keys(self):
        keys = {f.name for c in (HyperParams, ExperimentConfig) for f in fields(c)}
        keys |= {key for defaults in STREAM_DEFAULTS.values() for key in defaults}
        assert set(LEAST_VALUES) <= keys


class TestExpandGrid:
    def test_product(self):
        base = HyperParams()
        grid = expand_grid(base, {"lr": [0.1, 0.01], "lam": [1.0, 2.0, 3.0]})
        assert len(grid) == 6
        assert len({(h.lr, h.lam) for h in grid}) == 6

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown hyper-parameter"):
            expand_grid(HyperParams(), {"nope": [1]})


class TestRunSeed:
    def config(self, learner="agem", **stream_kw):
        stream = {"kind": "permuted-mnist", "tasks": 3, "cv_split": 1,
                  "train_per_task": 30, "test_per_task": 20,
                  "base_train": 200, "base_test": 80}
        stream.update(stream_kw)
        return ExperimentConfig(
            learner=learner, stream=stream, hidden=(6, 5),
            base=toy_hp(), grid={"lr": [0.05]}, seeds=(0,),
        )

    def test_deterministic_under_seed(self):
        a = run_seed(self.config(), 0).report
        b = run_seed(self.config(), 0).report
        assert a.avg_accuracy == b.avg_accuracy
        assert a.zb_curve == b.zb_curve
        assert a.zero_shot == b.zero_shot
        assert a.violations == b.violations

    def test_report_schema_complete(self):
        r = run_seed(self.config(), 0).report
        assert r.forgetting is not None
        assert r.worst_case_forgetting_test is not None
        assert r.worst_case_forgetting_memory is not None
        assert r.lca is not None and 0 <= r.lca <= 1
        assert r.param_count == arch_for_stream(
            build_stream(self.config().stream, 0), (6, 5), False
        ).param_count
        assert len(r.violations_by_task) == 2
        assert r.mean_step_seconds > 0

    def test_multitask_report(self):
        r = run_seed(self.config(learner="multitask"), 0).report
        assert 0 <= r.avg_accuracy <= 1
        # no single-pass log and no timed step: every per-pass field is empty
        assert r.forgetting is r.worst_case_forgetting_test is r.worst_case_forgetting_memory is None
        assert r.lca is None and r.mean_step_seconds is None and r.violations == 0
        assert [r.zb_curve, r.bshot_curves, r.zero_shot, r.violations_by_task,
                r.step_seconds_by_task] == [[]] * 5
        assert r.lca_beta == 2 and r.param_count > 0

    @pytest.mark.parametrize("learner", ["multitask", "agem"])
    def test_multitask_study_epochs_pass_audit(self, learner, monkeypatch):
        # the EV run makes study_epochs passes and its audit expects that many
        audited, audit = [], protocol.audit_single_pass
        monkeypatch.setattr(protocol, "audit_single_pass",
                            lambda visits, tasks, epochs=1: audited.append(epochs)
                            or audit(visits, tasks, epochs))
        config = replace(self.config(learner=learner), study_epochs=2)
        r = run_seed(config, 0).report
        assert audited == [1, 2]    # the CV candidate, then the EV run
        assert r.hyperparams == asdict(replace(config.base, epochs=2))

    def test_je_learner_on_attribute_stream(self):
        config = ExperimentConfig(
            learner="agem-je",
            stream={"kind": "synthetic-split", "tasks": 4, "cv_split": 2,
                    "num_classes": 20, "classes_per_task": 3,
                    "train_per_class": 20, "test_per_class": 10},
            hidden=(12, 10), base=toy_hp(), grid={"lr": [0.05]}, seeds=(0,),
        )
        r = run_seed(config, 0).report
        assert len(r.zero_shot) == 2

    def test_gem_je_on_attribute_stream(self):
        # run_seed raises if any of the three audits fails
        config = ExperimentConfig(
            learner="gem-je",
            stream={"kind": "synthetic-split", "tasks": 5, "cv_split": 2,
                    "num_classes": 20, "classes_per_task": 3,
                    "train_per_class": 20, "test_per_class": 10},
            hidden=(12, 10), base=toy_hp(), grid={"lr": [0.05]}, seeds=(0,),
        )
        r = run_seed(config, 0).report
        assert len(r.zero_shot) == 3
        assert r.violations > 0

    def test_cv_audit_failure_is_not_a_numeric_failure(self, monkeypatch):
        # an EV training example in the first CV batch fails the CV run's own
        # single-pass audit, which names itself instead of scoring the candidate None
        config = self.config()
        ev_id = split_cv_ev(build_stream(config.stream, 0))[1][0].train_ids[0]
        real, calls = protocol.minibatches, []

        def leaky(dataset, *args):
            batches = list(real(dataset, *args))
            if not calls:
                batches[0] = replace(batches[0], ids=np.append(ev_id, batches[0].ids[1:]))
            calls.append(dataset.task_id)
            return batches

        monkeypatch.setattr(protocol, "minibatches", leaky)
        with pytest.raises(ProtocolError, match="single-pass audit"):
            run_seed(config, 0)
        assert len(calls) == 1

    def test_je_on_integer_stream_rejected(self):
        # the config refuses it when built; arch_for_stream, public for
        # hand-built continua, keeps its own check
        with pytest.raises(ConfigurationError, match="integer task ids"):
            self.config(learner="agem-je")
        with pytest.raises(ConfigurationError, match="integer task ids"):
            arch_for_stream(toy_stream(), (6, 5), True)

    def test_lca_beta_clamped_to_shortest_task(self):
        r = run_seed(self.config(), 0).report
        assert r.lca_beta == min(2, 3)  # beta=2 < B_k=3

    def test_parse_learner(self):
        assert parse_learner("agem-je") == ("agem", True)
        assert parse_learner("vanilla") == ("vanilla", False)


class TestBuildReport:
    def test_effective_beta_and_curves(self):
        tensor = AccuracyTensor(order=[1, 2], batch_counts={1: 3, 2: 3})
        for k in (1, 2):
            for b in range(4):
                tensor.entries[(k, b, k)] = 0.5
            for j in (1, 2):
                tensor.entries[(k, 3, j)] = 0.75
        arch = nn.Architecture(4, (3,), ((1, 2), (2, 2)))
        state = LearnerState(nn.init_model(arch, 0), violation_count=2,
                             step_seconds=0.003, step_count=2)
        trace = RunTrace(tensor, None, violations_by_task=[(1, 0), (2, 2)],
                         step_seconds_by_task=[(1, 0.001), (2, 0.002)])
        r = build_report("x", 0, state, trace, toy_hp(beta=10))
        assert r.lca_beta == 3
        assert len(r.zb_curve) == 4
        assert len(r.bshot_curves) == 2 * 4
        assert r.avg_accuracy == pytest.approx(0.75)
        # the counters come from the learner's final state
        assert r.param_count == arch.param_count
        assert r.violations == 2
        assert r.mean_step_seconds == pytest.approx(0.0015)
        assert r.worst_case_forgetting_memory is None
