import json
import os

import numpy as np
import pytest

from llb import nn
from llb.errors import ConfigurationError, ProtocolError
from llb.learners import make_learner
from llb.metrics import AccuracyTensor, avg_accuracy
from llb.protocol import (
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
        tensor = AccuracyTensor(order=[t.task_id for t in ev])
        run_single_pass(learner, ev, hp, 0, tensor)
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
            tensor = AccuracyTensor(order=[t.task_id for t in ev])
            run_single_pass(learner, ev, hp, 3, tensor)
            tensors.append(tensor)
        assert tensors[0].entries == tensors[1].entries

    def test_visit_audit_counts_every_example_once(self):
        cont = toy_stream()
        cv, ev = split_cv_ev(cont)
        arch = arch_for_stream(cont, (6, 5), False)
        hp = toy_hp()
        learner = make_learner("vanilla", nn.init_model(arch, 0), hp, 0)
        trace = RunTrace()
        tensor = AccuracyTensor(order=[t.task_id for t in ev])
        run_single_pass(learner, ev, hp, 0, tensor, trace)
        expected = {int(i) for t in ev for i in t.train_ids}
        assert set(trace.visit_counts) == expected
        assert set(trace.visit_counts.values()) == {1}

    def test_multi_epoch_requires_flag(self):
        cont = toy_stream()
        cv, ev = split_cv_ev(cont)
        arch = arch_for_stream(cont, (6, 5), False)
        hp = toy_hp(epochs=2)
        learner = make_learner("vanilla", nn.init_model(arch, 0), hp, 0)
        tensor = AccuracyTensor(order=[t.task_id for t in ev])
        with pytest.raises(ConfigurationError, match="epochs"):
            run_single_pass(learner, ev, hp, 0, tensor)
        learner = make_learner("vanilla", nn.init_model(arch, 0), hp, 0)
        tensor = AccuracyTensor(order=[t.task_id for t in ev])
        run_single_pass(learner, ev, hp, 0, tensor, allow_multi_epoch=True)

    def test_memory_tensor_recorded_for_memory_learners(self):
        cont = toy_stream()
        cv, ev = split_cv_ev(cont)
        arch = arch_for_stream(cont, (6, 5), False)
        hp = toy_hp()
        learner = make_learner("agem", nn.init_model(arch, 0), hp, 0)
        trace = RunTrace()
        tensor = AccuracyTensor(order=[t.task_id for t in ev])
        run_single_pass(learner, ev, hp, 0, tensor, trace)
        assert trace.memory_tensor is not None
        first, second = ev[0].task_id, ev[1].task_id
        bk = trace.memory_tensor.batch_counts[second]
        assert (second, bk, first) in trace.memory_tensor.entries

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
        run_single_pass(learner, ev, hp, 0, AccuracyTensor(order=[t.task_id for t in ev]))
        # once for the 1 + beta cadence evaluations, once per task boundary
        assert [t.test_x.gathers for t in ev] == [1 + len(ev)] * len(ev)


class TestAudits:
    def test_single_pass_audit_detects_missing_visit(self):
        cont = toy_stream()
        _, ev = split_cv_ev(cont)
        visits = {int(i): 1 for t in ev for i in t.train_ids}
        visits.pop(next(iter(visits)))
        with pytest.raises(ProtocolError, match="single-pass"):
            audit_single_pass(visits, ev, 1)

    def test_single_pass_audit_detects_double_visit(self):
        cont = toy_stream()
        _, ev = split_cv_ev(cont)
        visits = {int(i): 1 for t in ev for i in t.train_ids}
        visits[next(iter(visits))] = 2
        with pytest.raises(ProtocolError, match="single-pass"):
            audit_single_pass(visits, ev, 1)

    def test_isolation_audit_rejects_cross_reads(self):
        cont = toy_stream(T=4, cv=2)
        cv, ev = split_cv_ev(cont)
        cv_ids = {int(i) for t in cv for i in t.train_ids}
        ev_ids = {int(i) for t in ev for i in t.train_ids}
        audit_isolation(cv, ev, cv_ids, ev_ids)
        with pytest.raises(ProtocolError, match="EV phase"):
            audit_isolation(cv, ev, set(), ev_ids | {next(iter(cv_ids))})
        with pytest.raises(ProtocolError, match="CV phase"):
            audit_isolation(cv, ev, cv_ids | {next(iter(ev_ids))}, set())

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


class TestDataDiscovery:
    def test_idx_files_used_when_present(self, tmp_path):
        import struct

        def write(name, blob):
            (tmp_path / name).write_bytes(blob)

        def images(n, rows, cols, salt):
            return struct.pack(">IIII", 0x803, n, rows, cols) + bytes(
                (salt + i) % 256 for i in range(n * rows * cols)
            )

        def labels(n):
            return struct.pack(">II", 0x801, n) + bytes(i % 10 for i in range(n))

        write("train-images-idx3-ubyte", images(12, 4, 3, salt=1))
        write("train-labels-idx1-ubyte", labels(12))
        write("t10k-images-idx3-ubyte", images(6, 4, 3, salt=7))
        write("t10k-labels-idx1-ubyte", labels(6))
        stream = build_stream(
            {"kind": "permuted-mnist", "tasks": 2, "cv_split": 1,
             "data_dir": str(tmp_path)}, 0,
        )
        assert stream.tasks[0].train_x.shape == (12, 12)
        assert stream.tasks[0].train_x[0, 1] == pytest.approx(2 / 255)

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
                stream = json.load(f)["stream"]
            assert set(stream) <= {"kind", *STREAM_DEFAULTS[stream["kind"]]}, name


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
        assert r.forgetting is None

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

    def test_je_on_integer_stream_rejected(self):
        with pytest.raises(ConfigurationError, match="integer task ids"):
            run_seed(self.config(learner="agem-je"), 0)

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
        trace = RunTrace(violations_by_task=[(1, 0), (2, 2)],
                         step_seconds_by_task=[(1, 0.001), (2, 0.002)])
        r = build_report("x", 0, tensor, trace, toy_hp(beta=10), 99, 2, 0.0015)
        assert r.lca_beta == 3
        assert len(r.zb_curve) == 4
        assert len(r.bshot_curves) == 2 * 4
        assert r.avg_accuracy == pytest.approx(0.75)
