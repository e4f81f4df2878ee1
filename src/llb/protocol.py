"""End-to-end training and evaluation protocol.

Hyper-parameters are selected by grid search on a small leading block of
tasks (the CV stream, where replay is allowed), the learner is reset, and
the remaining tasks (the EV stream) are learned in a strict single pass
with accuracy logged at the metric cadence: own-task evaluation before
the task and after each of its first ``beta`` mini-batches, plus an
all-task evaluation at every task boundary.  Three audits guard the
setting: every EV training example is visited exactly once, CV and EV
never share data, and the post-selection reset is complete.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import nn
from .embedding import je_predict
from .errors import ConfigurationError, NumericError, ProtocolError
from .learners import Learner, make_learner, multitask_train
from .memory import per_task_batches
from .metrics import (
    AccuracyTensor,
    MetricsReport,
    avg_accuracy,
    forgetting,
    lca,
    record,
    worst_case_forgetting,
    zero_shot_series,
)
from .streams import (
    BaseData,
    Continuum,
    TaskDataset,
    load_mnist_idx,
    make_permuted_stream,
    make_synthetic_split_stream,
    minibatches,
    split_cv_ev,
    synthetic_mnist_base,
)

DATA_DIR_ENV = "LLB_DATA_DIR"


@dataclass(frozen=True)
class HyperParams:
    lr: float = 0.03
    lam: float = 10.0              # anchor penalty weight (EWC)
    memory_per_task: int = 250
    ref_batch_size: int = 256
    batch_size: int = 10
    epochs: int = 1
    beta: int = 10                 # LCA horizon
    fisher_samples: int = 1000

    def __post_init__(self):
        if self.lr <= 0 or self.lam < 0:
            raise ConfigurationError("need lr > 0 and lam >= 0")
        if min(self.memory_per_task, self.ref_batch_size, self.batch_size, self.epochs) < 1:
            raise ConfigurationError("counts must be >= 1")
        if self.beta < 0:
            raise ConfigurationError("beta must be >= 0")


def expand_grid(base: HyperParams, grid: dict[str, list]) -> list[HyperParams]:
    """All combinations of the listed values over the base hyper-parameters."""
    known = {f.name for f in fields(HyperParams)}
    unknown = set(grid) - known
    if unknown:
        raise ConfigurationError(f"unknown hyper-parameter(s) in grid: {sorted(unknown)}")
    candidates = [base]
    for name, values in grid.items():
        if not values:
            raise ConfigurationError(f"empty grid for {name!r}")
        candidates = [replace(hp, **{name: v}) for hp in candidates for v in values]
    return candidates


# ---------------------------------------------------------------------------
# streams and architectures


def parse_learner(name: str) -> tuple[str, bool]:
    """Split an optional '-je' suffix selecting the joint-embedding head."""
    if name.endswith("-je"):
        return name[: -len("-je")], True
    return name, False


def _mnist_base(stream: dict) -> BaseData:
    data_dir = stream.get("data_dir") or os.environ.get(DATA_DIR_ENV)
    if data_dir:
        paths = [
            os.path.join(data_dir, n)
            for n in (
                "train-images-idx3-ubyte",
                "train-labels-idx1-ubyte",
                "t10k-images-idx3-ubyte",
                "t10k-labels-idx1-ubyte",
            )
        ]
        if all(os.path.exists(p) for p in paths):
            train_x, train_y = load_mnist_idx(paths[0], paths[1])
            test_x, test_y = load_mnist_idx(paths[2], paths[3])
            return BaseData(train_x, train_y, test_x, test_y)
    # like a real dataset, the synthetic base is fixed across run seeds;
    # permutations, subsampling, init, and shuffles still vary per seed
    return synthetic_mnist_base(
        n_train=stream.get("base_train", 4000),
        n_test=stream.get("base_test", 2000),
        seed=stream.get("base_seed", 0),
        dim=stream.get("input_dim", 784),
        noise=stream.get("base_noise", 0.3),
    )


def build_stream(stream: dict, seed: int) -> Continuum:
    kind = stream.get("kind", "permuted-mnist")
    if kind == "permuted-mnist":
        base = _mnist_base(stream)
        return make_permuted_stream(
            base,
            T=stream.get("tasks", 8),
            seed=seed,
            cv_split=stream.get("cv_split", 3),
            train_per_task=stream.get("train_per_task", 1000),
            test_per_task=stream.get("test_per_task", 500),
        )
    if kind == "synthetic-split":
        return make_synthetic_split_stream(
            num_classes=stream.get("num_classes", 80),
            classes_per_task=stream.get("classes_per_task", 5),
            T=stream.get("tasks", 13),
            A=stream.get("attributes", 32),
            with_replacement=stream.get("with_replacement", False),
            seed=seed,
            cv_split=stream.get("cv_split", 3),
            input_dim=stream.get("input_dim", 64),
            train_per_class=stream.get("train_per_class", 100),
            test_per_class=stream.get("test_per_class", 40),
            noise=stream.get("noise", 0.5),
        )
    raise ConfigurationError(f"unknown stream kind {kind!r}")


def arch_for_stream(
    continuum: Continuum, hidden: tuple[int, ...], joint_embedding: bool
) -> nn.Architecture:
    """Architecture covering every task in the continuum."""
    input_dim = continuum.tasks[0].train_x.shape[1]
    if joint_embedding:
        first = continuum.tasks[0].descriptor
        if not isinstance(first, np.ndarray):
            raise ConfigurationError(
                "joint-embedding head needs attribute descriptors; "
                "this stream provides integer task ids"
            )
        return nn.Architecture(
            input_dim,
            tuple(hidden),
            head_mode=nn.JOINT_EMBEDDING,
            attr_count=first.shape[1],
        )
    heads = tuple((t.task_id, t.num_classes) for t in continuum.tasks)
    return nn.Architecture(input_dim, tuple(hidden), heads)


# ---------------------------------------------------------------------------
# evaluation


def predict_task(model: nn.Model, inputs: np.ndarray, task: int, descriptor) -> np.ndarray:
    """Predicted within-task class of each row: the task's own head, or the
    attribute table scored through the task's descriptor."""
    if model.arch.head_mode == nn.JOINT_EMBEDDING:
        return je_predict(model, inputs, descriptor)
    return nn.predict(model, inputs, task)


def eval_accuracy(
    model: nn.Model, dataset: TaskDataset, test_x: np.ndarray | None = None
) -> float:
    """Exact accuracy over a task's full test split.

    ``test_x`` is the split's inputs when the caller has already gathered
    them; otherwise they are gathered here.
    """
    if len(dataset.test_y) == 0:
        raise ConfigurationError("empty evaluation set")
    if test_x is None:
        test_x = dataset.test_x[:]
    preds = predict_task(model, test_x, dataset.task_id, dataset.descriptor)
    return float(np.mean(preds == dataset.test_y))


def eval_all(
    model: nn.Model, tasks: list[TaskDataset], upto_task: int | None = None
) -> np.ndarray:
    """Per-task test accuracies, optionally only through ``upto_task``."""
    out = []
    for t in tasks:
        out.append(eval_accuracy(model, t))
        if upto_task is not None and t.task_id == upto_task:
            break
    return np.array(out)


# ---------------------------------------------------------------------------
# single-pass run


@dataclass
class RunTrace:
    """Side-channel facts a run produces beyond the accuracy log."""

    memory_tensor: AccuracyTensor | None = None
    violations_by_task: list[tuple[int, int]] = field(default_factory=list)
    step_seconds_by_task: list[tuple[int, float]] = field(default_factory=list)
    visit_counts: dict[int, int] = field(default_factory=dict)


def run_single_pass(
    learner: Learner,
    tasks: list[TaskDataset],
    hp: HyperParams,
    seed: int,
    tensor: AccuracyTensor,
    trace: RunTrace | None = None,
    allow_multi_epoch: bool = False,
):
    """Train over the stream in order, logging at the metric cadence.

    Raises ProtocolError on numeric failure (recorded entries are kept)
    and on any violation of the single-pass audit.
    """
    if hp.epochs > 1 and not allow_multi_epoch:
        raise ConfigurationError(
            "multiple epochs are only allowed on CV streams or in study mode"
        )
    if tensor.order != [t.task_id for t in tasks]:
        raise ConfigurationError("tensor order does not match the stream")
    if trace is None:
        trace = RunTrace()
    if learner.state.memory is not None and trace.memory_tensor is None:
        trace.memory_tensor = AccuracyTensor(order=list(tensor.order))
    visits = trace.visit_counts

    for task in tasks:
        learner.register_task(task)
        # gathered once for the 1 + beta own-task evaluations at the cadence
        test_x = task.test_x[:]
        record(tensor, task.task_id, 0, task.task_id, eval_accuracy(learner.model, task, test_x))
        batches = minibatches(task, hp.batch_size, seed, hp.epochs)
        secs0, steps0 = learner.state.step_seconds, learner.state.step_count
        try:
            for i, batch in enumerate(batches, 1):
                learner.timed_step(batch)
                for sid in batch.ids:
                    visits[int(sid)] = visits.get(int(sid), 0) + 1
                if i <= hp.beta:
                    record(
                        tensor, task.task_id, i, task.task_id,
                        eval_accuracy(learner.model, task, test_x),
                    )
        except NumericError as exc:
            raise ProtocolError(
                f"numeric failure during task {task.task_id}: {exc}"
            ) from exc
        tensor.batch_counts[task.task_id] = len(batches)
        learner.end_task(task)
        accs = eval_all(learner.model, tasks)
        for other, acc in zip(tasks, accs):
            record(tensor, task.task_id, len(batches), other.task_id, acc)
        if trace.memory_tensor is not None and learner.state.memory is not None:
            trace.memory_tensor.batch_counts[task.task_id] = len(batches)
            for stored, buf in per_task_batches(learner.state.memory):
                preds = predict_task(learner.model, buf.x, stored, learner.state.descriptors[stored])
                record(
                    trace.memory_tensor, task.task_id, len(batches), stored,
                    float(np.mean(preds == buf.y)),
                )
        trace.violations_by_task.append((task.task_id, learner.state.violation_count))
        steps = learner.state.step_count - steps0
        trace.step_seconds_by_task.append(
            (task.task_id, (learner.state.step_seconds - secs0) / max(steps, 1))
        )

    audit_single_pass(visits, tasks, hp.epochs)
    return learner.state, tensor


# ---------------------------------------------------------------------------
# audits


def audit_single_pass(
    visit_counts: dict[int, int], tasks: list[TaskDataset], epochs: int = 1
) -> None:
    """Every training example of the stream seen exactly ``epochs`` times."""
    expected: dict[int, int] = {}
    for t in tasks:
        for sid in t.train_ids:
            expected[int(sid)] = epochs
    if visit_counts != expected:
        bad = {
            k: (visit_counts.get(k, 0), expected.get(k))
            for k in set(visit_counts) | set(expected)
            if visit_counts.get(k, 0) != expected.get(k)
        }
        sample = dict(list(bad.items())[:5])
        raise ProtocolError(f"single-pass audit failed for {len(bad)} example(s): {sample}")


def audit_isolation(
    cv_tasks: list[TaskDataset],
    ev_tasks: list[TaskDataset],
    cv_visited: set[int],
    ev_visited: set[int],
) -> None:
    """No sample id crosses the CV/EV boundary in either direction."""
    cv_ids = {int(i) for t in cv_tasks for i in t.train_ids}
    ev_ids = {int(i) for t in ev_tasks for i in t.train_ids}
    if cv_ids & ev_ids:
        raise ProtocolError("CV and EV streams share training sample ids")
    if {t.task_id for t in cv_tasks} & {t.task_id for t in ev_tasks}:
        raise ProtocolError("CV and EV streams share task ids")
    if cv_visited - cv_ids:
        raise ProtocolError("CV phase visited examples outside the CV stream")
    if ev_visited - ev_ids:
        raise ProtocolError("EV phase visited examples outside the EV stream")


def audit_reset(learner: Learner, arch: nn.Architecture, seed: int) -> None:
    """A freshly reset learner matches its declared initial state exactly."""
    pristine = nn.init_model(arch, seed)
    if not np.array_equal(learner.model.theta, pristine.theta):
        raise ProtocolError("reset incomplete: parameter vector differs from init")
    if learner.state.memory is not None and len(learner.state.memory) != 0:
        raise ProtocolError("reset incomplete: episodic memory not empty")
    if learner.state.ewc_anchors:
        raise ProtocolError("reset incomplete: anchors not cleared")
    if learner.state.violation_count or learner.state.step_count:
        raise ProtocolError("reset incomplete: counters not zero")


# ---------------------------------------------------------------------------
# cross-validation and the full experiment


@dataclass
class CvCandidate:
    hp: HyperParams
    accuracy: float | None      # None when the run failed numerically


@dataclass
class CvResult:
    best: HyperParams
    candidates: list[CvCandidate]


def _multitask_accuracy(
    arch: nn.Architecture, tasks: list[TaskDataset], hp: HyperParams, seed: int
) -> float:
    model = nn.init_model(arch, seed)
    model, visits = multitask_train(model, tasks, hp, seed)
    audit_single_pass(visits, tasks, 1)
    return float(np.mean(eval_all(model, tasks)))


def cross_validate(
    learner_name: str,
    cv_tasks: list[TaskDataset],
    arch: nn.Architecture,
    grid: list[HyperParams],
    seed: int,
) -> CvResult:
    """Train each candidate on the CV stream; best final average accuracy wins.

    Ties keep the first candidate in grid order.  Selection reads only CV
    test accuracies.
    """
    if not grid:
        raise ConfigurationError("empty hyper-parameter grid")
    base, _ = parse_learner(learner_name)
    candidates: list[CvCandidate] = []
    for hp in grid:
        try:
            if base == "multitask":
                acc = _multitask_accuracy(arch, cv_tasks, hp, seed)
            else:
                learner = make_learner(base, nn.init_model(arch, seed), hp, seed)
                tensor = AccuracyTensor(order=[t.task_id for t in cv_tasks])
                run_single_pass(
                    learner, cv_tasks, hp, seed, tensor, allow_multi_epoch=True
                )
                acc = avg_accuracy(tensor, cv_tasks[-1].task_id)
            candidates.append(CvCandidate(hp, acc))
        except (NumericError, ProtocolError):
            candidates.append(CvCandidate(hp, None))
    scored = [c for c in candidates if c.accuracy is not None]
    if not scored:
        raise ProtocolError("every hyper-parameter candidate failed numerically")
    best = max(scored, key=lambda c: c.accuracy)
    return CvResult(best.hp, candidates)


def _effective_beta(tensor: AccuracyTensor, beta: int) -> int:
    return min(beta, min(tensor.batch_counts[k] for k in tensor.order))


def build_report(
    learner_name: str,
    seed: int,
    tensor: AccuracyTensor,
    trace: RunTrace,
    hp: HyperParams,
    param_count: int,
    violations: int,
    mean_step_seconds: float,
) -> MetricsReport:
    last = tensor.order[-1]
    beta = _effective_beta(tensor, hp.beta)
    zb, area = lca(tensor, beta)
    bshot = [
        (k, b, tensor.get(k, b, k)) for k in tensor.order for b in range(beta + 1)
    ]
    f_t = wst = None
    if len(tensor.order) > 1:
        f_t, _ = forgetting(tensor, last)
        wst = worst_case_forgetting(tensor, last)
    wst_mem = None
    if trace.memory_tensor is not None and len(tensor.order) > 1:
        wst_mem = worst_case_forgetting(trace.memory_tensor, last)
    return MetricsReport(
        learner=learner_name,
        seed=seed,
        avg_accuracy=avg_accuracy(tensor, last),
        forgetting=f_t,
        worst_case_forgetting_test=wst,
        worst_case_forgetting_memory=wst_mem,
        lca=area,
        lca_beta=beta,
        zb_curve=zb,
        bshot_curves=bshot,
        zero_shot=zero_shot_series(tensor),
        violations=violations,
        violations_by_task=list(trace.violations_by_task),
        mean_step_seconds=mean_step_seconds,
        step_seconds_by_task=list(trace.step_seconds_by_task),
        param_count=param_count,
        hyperparams={
            "lr": hp.lr, "lam": hp.lam, "memory_per_task": hp.memory_per_task,
            "ref_batch_size": hp.ref_batch_size, "batch_size": hp.batch_size,
            "epochs": hp.epochs, "beta": hp.beta, "fisher_samples": hp.fisher_samples,
        },
    )


@dataclass
class ExperimentConfig:
    learner: str = "agem"
    stream: dict = field(default_factory=lambda: {"kind": "permuted-mnist"})
    hidden: tuple[int, ...] = (256, 256)
    base: HyperParams = field(default_factory=HyperParams)
    grid: dict[str, list] = field(default_factory=lambda: {"lr": [0.1, 0.03, 0.01]})
    seeds: tuple[int, ...] = (0, 1, 2)
    study_epochs: int = 1

    def __post_init__(self):
        if not self.seeds:
            raise ConfigurationError("need at least one seed")
        if self.study_epochs < 1:
            raise ConfigurationError("study_epochs must be >= 1")


@dataclass
class SeedResult:
    report: MetricsReport
    cv: CvResult | None


def run_seed(config: ExperimentConfig, seed: int) -> SeedResult:
    """Full protocol for one seed: CV selection, reset, single-pass EV run."""
    base_name, je = parse_learner(config.learner)
    continuum = build_stream(config.stream, seed)
    arch = arch_for_stream(continuum, config.hidden, je)
    cv_tasks, ev_tasks = split_cv_ev(continuum)
    grid = expand_grid(config.base, config.grid)

    cv = cross_validate(config.learner, cv_tasks, arch, grid, seed)
    hp = replace(cv.best, epochs=config.study_epochs)

    if base_name == "multitask":
        model = nn.init_model(arch, seed)
        model, visits = multitask_train(model, ev_tasks, hp, seed)
        audit_single_pass(visits, ev_tasks, 1)
        audit_isolation(cv_tasks, ev_tasks, set(), set(visits))
        accs = eval_all(model, ev_tasks)
        report = MetricsReport(
            learner=config.learner, seed=seed,
            avg_accuracy=float(np.mean(accs)),
            forgetting=None, worst_case_forgetting_test=None,
            worst_case_forgetting_memory=None,
            lca=None, lca_beta=hp.beta, zb_curve=[], bshot_curves=[], zero_shot=[],
            violations=0, violations_by_task=[],
            mean_step_seconds=0.0, step_seconds_by_task=[],
            param_count=arch.param_count,
            hyperparams={"lr": hp.lr, "batch_size": hp.batch_size},
        )
        return SeedResult(report, cv)

    model = nn.init_model(arch, seed)
    learner = make_learner(base_name, model, hp, seed)
    audit_reset(learner, arch, seed)
    tensor = AccuracyTensor(order=[t.task_id for t in ev_tasks])
    trace = RunTrace()
    state, tensor = run_single_pass(
        learner, ev_tasks, hp, seed, tensor, trace,
        allow_multi_epoch=config.study_epochs > 1,
    )
    audit_isolation(cv_tasks, ev_tasks, set(), set(trace.visit_counts))
    report = build_report(
        config.learner, seed, tensor, trace, hp, arch.param_count,
        state.violation_count, state.step_seconds / max(state.step_count, 1),
    )
    return SeedResult(report, cv)


def aggregate_reports(reports: list[MetricsReport]) -> dict:
    """Mean and sample standard deviation of the scalar metrics over seeds."""
    def stat(values):
        vals = [v for v in values if v is not None]
        if not vals:
            return None
        mean = float(np.mean(vals))
        std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        return {"mean": mean, "std": std, "n": len(vals)}

    return {
        "A_T": stat([r.avg_accuracy for r in reports]),
        "F_T": stat([r.forgetting for r in reports]),
        "F_wst_test": stat([r.worst_case_forgetting_test for r in reports]),
        "F_wst_mem": stat([r.worst_case_forgetting_memory for r in reports]),
        "LCA": stat([r.lca for r in reports]),
        "violations": stat([float(r.violations) for r in reports]),
        "mean_step_seconds": stat([r.mean_step_seconds for r in reports]),
    }


def run_experiment(config: ExperimentConfig) -> tuple[list[SeedResult], dict]:
    results = [run_seed(config, seed) for seed in config.seeds]
    return results, aggregate_reports([r.report for r in results])
