"""End-to-end training and evaluation protocol.

Hyper-parameters are selected by grid search on a small leading block of
tasks (the CV stream, where replay is allowed), each candidate scored by
its mean final accuracy over the CV tasks, evaluated once after the last
of them.  The learner is reset, and the remaining tasks (the EV stream)
are learned in a strict single pass with accuracy logged at the metric
cadence: own-task evaluation before the task and after each of its first
``beta`` mini-batches, plus an all-task evaluation at every task
boundary.  Three audits guard the setting: every EV training example is
visited exactly once, CV and EV never share data, and the post-selection
reset is complete.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from . import nn
from .embedding import je_predict
from .errors import ConfigurationError, NumericError, ProtocolError
from .learners import LEARNER_NAMES, Learner, LearnerState, make_learner, multitask_train
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
    check_class_split,
    check_cv_split,
    load_mnist_idx,
    make_permuted_stream,
    make_synthetic_split_stream,
    minibatches,
    split_cv_ev,
    synthetic_mnist_base,
)

DATA_DIR_ENV = "LLB_DATA_DIR"

# least values of numeric config keys (any other number is at least 0, and
# lr is above 0); a list's entry bounds each of its items
LEAST_VALUES = {"tasks": 2, **dict.fromkeys((
    "cv_split", "train_per_task", "test_per_task", "base_train", "base_test", "input_dim",
    "num_classes", "classes_per_task", "attributes", "train_per_class", "test_per_class",
    "memory_per_task", "ref_batch_size", "batch_size", "epochs", "fisher_samples",
    "hidden", "study_epochs"), 1)}


def check_value(level: str, key: str, value, default) -> None:
    """Raise ConfigurationError unless ``value`` takes its default's JSON
    type (an integer also serves as a number, a ``null`` default stands for
    a string, a list's items take its first item's type, and any other
    default stands for an object of its type) and every number in it is at
    least its ``LEAST_VALUES`` entry, or 0 (``lr`` is above 0).  ``null`` is
    valid where the default is ``null`` and for the per-task row counts,
    where it keeps every base row.  ``level`` names the config object."""
    nullable = default is None or key in ("train_per_task", "test_per_task")
    if value is None and nullable:
        return
    is_list = isinstance(default, (list, tuple))
    item = default[0] if is_list else default
    types = {type(None): str, int: numbers.Integral, float: numbers.Real}.get(type(item), type(item))
    noun = {str: "string", bool: "boolean", numbers.Integral: "integer",
            numbers.Real: "number"}.get(types, "object")
    least = LEAST_VALUES.get(key, 0)
    bound = (" > 0" if key == "lr" else f" >= {least}") if noun in ("integer", "number") else ""

    def ok(v) -> bool:
        return (isinstance(v, types) and (types is bool or not isinstance(v, bool))
                and (not bound or (v > 0 if key == "lr" else v >= least)))

    if not (isinstance(value, (list, tuple)) and all(map(ok, value)) if is_list else ok(value)):
        wanted = f"a list of {noun}s" if is_list else ("an " if noun[0] in "aio" else "a ") + noun
        raise ConfigurationError(
            f"{level} {key!r} must be {wanted}{bound}{' or null' if nullable else ''}, got {value!r}"
        )


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
        for f in fields(self):
            check_value("base", f.name, getattr(self, f.name), f.default)


def expand_grid(base: HyperParams, grid: dict[str, list]) -> list[HyperParams]:
    """All combinations of the listed values over the base hyper-parameters."""
    defaults = {f.name: f.default for f in fields(HyperParams)}
    unknown = set(grid) - set(defaults)
    if unknown:
        raise ConfigurationError(f"unknown hyper-parameter(s) in grid: {sorted(unknown)}")
    candidates = [base]
    for name, values in grid.items():
        check_value("grid", name, values, [defaults[name]])
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


# every key each stream kind reads, with its default; build_stream rejects
# any other key, so a misspelt one cannot fall back to its default unseen,
# and any value whose JSON type differs from its default's
STREAM_DEFAULTS = {
    "permuted-mnist": {
        "tasks": 8, "cv_split": 3, "train_per_task": 1000, "test_per_task": 500,
        # the base: the MNIST IDX files under data_dir (or $LLB_DATA_DIR)
        # when either is set, otherwise the synthetic stand-in these keys shape
        "data_dir": None, "base_train": 4000, "base_test": 2000, "base_seed": 0,
        "base_noise": 0.3, "input_dim": 784,
    },
    "synthetic-split": {
        "tasks": 13, "cv_split": 3, "num_classes": 80, "classes_per_task": 5,
        "attributes": 32, "with_replacement": False, "input_dim": 64,
        "train_per_class": 100, "test_per_class": 40, "noise": 0.5,
    },
}


IDX_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


def _mnist_base(stream: dict) -> BaseData:
    data_dir = stream["data_dir"] or os.environ.get(DATA_DIR_ENV)
    if data_dir:
        paths = [os.path.join(data_dir, n) for n in IDX_FILES]
        missing = [n for n, p in zip(IDX_FILES, paths) if not os.path.exists(p)]
        if missing:
            raise ConfigurationError(
                f"MNIST data directory {data_dir!r} (from data_dir or ${DATA_DIR_ENV}) "
                f"lacks {', '.join(missing)}"
            )
        train_x, train_y = load_mnist_idx(paths[0], paths[1])
        test_x, test_y = load_mnist_idx(paths[2], paths[3])
        return BaseData(train_x, train_y, test_x, test_y)
    # like a real dataset, the synthetic base is fixed across run seeds;
    # permutations, subsampling, init, and shuffles still vary per seed
    return synthetic_mnist_base(
        n_train=stream["base_train"], n_test=stream["base_test"], seed=stream["base_seed"],
        dim=stream["input_dim"], noise=stream["base_noise"],
    )


def check_stream(stream: dict) -> dict:
    """The stream with its kind's defaults filled in; raises
    ConfigurationError on an unknown kind or key, or on a bad value."""
    kind = stream.get("kind", "permuted-mnist")
    if not isinstance(kind, str) or kind not in STREAM_DEFAULTS:
        raise ConfigurationError(f"unknown stream kind {kind!r}; valid: {sorted(STREAM_DEFAULTS)}")
    defaults = STREAM_DEFAULTS[kind]
    unknown = set(stream) - {"kind", *defaults}
    if unknown:
        raise ConfigurationError(
            f"unknown stream key(s) {sorted(unknown)} for kind {kind!r}; "
            f"valid: {sorted({'kind', *defaults})}"
        )
    for key, value in stream.items():
        if key != "kind":
            check_value("stream", key, value, defaults[key])
    s = {**defaults, **stream, "kind": kind}
    check_cv_split(s["tasks"], s["cv_split"])
    if kind == "synthetic-split":
        check_class_split(s["num_classes"], s["classes_per_task"], s["tasks"],
                          s["attributes"], s["with_replacement"])
    return s


def build_stream(stream: dict, seed: int) -> Continuum:
    """The continuum a config's ``stream`` object describes (see ``STREAM_DEFAULTS``)."""
    s = check_stream(stream)
    if s["kind"] == "permuted-mnist":
        return make_permuted_stream(
            _mnist_base(s), T=s["tasks"], seed=seed, cv_split=s["cv_split"],
            train_per_task=s["train_per_task"], test_per_task=s["test_per_task"],
        )
    return make_synthetic_split_stream(
        num_classes=s["num_classes"], classes_per_task=s["classes_per_task"], T=s["tasks"],
        A=s["attributes"], with_replacement=s["with_replacement"], seed=seed,
        cv_split=s["cv_split"], input_dim=s["input_dim"], train_per_class=s["train_per_class"],
        test_per_class=s["test_per_class"], noise=s["noise"],
    )


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


def eval_all(model: nn.Model, tasks: list[TaskDataset]) -> np.ndarray:
    """Per-task test accuracies."""
    return np.array([eval_accuracy(model, t) for t in tasks])


# ---------------------------------------------------------------------------
# single-pass run


@dataclass
class RunTrace:
    """The record of one single pass: the accuracy log it fills, the same
    log over the episodic-memory buffers (memory learners only), and the
    facts it produces beside them."""

    tensor: AccuracyTensor
    memory_tensor: AccuracyTensor | None
    violations_by_task: list[tuple[int, int]] = field(default_factory=list)
    step_seconds_by_task: list[tuple[int, float]] = field(default_factory=list)
    visit_counts: dict[int, int] = field(default_factory=dict)


def run_single_pass(
    learner: Learner,
    tasks: list[TaskDataset],
    hp: HyperParams,
    seed: int,
    allow_multi_epoch: bool = False,
    log_accuracy: bool = True,
) -> tuple[LearnerState, RunTrace]:
    """Train over the stream in order, logging at the metric cadence.

    Returns the learner's state and the run's record.  Raises
    ProtocolError on numeric failure and on any violation of the
    single-pass audit.  A selection run passes ``log_accuracy=False``: it
    trains and audits exactly as any other but evaluates nothing, so its
    tensor holds only the batch counts, it has no memory tensor, and the
    caller evaluates the final model itself.
    """
    if hp.epochs > 1 and not allow_multi_epoch:
        raise ConfigurationError(
            "multiple epochs are only allowed on CV streams or in study mode"
        )
    order = [t.task_id for t in tasks]
    run = RunTrace(
        AccuracyTensor(order=order),
        AccuracyTensor(order=list(order))
        if log_accuracy and learner.state.memory is not None else None,
    )
    tensor, visits = run.tensor, run.visit_counts
    beta = hp.beta if log_accuracy else 0

    for k, task in enumerate(tasks):
        learner.register_task(task)
        if log_accuracy:
            test_x = task.test_x[:]     # gathered once for the cadence evaluations
            # ``register_task`` changes no parameter: after the first task, the
            # last boundary's evaluation of this task is its zero-shot entry
            zero_shot = accs[k] if k else eval_accuracy(learner.model, task, test_x)
            record(tensor, task.task_id, 0, task.task_id, zero_shot)
        batches = minibatches(task, hp.batch_size, seed, hp.epochs)
        secs0, steps0 = learner.state.step_seconds, learner.state.step_count
        try:
            for i, batch in enumerate(batches, 1):
                learner.timed_step(batch)
                for sid in batch.ids:
                    visits[int(sid)] = visits.get(int(sid), 0) + 1
                if i <= beta:
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
        if log_accuracy:
            accs = eval_all(learner.model, tasks)
            for other, acc in zip(tasks, accs):
                record(tensor, task.task_id, len(batches), other.task_id, acc)
        if run.memory_tensor is not None:
            run.memory_tensor.batch_counts[task.task_id] = len(batches)
            for stored, buf in learner.state.memory.per_task.items():
                preds = predict_task(learner.model, buf.x, stored, learner.state.descriptors[stored])
                record(
                    run.memory_tensor, task.task_id, len(batches), stored,
                    float(np.mean(preds == buf.y)),
                )
        run.violations_by_task.append((task.task_id, learner.state.violation_count))
        steps = learner.state.step_count - steps0
        run.step_seconds_by_task.append(
            (task.task_id, (learner.state.step_seconds - secs0) / max(steps, 1))
        )

    audit_single_pass(visits, tasks, hp.epochs)
    return learner.state, run


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
    cv_tasks: list[TaskDataset], ev_tasks: list[TaskDataset], ev_visited: set[int]
) -> None:
    """CV and EV streams share no sample or task id, and the EV run visited
    only EV examples (each CV run's own ``audit_single_pass`` checks its visits)."""
    cv_ids = {int(i) for t in cv_tasks for i in t.train_ids}
    ev_ids = {int(i) for t in ev_tasks for i in t.train_ids}
    if cv_ids & ev_ids:
        raise ProtocolError("CV and EV streams share training sample ids")
    if {t.task_id for t in cv_tasks} & {t.task_id for t in ev_tasks}:
        raise ProtocolError("CV and EV streams share task ids")
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


def _multitask_run(
    arch: nn.Architecture, tasks: list[TaskDataset], hp: HyperParams, seed: int
) -> tuple[np.ndarray, dict[int, int]]:
    """Train the multitask baseline from init, audit its single pass, and
    return the per-task test accuracies and the visit counts."""
    model, visits = multitask_train(nn.init_model(arch, seed), tasks, hp, seed)
    audit_single_pass(visits, tasks, hp.epochs)
    return eval_all(model, tasks), visits


def cross_validate(
    learner_name: str,
    cv_tasks: list[TaskDataset],
    arch: nn.Architecture,
    grid: list[HyperParams],
    seed: int,
) -> CvResult:
    """Train each candidate on the CV stream; the best score wins.

    A candidate's score, ``cv_table.csv``'s ``cv_accuracy``, is its mean
    final accuracy over the CV tasks.  A selection run trains and audits
    as any single pass, but evaluates once: the ``eval_all`` over the CV
    tasks after the last of them, the only accuracy selection reads.  Ties
    keep the first candidate in grid order.  A candidate whose training or
    final evaluation fails numerically scores ``None``; a failed audit of
    a CV run raises its own ``ProtocolError``.
    """
    if not grid:
        raise ConfigurationError("empty hyper-parameter grid")
    base, _ = parse_learner(learner_name)
    candidates: list[CvCandidate] = []
    for hp in grid:
        try:
            if base == "multitask":
                accs = _multitask_run(arch, cv_tasks, hp, seed)[0]
            else:
                learner = make_learner(base, nn.init_model(arch, seed), hp, seed)
                run_single_pass(
                    learner, cv_tasks, hp, seed, allow_multi_epoch=True, log_accuracy=False
                )
                accs = eval_all(learner.model, cv_tasks)
            candidates.append(CvCandidate(hp, float(np.mean(accs))))
        except (NumericError, ProtocolError) as exc:
            if not isinstance(exc, NumericError) and not isinstance(exc.__cause__, NumericError):
                raise
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
    state: LearnerState,
    run: RunTrace,
    hp: HyperParams,
) -> MetricsReport:
    """The metric report of one single pass, from its record and the
    learner's final state."""
    tensor = run.tensor
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
    if run.memory_tensor is not None and len(tensor.order) > 1:
        wst_mem = worst_case_forgetting(run.memory_tensor, last)
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
        violations=state.violation_count,
        violations_by_task=list(run.violations_by_task),
        mean_step_seconds=state.step_seconds / max(state.step_count, 1),
        step_seconds_by_task=list(run.step_seconds_by_task),
        param_count=state.model.arch.param_count,
        hyperparams=asdict(hp),
    )


@dataclass
class ExperimentConfig:
    """One experiment.  Its fields, learner name, stream and grid are checked
    when it is built, so also after every ``dataclasses.replace``."""

    learner: str = "agem"
    stream: dict = field(default_factory=lambda: {"kind": "permuted-mnist"})
    hidden: tuple[int, ...] = (256, 256)
    base: HyperParams = field(default_factory=HyperParams)
    grid: dict[str, list] = field(default_factory=lambda: {"lr": [0.1, 0.03, 0.01]})
    seeds: tuple[int, ...] = (0, 1, 2)
    study_epochs: int = 1

    def __post_init__(self):
        for f in fields(self):
            default = f.default if f.default_factory is MISSING else f.default_factory()
            check_value("config", f.name, getattr(self, f.name), default)
        if not self.seeds:
            raise ConfigurationError("need at least one seed")
        if parse_learner(self.learner)[0] not in LEARNER_NAMES:
            raise ConfigurationError(
                f"unknown learner {self.learner!r}; valid: {', '.join(LEARNER_NAMES)}"
                " (each optionally with a -je suffix)"
            )
        check_stream(self.stream)
        expand_grid(self.base, self.grid)


@dataclass
class SeedResult:
    report: MetricsReport
    cv: CvResult


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
        accs, visits = _multitask_run(arch, ev_tasks, hp, seed)
        audit_isolation(cv_tasks, ev_tasks, set(visits))
        report = MetricsReport(
            learner=config.learner, seed=seed,
            avg_accuracy=float(np.mean(accs)),
            forgetting=None, worst_case_forgetting_test=None,
            worst_case_forgetting_memory=None,
            lca=None, lca_beta=hp.beta, zb_curve=[], bshot_curves=[], zero_shot=[],
            violations=0, violations_by_task=[],
            mean_step_seconds=0.0, step_seconds_by_task=[],
            param_count=arch.param_count,
            hyperparams=asdict(hp),
        )
        return SeedResult(report, cv)

    model = nn.init_model(arch, seed)
    learner = make_learner(base_name, model, hp, seed)
    audit_reset(learner, arch, seed)
    state, run = run_single_pass(
        learner, ev_tasks, hp, seed, allow_multi_epoch=config.study_epochs > 1
    )
    audit_isolation(cv_tasks, ev_tasks, set(run.visit_counts))
    report = build_report(config.learner, seed, state, run, hp)
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
