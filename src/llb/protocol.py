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

import ctypes
import functools
import glob
import multiprocessing.connection
import numbers
import os
import traceback
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from . import nn
from .embedding import je_predict
from .errors import ConfigurationError, LlbError, NumericError, ProtocolError, reject_unknown
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
    a string, a string is not empty, a list is not empty and its items take
    its first item's type, and any other default stands for an object of
    its type) and every number in it is finite and at least its
    ``LEAST_VALUES`` entry, or 0 (``lr`` is above 0).  ``null`` is valid
    where the default is ``null`` and for the per-task row counts, where it
    keeps every base row.  ``level`` names the config object."""
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
        return (isinstance(v, types) and (types is bool or not isinstance(v, bool)) and v != ""
                and (not bound or (v > 0 if key == "lr" else v >= least) and v < np.inf))

    if not (isinstance(value, (list, tuple)) and value and all(map(ok, value)) if is_list
            else ok(value)):
        items = value if isinstance(value, (list, tuple)) else (value,)
        if noun == "number" and any(isinstance(v, float) and not np.isfinite(v) for v in items):
            noun = "finite number"      # name the bound an infinity or NaN breaks
        if isinstance(value, str) and not value:
            noun = "non-empty string"   # an empty data_dir would read as unset
        wanted = f"a list of {noun}s" if is_list else ("an " if noun[0] in "aio" else "a ") + noun
        rest = ", not empty" if is_list else " or null" if nullable else ""
        raise ConfigurationError(f"{level} {key!r} must be {wanted}{bound}{rest}, got {value!r}")


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
    reject_unknown("grid", grid, defaults)
    candidates = [base]
    for name, values in grid.items():
        check_value("grid", name, values, [defaults[name]])
        if len(set(values)) < len(values):
            raise ConfigurationError(f"grid {name!r} lists a value twice: {list(values)}")
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


# the stream keys that shape the synthetic base; the process's one base
# (see _mnist_base) is rebuilt when any of them, or an IDX file, changes
BASE_KEYS = ("base_train", "base_test", "base_seed", "input_dim", "base_noise")
_base_cache: list = []      # [key, BaseData] of the last base built, or empty


def _mnist_base(stream: dict) -> BaseData:
    """The permuted stream's seed-independent base, built once per process:
    the IDX files under the data directory, keyed by its resolved path and
    each file's size and mtime, else the synthetic stand-in, keyed by
    ``BASE_KEYS``.  Only the last key's base is held, and its arrays are
    read-only, so no consumer can change the data a later run sees; a forked
    worker inherits it."""
    data_dir = stream["data_dir"] or os.environ.get(DATA_DIR_ENV)
    if data_dir:
        paths = [os.path.join(data_dir, n) for n in IDX_FILES]
        missing = [n for n, p in zip(IDX_FILES, paths) if not os.path.exists(p)]
        if missing:
            raise ConfigurationError(
                f"MNIST data directory {data_dir!r} (from data_dir or ${DATA_DIR_ENV}) "
                f"lacks {', '.join(missing)}"
            )
        key = (os.path.realpath(data_dir),
               *((st.st_size, st.st_mtime_ns) for st in map(os.stat, paths)))

        def build():
            base = BaseData(*load_mnist_idx(paths[0], paths[1]),
                            *load_mnist_idx(paths[2], paths[3]))
            for path, y in ((paths[1], base.train_y), (paths[3], base.test_y)):
                if (past := np.flatnonzero(y >= base.num_classes)).size:
                    raise ConfigurationError(f"{path}: label {y[past[0]]} at item {past[0]} "
                                             f"is past the base's {base.num_classes} classes")
            return base
    else:
        key = tuple(stream[k] for k in BASE_KEYS)
        # like a real dataset, the synthetic base is fixed across run seeds;
        # permutations, subsampling, init, and shuffles still vary per seed
        build = functools.partial(
            synthetic_mnist_base, n_train=stream["base_train"], n_test=stream["base_test"],
            seed=stream["base_seed"], dim=stream["input_dim"], noise=stream["base_noise"],
        )
    if not (_base_cache and _base_cache[0] == key):
        _base_cache.clear()     # a replaced base is freed once no stream holds it
        base = build()
        for array in (base.train_x, base.train_y, base.test_x, base.test_y):
            array.flags.writeable = False
        _base_cache[:] = [key, base]
    return _base_cache[1]


def warm_base(stream: dict) -> None:
    """Build a permuted stream's base in this process, so workers forked
    after it share one copy-on-write base instead of each building its own;
    other stream kinds have no shared base."""
    s = check_stream(stream)
    if s["kind"] == "permuted-mnist":
        _mnist_base(s)


def check_stream(stream: dict) -> dict:
    """The stream with its kind's defaults filled in; raises
    ConfigurationError on an unknown kind or key, or on a bad value."""
    kind = stream.get("kind", "permuted-mnist")
    reject_unknown("stream kind", kind, STREAM_DEFAULTS)
    defaults = STREAM_DEFAULTS[kind]
    reject_unknown("stream", stream, {"kind", *defaults}, f" for kind {kind!r}")
    for key, value in stream.items():
        if key != "kind":
            check_value("stream", key, value, defaults[key])
    s = {**defaults, **stream, "kind": kind}
    check_cv_split(s["tasks"], s["cv_split"])
    if kind == "synthetic-split":
        check_class_split(s["num_classes"], s["classes_per_task"], s["tasks"],
                          s["attributes"], s["with_replacement"], s["train_per_class"])
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


def accuracy(model: nn.Model, x: np.ndarray, y: np.ndarray, task: int, descriptor) -> float:
    """Share of the labelled rows ``x``, ``y`` of ``task`` whose predicted
    within-task class is right: predicted by the task's own head, or by the
    attribute table scored through the task's descriptor."""
    if model.arch.head_mode == nn.JOINT_EMBEDDING:
        preds = je_predict(model, x, descriptor)
    else:
        preds = nn.predict(model, x, task)
    return float(np.mean(preds == y))


def eval_accuracy(
    model: nn.Model, dataset: TaskDataset, test_x: np.ndarray | None = None
) -> float:
    """Exact accuracy over a task's full test split; zero-shot accuracy on
    a task the model has not trained on.

    ``test_x`` is the split's inputs when the caller has already gathered
    them; otherwise they are gathered here.
    """
    if test_x is None:
        test_x = dataset.test_x[:]
    return accuracy(model, test_x, dataset.test_y, dataset.task_id, dataset.descriptor)


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
    # the visit ledger: the sample id of every row trained on, in training order
    visits: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


def run_single_pass(
    learner: Learner,
    tasks: list[TaskDataset],
    hp: HyperParams,
    seed: int,
    log_accuracy: bool = True,
) -> tuple[LearnerState, RunTrace]:
    """Train over the stream in order, logging at the metric cadence.

    Returns the learner's state and the run's record.  A numeric failure
    while training a task raises NumericError naming the task; the
    single-pass audit raises ProtocolError unless every training example
    was visited exactly ``hp.epochs`` times (``study_epochs`` in an EV run).  A
    selection run passes ``log_accuracy=False``: it trains and audits
    exactly as any other but evaluates nothing, so its tensor holds only
    the batch counts, it has no memory tensor, and the caller evaluates the
    final model itself.
    """
    order = [t.task_id for t in tasks]
    run = RunTrace(
        AccuracyTensor(order=order),
        AccuracyTensor(order=list(order))
        if log_accuracy and learner.state.memory is not None else None,
    )
    tensor = run.tensor
    # the visit ledger, sized for a correct pass (minibatches yields each
    # training row hp.epochs times) and cut to the visits made
    run.visits = np.empty(hp.epochs * sum(len(t.train_y) for t in tasks), dtype=np.int64)
    done = 0
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
                run.visits[done : done + len(batch.ids)] = batch.ids
                done += len(batch.ids)
                if i <= beta:
                    record(
                        tensor, task.task_id, i, task.task_id,
                        eval_accuracy(learner.model, task, test_x),
                    )
        except NumericError as exc:
            raise NumericError(f"numeric failure during task {task.task_id}: {exc}") from exc
        tensor.batch_counts[task.task_id] = len(batches)
        learner.end_task(task)
        if log_accuracy:
            accs = eval_all(learner.model, tasks)
            for other, acc in zip(tasks, accs):
                record(tensor, task.task_id, len(batches), other.task_id, acc)
        if run.memory_tensor is not None:
            run.memory_tensor.batch_counts[task.task_id] = len(batches)
            for stored, buf in learner.state.memory.per_task.items():
                descriptor = learner.state.descriptors[stored]
                acc = accuracy(learner.model, buf.x, buf.y, stored, descriptor)
                record(run.memory_tensor, task.task_id, len(batches), stored, acc)
        run.violations_by_task.append((task.task_id, learner.state.violation_count))
        steps = learner.state.step_count - steps0
        run.step_seconds_by_task.append(
            (task.task_id, (learner.state.step_seconds - secs0) / max(steps, 1))
        )

    run.visits = run.visits[:done]
    audit_single_pass(run.visits, tasks, hp.epochs)
    return learner.state, run


# ---------------------------------------------------------------------------
# audits


class _Tally:
    """A visit ledger sorted once, then counted against sample ids.

    ``count(ids)`` returns how often the ledger holds each of ``ids``;
    ``unlisted()`` returns the ledger's distinct ids that no count has
    asked for, ascending, with how often it holds each.  Beyond the sorted
    copy it keeps one byte per ledger entry; every other temporary is the
    size of the ids counted.
    """

    def __init__(self, visits: np.ndarray):
        self.seen = np.sort(visits)
        # the first entry of each distinct id, until a count asks for it
        self.unasked = np.ones(len(self.seen), dtype=bool)
        np.not_equal(self.seen[1:], self.seen[:-1], out=self.unasked[1:])

    def count(self, ids: np.ndarray) -> np.ndarray:
        lo = np.searchsorted(self.seen, ids, "left")
        n = np.searchsorted(self.seen, ids, "right") - lo
        self.unasked[lo[n > 0]] = False
        return n

    def unlisted(self) -> tuple[np.ndarray, np.ndarray]:
        ids = self.seen[self.unasked]
        return ids, np.searchsorted(self.seen, ids, "right") - np.searchsorted(self.seen, ids)


def audit_single_pass(
    visits: np.ndarray, tasks: list[TaskDataset], epochs: int = 1
) -> None:
    """Every training example of the stream seen exactly ``epochs`` times:
    the ledger ``visits`` holds each id a task lists (once, however many
    tasks list it) ``epochs`` times, and no other id."""
    tally = _Tally(visits)
    ids, seen = [], []
    for t in tasks:
        n = tally.count(t.train_ids)
        ids.append(t.train_ids[n != epochs])
        seen.append(n[n != epochs])
    stray, stray_seen = tally.unlisted()
    ids, seen = np.concatenate([stray, *ids]), np.concatenate([stray_seen, *seen])
    if len(ids):
        ids, at = np.unique(ids, return_index=True)     # an id two tasks list is one example
        sample = {
            int(i): (int(seen[j]), None if j < len(stray) else epochs)
            for i, j in zip(ids[:5], at[:5])
        }
        raise ProtocolError(f"single-pass audit failed for {len(ids)} example(s): {sample}")


def audit_isolation(
    cv_tasks: list[TaskDataset], ev_tasks: list[TaskDataset], ev_visited: np.ndarray
) -> None:
    """CV and EV streams share no sample or task id, and the EV run's visit
    ledger ``ev_visited`` holds only EV examples (each CV run's own
    ``audit_single_pass`` checks its visits)."""
    tally = _Tally(np.concatenate([np.empty(0, dtype=np.int64), *(t.train_ids for t in cv_tasks)]))
    if any(tally.count(t.train_ids).any() for t in ev_tasks):
        raise ProtocolError("CV and EV streams share training sample ids")
    if {t.task_id for t in cv_tasks} & {t.task_id for t in ev_tasks}:
        raise ProtocolError("CV and EV streams share task ids")
    tally = _Tally(ev_visited)      # replaces the CV ids' tally
    for t in ev_tasks:
        tally.count(t.train_ids)
    if len(tally.unlisted()[0]):
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
) -> tuple[np.ndarray, np.ndarray]:
    """Train the multitask baseline from init, audit its single pass, and
    return the per-task test accuracies and the visit ledger."""
    model, visits = multitask_train(nn.init_model(arch, seed), tasks, hp, seed)
    audit_single_pass(visits, tasks, hp.epochs)
    return eval_all(model, tasks), visits


# the bundled OpenBLAS's setter of its thread count
BLAS_SET_THREADS = "scipy_openblas_set_num_threads64_"


@functools.cache
def openblas(symbol: str):
    """The function ``symbol`` of the OpenBLAS that numpy's wheel bundles,
    or None when there is no such library or it lacks the symbol."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        fn = getattr(ctypes.CDLL(path), symbol, None)
        if fn is not None:
            return fn
    return None


def _score(base: str, cv_tasks: list[TaskDataset], arch: nn.Architecture,
           hp: HyperParams, seed: int) -> float | None:
    """One candidate's mean final accuracy over the CV tasks, after a
    trained and audited run; None when its training or final evaluation
    raised NumericError."""
    try:
        if base == "multitask":
            accs = _multitask_run(arch, cv_tasks, hp, seed)[0]
        else:
            learner = make_learner(base, nn.init_model(arch, seed), hp, seed)
            run_single_pass(learner, cv_tasks, hp, seed, log_accuracy=False)
            accs = eval_all(learner.model, cv_tasks)
    except NumericError:
        return None
    return float(np.mean(accs))


def _map_share(conn, fn, items: list, share: range) -> None:
    """A worker of ``fork_map``: send ``(index, fn(item))`` for each index of
    ``share``, or ``(None, (exception, its traceback))`` in its place."""
    try:
        for i in share:
            conn.send((i, fn(items[i])))
    except Exception as exc:
        conn.send((None, (exc, traceback.format_exc())))
    finally:
        conn.close()


def fork_map(fn, items: list, workers: int) -> list:
    """``[fn(item) for item in items]`` from up to ``workers`` forked
    processes that take the items round-robin, ``fn`` and the items reaching
    them through the fork, never pickled.  Each worker answers through its
    own pipe, read as it comes.  A worker's exception is raised here, caused
    by its traceback in the worker; a worker that exits before it has
    answered raises LlbError naming its exit code.  On any failure every
    worker is killed; every worker is joined on every path.  With one
    worker, or without the ``fork`` start method, ``fn`` runs in-process."""
    workers = min(workers, len(items))
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    ctx = multiprocessing.get_context("fork")
    results = [None] * len(items)
    owed = {}       # a worker's pipe -> [the worker, results it still owes]
    try:
        for w in range(workers):
            recv, send = ctx.Pipe(duplex=False)
            share = range(w, len(items), workers)
            proc = ctx.Process(target=_map_share, args=(send, fn, items, share))
            proc.start()
            send.close()    # the worker holds the only writing end: its exit ends the pipe
            owed[recv] = [proc, len(share)]
        while pending := [recv for recv, (_, left) in owed.items() if left]:
            for recv in multiprocessing.connection.wait(pending):
                proc = owed[recv][0]
                try:
                    i, answer = recv.recv()
                except EOFError:
                    proc.join()
                    raise LlbError(f"a worker process exited with code {proc.exitcode} "
                                   "before it answered") from None
                if i is None:
                    exc, trace = answer
                    raise exc from Exception(f"in a worker process:\n{trace}")
                results[i] = answer
                owed[recv][1] -= 1
    except BaseException:
        for proc, _ in owed.values():
            proc.kill()
        raise
    finally:
        for recv, (proc, _) in owed.items():
            proc.join()
            recv.close()
    return results


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
    final evaluation raises NumericError scores ``None``; a failed audit of
    a CV run raises its own ``ProtocolError``, and so does a grid whose
    every candidate failed.

    The candidates train side by side on ``fork_map``, one worker per
    usable core (never more than candidates), each at one BLAS thread, with
    its own model and memory and the CV tasks shared copy-on-write.  Only
    the cores set the worker count, so selection takes the same path however
    many seeds run beside it.  It stays in-process, at the caller's BLAS
    threads, on one core, with one candidate, where the ``fork`` start
    method is missing, and where numpy's OpenBLAS has no thread setter.
    """
    if not grid:
        raise ConfigurationError("empty hyper-parameter grid")
    base, _ = parse_learner(learner_name)
    caller = os.getpid()

    def score_candidate(hp: HyperParams) -> float | None:   # what selection hands its workers
        if os.getpid() != caller:                           # a forked worker: one BLAS thread
            set_threads = openblas(BLAS_SET_THREADS)
            set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
            set_threads(1)
        return _score(base, cv_tasks, arch, hp, seed)

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = (cores or 1) if openblas(BLAS_SET_THREADS) is not None else 1
    scores = fork_map(score_candidate, grid, workers)
    candidates = [CvCandidate(hp, score) for hp, score in zip(grid, scores)]
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
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigurationError(f"config 'seeds' names a seed twice: {list(self.seeds)}")
        base, je = parse_learner(self.learner)
        reject_unknown("learner", base, LEARNER_NAMES, " (each optionally with a -je suffix)")
        if check_stream(self.stream)["kind"] == "permuted-mnist" and je:
            raise ConfigurationError(
                f"learner {self.learner!r} needs attribute descriptors (stream kind "
                "'synthetic-split'); permuted-mnist provides integer task ids"
            )
        expand_grid(self.base, self.grid)


@dataclass
class SeedResult:
    report: MetricsReport
    cv: CvResult


def run_seed(config: ExperimentConfig, seed: int) -> SeedResult:
    """Full protocol for one seed: CV selection, on one-thread workers
    (see ``cross_validate``), then reset and the single-pass EV run at the
    caller's BLAS threads."""
    base_name, je = parse_learner(config.learner)
    continuum = build_stream(config.stream, seed)
    arch = arch_for_stream(continuum, config.hidden, je)
    cv_tasks, ev_tasks = split_cv_ev(continuum)
    grid = expand_grid(config.base, config.grid)

    cv = cross_validate(config.learner, cv_tasks, arch, grid, seed)
    hp = replace(cv.best, epochs=config.study_epochs)    # the EV run's one pass count

    if base_name == "multitask":
        accs, visits = _multitask_run(arch, ev_tasks, hp, seed)
        audit_isolation(cv_tasks, ev_tasks, visits)
        report = MetricsReport(
            learner=config.learner, seed=seed, avg_accuracy=float(np.mean(accs)),
            lca_beta=hp.beta, param_count=arch.param_count, hyperparams=asdict(hp),
        )
        return SeedResult(report, cv)

    model = nn.init_model(arch, seed)
    learner = make_learner(base_name, model, hp, seed)
    audit_reset(learner, arch, seed)
    state, run = run_single_pass(learner, ev_tasks, hp, seed)
    audit_isolation(cv_tasks, ev_tasks, run.visits)
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
