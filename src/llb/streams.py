"""Task streams: Permuted MNIST, a synthetic attribute-split stream, the
CV/EV split, and single-pass mini-batch iteration.

A stream is an ordered list of tasks; each task carries train and test
inputs, labels, a descriptor (an integer id or a per-class attribute
matrix), the global class ids behind its within-task labels, and stable
sample ids used by the single-pass audit.  A task's inputs are ``Rows``:
row indices and a column permutation into a shared base array, gathered
only when read, so a permuted stream holds its base once however many
tasks it has.  Inputs for MNIST come from IDX files when available,
otherwise from a deterministic synthetic stand-in so the full suite runs
offline.
"""

from __future__ import annotations

import struct
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, IdxFormatError
from .nn import Batch
from .rng import substream

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
SYNTHETIC_CHUNK_ROWS = 1024
# the synthetic MNIST stand-in: pixel levels of its ink zone and background,
# the share of pixels in the ink zone, and the spread of the class means
SYNTHETIC_INK, SYNTHETIC_BACKGROUND = 0.75, 0.05
SYNTHETIC_ACTIVE_FRAC = 0.4
SYNTHETIC_CLASS_STD = 0.2
# the synthetic split stream redraws its class attribute rows until they are
# distinct; this many draws of rows that still collide is an error
ATTRIBUTE_DRAWS = 1000


class Rows:
    """Rows of a shared 2-D base array under a column permutation.

    Row i is ``base[rows[i], perm]``.  Nothing is copied at construction:
    every read gathers exactly the rows it asks for, as
    ``base[rows[key]].take(perm, axis=-1)``; on a 2-core Xeon with numpy
    2.4 that is two to three times faster than one ``np.ix_`` fancy index
    for 10 to 1000 rows of 784.  ``rows`` defaults to every base row in
    order and ``perm`` to the identity (no column gather).  Supports
    ``len``, ``.shape``, int, slice and index-array indexing (so also
    iteration over rows) and ``np.asarray``.
    """

    __slots__ = ("base", "rows", "perm")

    def __init__(self, base, rows=None, perm=None):
        self.base = np.asarray(base)
        if self.base.ndim != 2:
            raise ConfigurationError(f"task inputs must be 2-D, got shape {self.base.shape}")
        self.rows = np.arange(len(self.base)) if rows is None else np.asarray(rows)
        self.perm = None if perm is None else np.asarray(perm)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.base.shape[1])

    def __getitem__(self, key) -> np.ndarray:
        out = self.base[self.rows[key]]
        return out if self.perm is None else out.take(self.perm, axis=-1)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("gathering rows always copies")
        out = self[:]
        return out if dtype is None else out.astype(dtype, copy=False)


@dataclass
class TaskDataset:
    """One task's data: train/test splits, descriptor, global label set.

    A task has at least one training row and one test row, one label per
    row, and one sample id per training row, no two alike.  Plain input
    arrays are wrapped as ``Rows`` over themselves.  Training row i's
    sample id defaults to task_id * 2**32 + i, unique across tasks.
    """

    task_id: int
    train_x: Rows
    train_y: np.ndarray
    test_x: Rows
    test_y: np.ndarray
    descriptor: object            # int task id or (C_k x A) attribute matrix
    label_set: tuple[int, ...]    # global class id for each within-task label
    train_ids: np.ndarray = field(default=None)

    def __post_init__(self):
        if not isinstance(self.train_x, Rows):
            self.train_x = Rows(self.train_x)
        if not isinstance(self.test_x, Rows):
            self.test_x = Rows(self.test_x)
        if self.train_ids is None:
            self.train_ids = self.task_id * 2**32 + np.arange(len(self.train_y), dtype=np.int64)
        for split, x, y in (("training", self.train_x, self.train_y),
                            ("test", self.test_x, self.test_y)):
            if len(y) == 0:
                raise ConfigurationError(f"task {self.task_id} has no {split} row")
            if len(x) != len(y):
                raise ConfigurationError(f"task {self.task_id} has {len(x)} {split} rows "
                                         f"for {len(y)} {split} labels")
            if y.min() < 0 or y.max() >= len(self.label_set):
                raise ConfigurationError("labels must index into label_set")
        if len(self.train_ids) != len(self.train_y):
            raise ConfigurationError(f"task {self.task_id} has {len(self.train_ids)} training "
                                     f"sample ids for {len(self.train_y)} training rows")
        ids = np.sort(self.train_ids)
        repeated = ids[1:][ids[1:] == ids[:-1]]
        if len(repeated):
            raise ConfigurationError(f"task {self.task_id} lists training sample id "
                                     f"{repeated[0]} more than once")

    @property
    def num_classes(self) -> int:
        return len(self.label_set)

    def batch(self, rows) -> Batch:
        """The training rows ``rows`` as a one-task ``Batch`` with their sample ids."""
        return Batch(self.train_x[rows], self.train_y[rows], self.task_id, self.train_ids[rows])


def check_cv_split(tasks: int, cv_split: int) -> None:
    """The CV stream is a non-empty prefix of the tasks that leaves EV tasks."""
    if not 1 <= cv_split < tasks:
        raise ConfigurationError(f"cv_split={cv_split} must be at least 1 and below tasks={tasks}")


def check_class_split(num_classes: int, classes_per_task: int, tasks: int, attributes: int,
                      with_replacement: bool, train_per_class: int) -> None:
    """Each task's classes, and without replacement all tasks' classes, fit in
    ``num_classes``; with replacement a class's pool can shard over ``tasks``
    occurrences; ``attributes`` bits can give every class its own row."""
    if not 1 <= classes_per_task <= num_classes:
        raise ConfigurationError(f"classes_per_task={classes_per_task} must be at least 1 "
                                 f"and at most num_classes={num_classes}")
    if not with_replacement and tasks * classes_per_task > num_classes:
        raise ConfigurationError(f"tasks={tasks} x classes_per_task={classes_per_task} without "
                                 f"replacement exceeds num_classes={num_classes}")
    if with_replacement and train_per_class < tasks:
        raise ConfigurationError(f"train_per_class={train_per_class} with replacement must be "
                                 f"at least tasks={tasks}: a class may recur in every task")
    if 2**attributes < num_classes:
        raise ConfigurationError(f"attributes={attributes} give at most {2**attributes} distinct "
                                 f"attribute rows, fewer than num_classes={num_classes}")


@dataclass
class Continuum:
    """Ordered task sequence with the cross-validation split index.

    Attribute-split streams also keep their generative map (per-class
    attribute rows, the attribute-to-input map and the class means) for
    the attribute-fidelity audit; permuted streams leave these ``None``.
    """

    tasks: list[TaskDataset]
    cv_split: int
    attribute_matrix: np.ndarray | None = None
    attr_to_input: np.ndarray | None = None
    class_means: np.ndarray | None = None

    def __post_init__(self):
        check_cv_split(len(self.tasks), self.cv_split)

    def __len__(self) -> int:
        return len(self.tasks)


@dataclass
class BaseData:
    """Un-tasked image pool a permuted stream is built from."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    num_classes: int = 10


def _read_be32(data: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(data):
        raise IdxFormatError(f"{path}: truncated header at byte {offset}")
    return struct.unpack_from(">I", data, offset)[0]


def load_mnist_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Parse one IDX image/label file pair.

    Returns float64 images scaled to [0, 1], flattened to (n, rows*cols),
    and int labels.  Big-endian, bit-exact per the de-facto format: magic,
    dims, raw bytes.
    """
    with open(images_path, "rb") as f:
        img = f.read()
    with open(labels_path, "rb") as f:
        lab = f.read()

    magic = _read_be32(img, 0, str(images_path))
    if magic != IDX_IMAGE_MAGIC:
        raise IdxFormatError(
            f"{images_path}: bad image magic 0x{magic:08x} at byte 0 "
            f"(expected 0x{IDX_IMAGE_MAGIC:08x})"
        )
    n = _read_be32(img, 4, str(images_path))
    rows = _read_be32(img, 8, str(images_path))
    cols = _read_be32(img, 12, str(images_path))
    need = 16 + n * rows * cols
    if len(img) < need:
        raise IdxFormatError(
            f"{images_path}: truncated at byte {len(img)} (need {need})"
        )

    lmagic = _read_be32(lab, 0, str(labels_path))
    if lmagic != IDX_LABEL_MAGIC:
        raise IdxFormatError(
            f"{labels_path}: bad label magic 0x{lmagic:08x} at byte 0 "
            f"(expected 0x{IDX_LABEL_MAGIC:08x})"
        )
    ln = _read_be32(lab, 4, str(labels_path))
    if len(lab) < 8 + ln:
        raise IdxFormatError(f"{labels_path}: truncated at byte {len(lab)} (need {8 + ln})")
    if ln != n:
        raise IdxFormatError(
            f"count mismatch: {n} images ({images_path}) vs {ln} labels ({labels_path})"
        )

    x = np.frombuffer(img, dtype=np.uint8, count=n * rows * cols, offset=16)
    y = np.frombuffer(lab, dtype=np.uint8, count=n, offset=8)
    return x.reshape(n, rows * cols).astype(np.float64) / 255.0, y.astype(np.int64)


def synthetic_mnist_base(
    n_train: int = 4000,
    n_test: int = 2000,
    seed: int = 0,
    dim: int = 784,
    noise: float = 0.3,
) -> BaseData:
    """Deterministic MNIST stand-in with image-like pixel statistics.

    A fixed "ink zone" of bright pixels over a dark background gives the
    strongly anisotropic per-pixel means that make pixel permutations
    genuinely interfere across tasks; class identity lives in Gaussian
    perturbations of the ink zone.  Same seed, same dataset.  Each split
    draws its labels, then its noise in chunks of ``SYNTHETIC_CHUNK_ROWS``
    rows straight into the output, so no temporary is the size of the
    base; chunked normal draws equal one draw of the whole block.
    """
    rng = substream(seed, "synthetic-mnist")
    profile = np.full(dim, SYNTHETIC_BACKGROUND)
    profile[rng.choice(dim, size=int(SYNTHETIC_ACTIVE_FRAC * dim), replace=False)] = SYNTHETIC_INK
    deltas = rng.normal(0.0, SYNTHETIC_CLASS_STD, size=(10, dim)) * (profile > SYNTHETIC_BACKGROUND)
    means = np.clip(profile + deltas, 0.0, 1.0)

    def draw(n):
        y = rng.integers(0, 10, size=n)
        x = np.empty((n, dim))
        for lo in range(0, n, SYNTHETIC_CHUNK_ROWS):
            chunk = x[lo : lo + SYNTHETIC_CHUNK_ROWS]
            chunk[:] = means[y[lo : lo + len(chunk)]]
            chunk += rng.normal(0.0, noise, size=chunk.shape)
            np.clip(chunk, 0.0, 1.0, out=chunk)
        return x, y

    train_x, train_y = draw(n_train)
    test_x, test_y = draw(n_test)
    return BaseData(train_x, train_y, test_x, test_y)


def make_permuted_stream(
    base: BaseData,
    T: int,
    seed: int,
    cv_split: int = 3,
    train_per_task: int | None = None,
    test_per_task: int | None = None,
) -> Continuum:
    """T tasks, each a fixed pixel permutation of the base images.

    Task 1 uses the identity permutation; descriptors are integer task ids.
    Optional per-task subsampling keeps runs desk-scale.  Every task's
    inputs are ``Rows`` over the shared base arrays, so the stream holds
    index arrays, not copies.  Deterministic in ``seed``.
    """
    dim = base.train_x.shape[1]
    label_set = tuple(range(base.num_classes))
    tasks = []
    for k in range(1, T + 1):
        rng = substream(seed, "permute", str(k))
        perm = np.arange(dim) if k == 1 else rng.permutation(dim)
        tr_idx = np.arange(len(base.train_y))
        te_idx = np.arange(len(base.test_y))
        if train_per_task is not None and train_per_task < len(tr_idx):
            tr_idx = rng.choice(len(tr_idx), size=train_per_task, replace=False)
        if test_per_task is not None and test_per_task < len(te_idx):
            te_idx = rng.choice(len(te_idx), size=test_per_task, replace=False)
        tasks.append(
            TaskDataset(
                task_id=k,
                train_x=Rows(base.train_x, tr_idx, perm),
                train_y=base.train_y[tr_idx].astype(np.int64),
                test_x=Rows(base.test_x, te_idx, perm),
                test_y=base.test_y[te_idx].astype(np.int64),
                descriptor=k,
                label_set=label_set,
                train_ids=k * 2**32 + tr_idx.astype(np.int64),
            )
        )
    return Continuum(tasks, cv_split)


def make_synthetic_split_stream(
    num_classes: int,
    classes_per_task: int,
    T: int,
    A: int = 32,
    with_replacement: bool = False,
    seed: int = 0,
    cv_split: int = 3,
    input_dim: int = 64,
    train_per_class: int = 100,
    test_per_class: int = 40,
    noise: float = 0.5,
) -> Continuum:
    """Attribute-described class-split stream (fine-grained benchmark stand-in).

    Every global class owns a fixed binary attribute vector, and class
    inputs are Gaussian around a mean that is a *linear* image of that
    vector, so attributes genuinely predict inputs.  Without replacement,
    the T tasks partition distinct classes; with replacement a class may
    recur across tasks, in which case its training pool is split into
    disjoint shards across occurrences so no training example is ever seen
    twice.  Each task's train and test inputs are allocated once and every
    row is drawn straight into its place, so building the stream holds
    each example once.
    """
    check_class_split(num_classes, classes_per_task, T, A, with_replacement, train_per_class)

    rng = substream(seed, "split-stream")
    # Globally distinct binary attribute rows so descriptors separate classes.
    for _ in range(ATTRIBUTE_DRAWS):
        attrs = rng.integers(0, 2, size=(num_classes, A)).astype(np.float64)
        if len({tuple(row) for row in attrs}) == num_classes:
            break
    else:
        raise ConfigurationError(
            f"no {num_classes} distinct rows of {A} attributes in {ATTRIBUTE_DRAWS} draws; "
            "raise attributes or lower num_classes"
        )
    attr_to_input = rng.normal(0.0, 1.0 / np.sqrt(A), size=(A, input_dim))
    class_means = attrs @ attr_to_input

    if with_replacement:
        task_classes = [
            np.sort(rng.choice(num_classes, size=classes_per_task, replace=False))
            for _ in range(T)
        ]
    else:
        order = rng.permutation(num_classes)[: T * classes_per_task]
        task_classes = [
            np.sort(order[i * classes_per_task : (i + 1) * classes_per_task])
            for i in range(T)
        ]

    # Each class's training pool of ``train_per_class`` rows is split into one
    # disjoint shard per task that uses the class, sized as np.array_split
    # sizes them and handed out in task order.  The shards are consecutive
    # draws from the class's own generator, so together they are the pool.
    uses = Counter(int(c) for cs in task_classes for c in cs)
    pools = {c: substream(seed, "class-pool", str(c)) for c in uses}
    handed = Counter()      # shards of each class's pool handed out so far

    def fill(rng, c, out):
        # class_means[c] + noise * z, each row written once in place
        rng.standard_normal(out=out)
        np.multiply(out, noise, out=out)
        np.add(class_means[c], out, out=out)

    tasks = []
    for k in range(1, T + 1):
        classes = [int(c) for c in task_classes[k - 1]]
        shards = []     # (class, first pool row, rows)
        for c in classes:
            each, extra = divmod(train_per_class, uses[c])
            j = handed[c]
            handed[c] += 1
            shards.append((c, j * each + min(j, extra), each + (j < extra)))
        train_x = np.empty((sum(n for _, _, n in shards), input_dim))
        train_y = np.empty(len(train_x), dtype=np.int64)
        train_ids = np.empty(len(train_x), dtype=np.int64)
        lo = 0
        for local, (c, start, n) in enumerate(shards):
            fill(pools[c], c, train_x[lo : lo + n])
            train_y[lo : lo + n] = local
            train_ids[lo : lo + n] = c * 2**20 + np.arange(start, start + n)
            lo += n
        trng = substream(seed, "task-test", str(k))
        test_x = np.empty((len(classes) * test_per_class, input_dim))
        for local, c in enumerate(classes):
            fill(trng, c, test_x[local * test_per_class : (local + 1) * test_per_class])
        test_y = np.repeat(np.arange(len(classes), dtype=np.int64), test_per_class)
        tasks.append(
            TaskDataset(
                task_id=k,
                train_x=train_x,
                train_y=train_y,
                test_x=test_x,
                test_y=test_y,
                descriptor=attrs[classes],
                label_set=tuple(classes),
                train_ids=train_ids,
            )
        )
    return Continuum(
        tasks, cv_split,
        attribute_matrix=attrs, attr_to_input=attr_to_input, class_means=class_means,
    )


def split_cv_ev(continuum: Continuum) -> tuple[list[TaskDataset], list[TaskDataset]]:
    """First T^CV tasks for hyper-parameter selection, the rest for evaluation."""
    cv = continuum.tasks[: continuum.cv_split]
    ev = continuum.tasks[continuum.cv_split :]
    return cv, ev


class Minibatches(Sequence):
    """One task's ordered mini-batches, each gathered when it is reached.

    ``batch_rows[i]`` holds the task rows of batch i.  Indexing by int
    returns a ``Batch``; slicing returns the sub-sequence, still lazy.
    """

    def __init__(self, dataset: TaskDataset, batch_rows: list[np.ndarray]):
        self.dataset = dataset
        self.batch_rows = batch_rows

    def __len__(self) -> int:
        return len(self.batch_rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Minibatches(self.dataset, self.batch_rows[i])
        return self.dataset.batch(self.batch_rows[i])

    def __iter__(self):
        # not Sequence's iterator: it ends at the first IndexError, so one
        # raised while gathering a batch would silently cut the pass short
        return (self[i] for i in range(len(self)))


def minibatches(dataset: TaskDataset, B: int, seed: int, epochs: int = 1) -> Minibatches:
    """Ordered mini-batches: one shuffled pass per epoch, short final batch kept.

    With epochs=1 every training example is yielded exactly once.  The
    shuffles are drawn here; each batch's rows are gathered on access.
    """
    if B < 1 or epochs < 1:
        raise ConfigurationError("need B >= 1 and epochs >= 1")
    n = len(dataset.train_y)
    batch_rows = []
    for epoch in range(epochs):
        order = substream(seed, "shuffle", str(dataset.task_id), str(epoch)).permutation(n)
        batch_rows += [order[start : start + B] for start in range(0, n, B)]
    return Minibatches(dataset, batch_rows)
