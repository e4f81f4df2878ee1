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
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, IdxFormatError
from .nn import Batch
from .rng import substream

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
SYNTHETIC_CHUNK_ROWS = 1024


class Rows:
    """Rows of a shared 2-D base array under a column permutation.

    Row i is ``base[rows[i], perm]``.  Nothing is copied at construction:
    every read gathers exactly the rows it asks for, as
    ``base[rows[key]].take(perm, axis=-1)``; on a 2-core Xeon with numpy
    2.4 that is two to three times faster than one ``np.ix_`` fancy index
    for 10 to 1000 rows of 784.  ``rows`` defaults to every base row in
    order and ``perm`` to the identity (no column gather).  Supports
    ``len``, ``.shape``, int, slice, index-array and ``(row, column)``
    indexing, iteration over rows and ``np.asarray``.
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
        if isinstance(key, tuple):
            head, *rest = key
            out = self[head]
            return out[tuple(rest)] if out.ndim == 1 else out[(slice(None), *rest)]
        out = self.base[self.rows[key]]
        return out if self.perm is None else out.take(self.perm, axis=-1)

    def __iter__(self):
        for lo in range(0, len(self), 1024):
            yield from self[lo : lo + 1024]

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("gathering rows always copies")
        out = self[:]
        return out if dtype is None else out.astype(dtype, copy=False)


@dataclass
class TaskDataset:
    """One task's data: train/test splits, descriptor, global label set.

    Plain input arrays are wrapped as ``Rows`` over themselves.
    """

    task_id: int
    train_x: Rows
    train_y: np.ndarray
    test_x: Rows
    test_y: np.ndarray
    descriptor: object            # int task id or (C_k x A) attribute matrix
    label_set: tuple[int, ...]    # global class id for each within-task label
    train_ids: np.ndarray = field(default=None)
    test_ids: np.ndarray = field(default=None)

    def __post_init__(self):
        if not isinstance(self.train_x, Rows):
            self.train_x = Rows(self.train_x)
        if not isinstance(self.test_x, Rows):
            self.test_x = Rows(self.test_x)
        if self.train_ids is None:
            self.train_ids = np.arange(len(self.train_y), dtype=np.int64)
        if self.test_ids is None:
            self.test_ids = -1 - np.arange(len(self.test_y), dtype=np.int64)
        for y in (self.train_y, self.test_y):
            if len(y) and (y.min() < 0 or y.max() >= len(self.label_set)):
                raise ConfigurationError("labels must index into label_set")

    @property
    def num_classes(self) -> int:
        return len(self.label_set)


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
        if not (1 <= self.cv_split < len(self.tasks)):
            raise ConfigurationError(
                f"cv_split must satisfy 1 <= {self.cv_split} < T={len(self.tasks)}"
            )

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
    class_std: float = 0.2,
    active_frac: float = 0.4,
    ink: float = 0.75,
    background: float = 0.05,
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
    profile = np.full(dim, background)
    profile[rng.choice(dim, size=int(active_frac * dim), replace=False)] = ink
    deltas = rng.normal(0.0, class_std, size=(10, dim)) * (profile > background)
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
    if T < 2:
        raise ConfigurationError("a continuum needs T >= 2 tasks")
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
                test_ids=-(k * 2**32 + te_idx.astype(np.int64) + 1),
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
    twice.
    """
    if T < 2 or classes_per_task < 1:
        raise ConfigurationError("need T >= 2 and classes_per_task >= 1")
    if not with_replacement and T * classes_per_task > num_classes:
        raise ConfigurationError(
            f"{T} x {classes_per_task} classes without replacement exceeds {num_classes}"
        )
    if classes_per_task > num_classes:
        raise ConfigurationError("classes_per_task exceeds num_classes")

    rng = substream(seed, "split-stream")
    # Globally distinct binary attribute rows so descriptors separate classes.
    attrs = rng.integers(0, 2, size=(num_classes, A)).astype(np.float64)
    seen = {tuple(row) for row in attrs}
    while len(seen) < num_classes:
        attrs = rng.integers(0, 2, size=(num_classes, A)).astype(np.float64)
        seen = {tuple(row) for row in attrs}
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

    occurrences: dict[int, int] = {}
    for cs in task_classes:
        for c in cs:
            occurrences[int(c)] = occurrences.get(int(c), 0) + 1

    # Per-class training pools are generated once so recurring tasks share
    # (and shard) the same pool.
    pools: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    next_shard: dict[int, int] = {}
    for c in occurrences:
        crng = substream(seed, "class-pool", str(c))
        x = class_means[c] + noise * crng.normal(size=(train_per_class, input_dim))
        ids = c * 2**20 + np.arange(train_per_class, dtype=np.int64)
        pools[c] = (x, ids)
        next_shard[c] = 0

    tasks = []
    for k in range(1, T + 1):
        classes = [int(c) for c in task_classes[k - 1]]
        xs, ys, ids = [], [], []
        for local, c in enumerate(classes):
            pool_x, pool_ids = pools[c]
            shards = np.array_split(np.arange(train_per_class), occurrences[c])
            shard = shards[next_shard[c]]
            next_shard[c] += 1
            xs.append(pool_x[shard])
            ys.append(np.full(len(shard), local, dtype=np.int64))
            ids.append(pool_ids[shard])
        trng = substream(seed, "task-test", str(k))
        test_x = np.concatenate(
            [
                class_means[c] + noise * trng.normal(size=(test_per_class, input_dim))
                for c in classes
            ]
        )
        test_y = np.repeat(np.arange(len(classes), dtype=np.int64), test_per_class)
        tasks.append(
            TaskDataset(
                task_id=k,
                train_x=np.concatenate(xs),
                train_y=np.concatenate(ys),
                test_x=test_x,
                test_y=test_y,
                descriptor=attrs[classes],
                label_set=tuple(classes),
                train_ids=np.concatenate(ids),
                test_ids=-(k * 2**20 + np.arange(len(test_y), dtype=np.int64) + 1),
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
        idx = self.batch_rows[i]
        d = self.dataset
        return Batch(d.train_x[idx], d.train_y[idx], task=d.task_id, ids=d.train_ids[idx])


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
