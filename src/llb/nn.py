"""Dense ReLU network with flat parameter storage and exact backprop.

All trainable parameters live in one float64 vector ``theta`` so that
gradient-space methods (projection, Fisher penalties, QP duals) can treat
the model as a single point in R^P.  Per-task output heads occupy disjoint
slices of the head region of ``theta``; in joint-embedding mode the head
region is replaced by an attribute lookup table (see ``llb.embedding``).
``Head`` is one task's classifier in either mode, and every loss,
gradient and prediction goes through it: ``head_loss_and_grad`` is the
one loss/gradient kernel and ``trunk_backward`` the one backward sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import itertools

import numpy as np

from .errors import ConfigurationError, MissingHeadError, NumericError
from .rng import substream

PER_TASK = "per-task"
JOINT_EMBEDDING = "joint-embedding"


@dataclass(frozen=True)
class Architecture:
    """Shape of the network; the parameter count P is a pure function of it.

    ``heads`` maps task id -> class count for per-task mode and must be
    empty in joint-embedding mode, where a single A x D attribute table
    replaces all heads (D is the last hidden width).
    """

    input_dim: int
    hidden: tuple[int, ...]
    heads: tuple[tuple[int, int], ...] = ()
    head_mode: str = PER_TASK
    attr_count: int = 0

    def __post_init__(self):
        if self.input_dim < 1 or any(h < 1 for h in self.hidden) or not self.hidden:
            raise ConfigurationError("all layer dimensions must be >= 1")
        if self.head_mode == PER_TASK:
            if not self.heads:
                raise ConfigurationError("per-task mode needs at least one head")
            if any(c < 1 for _, c in self.heads):
                raise ConfigurationError("head class counts must be >= 1")
            ids = [t for t, _ in self.heads]
            if len(set(ids)) != len(ids):
                raise ConfigurationError("duplicate task id in heads")
        elif self.head_mode == JOINT_EMBEDDING:
            if self.heads:
                raise ConfigurationError("joint-embedding mode takes no per-task heads")
            if self.attr_count < 1:
                raise ConfigurationError("joint-embedding mode needs attr_count >= 1")
        else:
            raise ConfigurationError(f"unknown head_mode {self.head_mode!r}")

    @property
    def trunk_dim(self) -> int:
        return self.hidden[-1]

    @property
    def param_count(self) -> int:
        return layout(self).size


@dataclass(frozen=True)
class _Layout:
    """Slice map of the flat parameter vector."""

    trunk: tuple[tuple[slice, slice, int, int], ...]  # (W slice, b slice, fan_in, fan_out)
    heads: dict[int, tuple[slice, slice, int]]        # task -> (W slice, b slice, C_k)
    head_region: slice
    table: slice | None                               # A x D block, joint-embedding mode
    size: int


@lru_cache(maxsize=None)
def layout(arch: Architecture) -> _Layout:
    pos = 0
    trunk = []
    dims = (arch.input_dim, *arch.hidden)
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = slice(pos, pos + fan_in * fan_out)
        pos = w.stop
        b = slice(pos, pos + fan_out)
        pos = b.stop
        trunk.append((w, b, fan_in, fan_out))
    head_start = pos
    heads: dict[int, tuple[slice, slice, int]] = {}
    table = None
    if arch.head_mode == PER_TASK:
        for task, classes in arch.heads:
            w = slice(pos, pos + arch.trunk_dim * classes)
            pos = w.stop
            b = slice(pos, pos + classes)
            pos = b.stop
            heads[task] = (w, b, classes)
    else:
        table = slice(pos, pos + arch.attr_count * arch.trunk_dim)
        pos = table.stop
    if pos > 2**31:
        raise ConfigurationError(f"parameter count {pos} too large")
    return _Layout(tuple(trunk), heads, slice(head_start, pos), table, pos)


@dataclass
class Model:
    """Architecture plus one flat float64 parameter vector."""

    arch: Architecture
    theta: np.ndarray

    def __post_init__(self):
        if self.theta.shape != (self.arch.param_count,):
            raise ConfigurationError(
                f"theta length {self.theta.shape} != P={self.arch.param_count}"
            )

    def head_slice(self, task: int) -> slice:
        w, b, _ = self._head(task)
        return slice(w.start, b.stop)

    def _head(self, task: int) -> tuple[slice, slice, int]:
        try:
            return layout(self.arch).heads[task]
        except KeyError:
            raise MissingHeadError(
                f"no output head registered for task {task!r}"
            ) from None

    def copy(self) -> "Model":
        return replace(self, theta=self.theta.copy())


@dataclass
class Batch:
    """Rows with their labels and task ids: the record every module passes.

    ``tasks`` is one task id for the whole batch or one id per row, as in
    ``head_loss_and_grad``.  ``ids`` optionally carries each row's global
    sample identity, for audits and the episodic memory.
    """

    x: np.ndarray
    y: np.ndarray
    tasks: int | np.ndarray
    ids: np.ndarray | None = None

    def __post_init__(self):
        if self.x.ndim != 2 or len(self.x) != len(self.y):
            raise ConfigurationError("batch inputs/labels shape mismatch")
        rows = (len(self.y),)
        if np.ndim(self.tasks) != 0 and np.shape(self.tasks) != rows:
            raise ConfigurationError("batch tasks need one id per row, or one for the batch")
        if self.ids is not None and np.shape(self.ids) != rows:
            raise ConfigurationError("batch ids need one id per row")

    def __len__(self) -> int:
        return len(self.y)


def init_model(arch: Architecture, seed: int) -> Model:
    """He-scaled normal weights (std = sqrt(2 / fan_in)), zero biases.

    The attribute table, when present, uses std = 1 / sqrt(A).
    Deterministic for a fixed seed.
    """
    lay = layout(arch)
    rng = substream(seed, "init")
    theta = np.zeros(lay.size)
    for w, b, fan_in, fan_out in lay.trunk:
        theta[w] = rng.normal(0.0, np.sqrt(2.0 / fan_in), fan_in * fan_out)
    for w, b, classes in lay.heads.values():
        theta[w] = rng.normal(0.0, np.sqrt(2.0 / arch.trunk_dim), arch.trunk_dim * classes)
    if lay.table is not None:
        n = lay.table.stop - lay.table.start
        theta[lay.table] = rng.normal(0.0, 1.0 / np.sqrt(arch.attr_count), n)
    return Model(arch, theta)


def trunk_forward(model: Model, inputs: np.ndarray):
    """Hidden activations for each trunk layer; returns (pre_list, post_list).

    post_list[-1] is the trunk output (the feature embedding in
    joint-embedding mode).
    """
    lay = layout(model.arch)
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.arch.input_dim:
        raise ConfigurationError(
            f"inputs must be (n, {model.arch.input_dim}), got {x.shape}"
        )
    pres, posts = [], [x]
    for idx, (w, b, fan_in, fan_out) in enumerate(lay.trunk):
        W = model.theta[w].reshape(fan_in, fan_out)
        pre = posts[-1] @ W
        pre += model.theta[b]
        if not np.all(np.isfinite(pre)):
            raise NumericError(f"non-finite activation in trunk layer {idx}")
        pres.append(pre)
        posts.append(np.maximum(pre, 0.0))
    return pres, posts


class Head:
    """One task's classifier over the trunk output h: logits = h @ E.T (+ bias).

    E is the task's C x D class matrix.  With per-task heads it is a view
    of the task's head weights (transposed) and the task's bias follows;
    with the attribute table it is descriptor (C x A) @ table (A x D) and
    there is no bias.  This is the one place that tells the two apart.
    """

    def __init__(self, model: Model, task: int, descriptor=None):
        arch = model.arch
        lay = layout(arch)
        self.task = task
        if lay.table is None:
            w, b, classes = model._head(task)
            self.params = (w, b)
            self.E = model.theta[w].reshape(arch.trunk_dim, classes).T
            self.bias = model.theta[b]
            self.descriptor = None
        else:
            try:
                desc = np.asarray(descriptor, dtype=np.float64)
            except (TypeError, ValueError):     # ragged or non-numeric
                desc = np.empty(0)
            if desc.ndim != 2 or desc.shape[1] != arch.attr_count:
                raise ConfigurationError(
                    f"descriptor of task {task} must be (C_k, {arch.attr_count}), got {desc.shape}"
                )
            self.params = (lay.table,)
            self.E = desc @ model.theta[lay.table].reshape(arch.attr_count, arch.trunk_dim)
            self.bias = None
            self.descriptor = desc

    @property
    def classes(self) -> int:
        return len(self.E)

    def check_labels(self, labels: np.ndarray) -> None:
        if np.any(labels < 0) or np.any(labels >= self.classes):
            raise ConfigurationError(f"labels out of range for task {self.task}")

    def logits(self, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.matmul(h, self.E.T, out=out)
        if self.bias is not None:
            out += self.bias
        return out

    def input_grad(self, dlogits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """d(loss)/d(h) from d(loss)/d(logits)."""
        return np.matmul(dlogits, self.E, out=out)

    def add_grad(self, h: np.ndarray, dlogits: np.ndarray, grad: np.ndarray) -> None:
        """Add d(loss)/d(this head's parameters) into ``grad`` (theta-shaped or a row of G)."""
        if self.descriptor is None:
            w, b = self.params
            grad[w] += (h.T @ dlogits).ravel()
            grad[b] += dlogits.sum(axis=0)
        else:
            # rows of attributes absent from every class of the task get exactly zero
            (table,) = self.params
            grad[table] += (self.descriptor.T @ (dlogits.T @ h)).ravel()

    def add_squared_grad(self, h: np.ndarray, dlogits: np.ndarray, out: np.ndarray) -> None:
        """Add the sum over rows of each row's squared parameter gradient.

        ``dlogits`` holds per-example gradients; (h_i d_j)^2 = h_i^2 d_j^2
        for each weight, so no per-example loop is needed.
        """
        if self.descriptor is None:
            w, b = self.params
            out[w] += ((h**2).T @ (dlogits**2)).ravel()
            out[b] += (dlogits**2).sum(axis=0)
        else:
            (table,) = self.params
            u = dlogits @ self.descriptor   # (n, A): per-example attribute-space errors
            out[table] += ((u**2).T @ (h**2)).ravel()


def check_logits(logits: np.ndarray, task) -> np.ndarray:
    if not np.isfinite(logits).all():
        raise NumericError(f"non-finite logits for task {task}")
    return logits


def _softmax_rows(logits: np.ndarray, labels: np.ndarray):
    """Per row, the label's log-probability and softmax minus the one-hot label.

    Max-subtracted for stability.
    """
    pick = (np.arange(len(labels)), labels)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    logp = shifted[pick] - np.log(total[:, 0])
    d = np.divide(exp, total, out=exp)
    d[pick] -= 1.0
    return logp, d


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean CE loss and d(loss)/d(logits); max-subtracted for stability."""
    n = len(labels)
    logp, dlogits = _softmax_rows(logits, labels)
    dlogits /= n
    # ndarray.mean's own operations
    return -(np.add.reduce(logp) / n), dlogits


def trunk_backward(model: Model, pres, posts, d_hidden: np.ndarray):
    """Yield (W slice, b slice, layer input, d(loss)/d(pre-activation)) per
    trunk layer, top layer first, given d(loss)/d(trunk output).

    A layer's weight gradient is its input's transpose times the delta:
    summed over all rows for the mean gradient, over each task's rows for
    GEM's constraint rows, and squared for the Fisher.
    """
    lay = layout(model.arch)
    d = d_hidden
    for idx in range(len(lay.trunk) - 1, -1, -1):
        w, b, fan_in, fan_out = lay.trunk[idx]
        d_pre = d * (pres[idx] > 0.0)
        yield w, b, posts[idx], d_pre
        if idx > 0:
            d = d_pre @ model.theta[w].reshape(fan_in, fan_out).T


def _backprop_trunk(
    model: Model, pres, posts, d_hidden: np.ndarray, grad: np.ndarray, factors: list | None = None
) -> None:
    """Write the trunk gradients into ``grad`` given d(loss)/d(trunk output).

    Each layer's slices are written once, straight from the matmul and the
    row sum, so the trunk region needs no zeroing and no temporary.  With
    a ``factors`` list, the weight slices are left unwritten and each
    layer's (W slice, input, delta) is appended to it instead, for
    ``finish_trunk_weights``.
    """
    layers = [] if factors is None else factors
    for w, b, x, d_pre in trunk_backward(model, pres, posts, d_hidden):
        np.add.reduce(d_pre, axis=0, out=grad[b])
        layers.append((w, x, d_pre))
    if factors is None:
        finish_trunk_weights(grad, layers)


def finish_trunk_weights(grad: np.ndarray, factors) -> None:
    """Write each trunk layer's weight gradient, input.T @ delta, into ``grad``
    from the (W slice, input, delta) factors ``head_loss_and_grad`` handed back."""
    for w, x, d_pre in factors:
        np.matmul(x.T, d_pre, out=grad[w].reshape(x.shape[1], d_pre.shape[1]))


def _gradient_buffer(model: Model, out: np.ndarray | None) -> np.ndarray:
    """``out`` with its head region zeroed, or a new zero vector without one.

    The trunk region is left as it is: ``_backprop_trunk`` overwrites all of it.
    """
    if out is None:
        return np.zeros_like(model.theta)
    if out.shape != model.theta.shape:
        raise ConfigurationError("gradient buffer length differs from theta")
    out[layout(model.arch).head_region] = 0.0
    return out


def head_loss_and_grad(
    model: Model, inputs: np.ndarray, labels: np.ndarray, tasks, descriptors: dict | None = None,
    out: np.ndarray | None = None, factors: list | None = None,
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its exact gradient over all of theta.

    Row i is scored by the head of task ``tasks[i]``; ``descriptors``
    maps task id to descriptor for attribute-table models.  ``tasks`` may
    be one id for the whole batch, which skips all grouping.  The loss is
    a mean over rows, so each task weighs by its share of the batch, and
    heads of tasks absent from the batch receive exactly zero gradient.
    Labels outside a task's classes raise ``ConfigurationError``.
    The gradient is written into ``out`` (theta-shaped, its old contents
    ignored) and returned; without ``out`` a new vector is allocated.

    Given a ``factors`` list, the trunk weight blocks of the gradient are
    left unwritten: each trunk layer's (W slice, input, delta) is appended
    to the list, top layer first, and ``finish_trunk_weights(grad,
    factors)`` writes the blocks later with the very matmul that would
    have written them here, so their bits are the same.
    """
    if len(labels) == 0:
        raise ConfigurationError("empty batch")
    descriptors = descriptors or {}
    if np.ndim(tasks) != 0:
        return _grouped_loss_and_grad(model, inputs, labels, tasks, descriptors, out, factors)
    head = Head(model, tasks, descriptors.get(tasks))
    head.check_labels(labels)
    pres, posts = trunk_forward(model, inputs)
    logits = check_logits(head.logits(posts[-1]), tasks)
    loss, dlogits = softmax_cross_entropy(logits, labels)
    grad = _gradient_buffer(model, out)
    head.add_grad(posts[-1], dlogits, grad)
    _backprop_trunk(model, pres, posts, head.input_grad(dlogits), grad, factors)
    return float(loss), grad


def _grouped_loss_and_grad(model, inputs, labels, tasks, descriptors, out, factors):
    """``head_loss_and_grad`` over a batch spanning several tasks.

    Equal, bit for bit, to a loop over the batch's tasks in ascending id
    that scores each task's rows with that task's head and weights the
    task's mean loss and gradient by its share n_t / n of the batch.
    The trunk forward and backward run once, over the rows in the batch's
    own order: trunk weight gradients are sums over rows, so reordering the
    rows would change their round-off.  For the head, the rows are sorted
    once (stable) by task id, so each task owns one contiguous range.
    Softmax, cross-entropy and the loop's scaling (divide by n_t, then
    multiply by n_t / n) are row-wise and run once per run of consecutive
    tasks that share a class count (one run for any ``build_stream``
    stream).  Per task run only the matmuls whose shapes depend on the task
    (logits, the head gradient, d(loss)/d(trunk output)) and the task's
    mean loss (numpy's pairwise sum; the exact batched form, a zero-seeded
    ``np.add.reduceat``, measured slower).  Losses and head gradients are
    added in ascending task id, as the loop adds them (the attribute table
    is shared).
    """
    n = len(labels)
    pres, posts = trunk_forward(model, inputs)
    order = np.argsort(tasks, kind="stable")
    row_tasks = tasks[order]
    firsts = np.flatnonzero(np.concatenate(([True], row_tasks[1:] != row_tasks[:-1])))
    heads = [Head(model, t, descriptors.get(t)) for t in row_tasks[firsts].tolist()]
    bounds = [*firsts.tolist(), n]
    counts = np.diff(bounds)
    y = labels[order]
    bad = (y < 0) | (y >= np.repeat([head.classes for head in heads], counts))
    if bad.any():
        raise ConfigurationError(f"labels out of range for task {row_tasks[bad.argmax()]}")
    n_t = np.repeat(counts, counts)[:, None]
    h = posts[-1][order]
    grad = _gradient_buffer(model, out)
    total = 0.0
    spans = zip(heads, bounds, bounds[1:])
    for C, block in itertools.groupby(spans, key=lambda span: span[0].classes):
        block = list(block)
        lo, hi = block[0][1], block[-1][2]
        logits = np.empty((hi - lo, C))
        for head, a, b in block:
            head.logits(h[a:b], out=logits[a - lo : b - lo])
        finite = np.isfinite(logits).all(axis=1)
        if not finite.all():
            raise NumericError(f"non-finite logits for task {row_tasks[lo + finite.argmin()]}")
        logp, dl = _softmax_rows(logits, y[lo:hi])
        dl /= n_t[lo:hi]
        dl *= n_t[lo:hi] / n
        for head, a, b in block:
            rows = slice(a - lo, b - lo)
            # ndarray.mean's own operations, so each task's loss keeps its bits
            total += ((b - a) / n) * -(np.add.reduce(logp[rows]) / (b - a))
            head.add_grad(h[a:b], dl[rows], grad)
            # h[a:b] is not read again: it now receives d(loss)/d(h) for these rows
            head.input_grad(dl[rows], out=h[a:b])
    # back to the batch's row order, in the trunk output's own buffer: the
    # backward pass reads the inputs of the trunk layers, never this output
    d_hidden = posts[-1]
    d_hidden[order] = h
    _backprop_trunk(model, pres, posts, d_hidden, grad, factors)
    return total, grad


def predict(model: Model, inputs: np.ndarray, task: int) -> np.ndarray:
    head = Head(model, task)
    _, posts = trunk_forward(model, inputs)
    return head.logits(posts[-1]).argmax(axis=1)


def loss_and_grad(
    model: Model, batch: Batch, out: np.ndarray | None = None, factors: list | None = None
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its exact gradient over all of theta.

    Heads of tasks absent from ``batch.tasks`` receive exactly zero gradient.
    The gradient goes into ``out`` when given, and a ``factors`` list
    defers its trunk weight blocks (see ``head_loss_and_grad``).
    """
    return head_loss_and_grad(model, batch.x, batch.y, batch.tasks, out=out, factors=factors)


BLOCK = 16384   # elements per block of the in-place vector updates (128 kB of scratch)


def apply_update(model: Model, grad: np.ndarray, lr: float) -> None:
    """theta <- theta - lr * grad, in place: a caller that needs the old theta
    copies the model first.

    Every check runs before anything is written, so a rejected update
    leaves theta as it was.  Each element is rounded twice, as in the
    expression: lr * grad, then the subtraction (a fused multiply-add
    would change the bits).  The scaled step is formed block by block in a
    small scratch, so no P-sized temporary is made.
    """
    if grad.shape != model.theta.shape:
        raise ConfigurationError("gradient length differs from theta")
    if not np.isfinite(grad).all():
        raise NumericError("non-finite (NaN or inf) value in gradient")
    if not 0.0 < lr < np.inf:      # also rejects a NaN
        raise ConfigurationError("learning rate must be positive and finite")
    theta = model.theta
    scratch = np.empty(min(BLOCK, theta.size))
    for lo in range(0, theta.size, BLOCK):
        blk = slice(lo, lo + BLOCK)
        step = np.multiply(grad[blk], lr, out=scratch[: min(BLOCK, theta.size - lo)])
        np.subtract(theta[blk], step, out=theta[blk])


def mlp(input_dim: int, hidden, class_counts, task_ids=None) -> Architecture:
    """Convenience constructor for a per-task-head architecture."""
    counts = list(class_counts)
    ids = list(task_ids) if task_ids is not None else list(range(1, len(counts) + 1))
    if len(ids) != len(counts):
        raise ConfigurationError("task_ids and class_counts length mismatch")
    return Architecture(input_dim, tuple(hidden), tuple(zip(ids, counts)))
