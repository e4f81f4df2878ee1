"""Dense ReLU network with flat parameter storage and exact backprop.

All trainable parameters live in one float64 vector ``theta`` so that
gradient-space methods (projection, Fisher penalties, QP duals) can treat
the model as a single point in R^P.  Per-task output heads occupy disjoint
slices of the head region of ``theta``; in joint-embedding mode the head
region is replaced by an attribute lookup table (see ``llb.embedding``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

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
    replaces all heads (D defaults to the last hidden width).
    """

    input_dim: int
    hidden: tuple[int, ...]
    heads: tuple[tuple[int, int], ...] = ()
    head_mode: str = PER_TASK
    attr_count: int = 0
    embed_dim: int | None = None
    activation: str = "relu"

    def __post_init__(self):
        if self.input_dim < 1 or any(h < 1 for h in self.hidden) or not self.hidden:
            raise ConfigurationError("all layer dimensions must be >= 1")
        if self.activation != "relu":
            raise ConfigurationError(f"unsupported activation {self.activation!r}")
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
    def table_dim(self) -> int:
        return self.embed_dim if self.embed_dim is not None else self.trunk_dim

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
        table = slice(pos, pos + arch.attr_count * arch.table_dim)
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
    """A mini-batch of one task: inputs, within-task labels, task id.

    ``ids`` optionally carries global sample identities for audits.
    """

    inputs: np.ndarray
    labels: np.ndarray
    task: int
    ids: np.ndarray | None = None

    def __post_init__(self):
        if self.inputs.ndim != 2 or len(self.inputs) != len(self.labels):
            raise ConfigurationError("batch inputs/labels shape mismatch")

    def __len__(self) -> int:
        return len(self.labels)


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
        pre = posts[-1] @ W + model.theta[b]
        if not np.all(np.isfinite(pre)):
            raise NumericError(f"non-finite activation in trunk layer {idx}")
        pres.append(pre)
        posts.append(np.maximum(pre, 0.0))
    return pres, posts


def head_logits(model: Model, hidden: np.ndarray, task: int) -> np.ndarray:
    w, b, classes = model._head(task)
    W = model.theta[w].reshape(model.arch.trunk_dim, classes)
    return hidden @ W + model.theta[b]


def forward(model: Model, batch: Batch) -> np.ndarray:
    """Logits (batch x C_task) for a per-task-head model."""
    _, posts = trunk_forward(model, batch.inputs)
    logits = head_logits(model, posts[-1], batch.task)
    if not np.all(np.isfinite(logits)):
        raise NumericError(f"non-finite logits for task {batch.task}")
    return logits


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean CE loss and d(loss)/d(logits); max-subtracted for stability."""
    n = len(labels)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    logp = shifted - np.log(exp.sum(axis=1, keepdims=True))
    loss = -logp[np.arange(n), labels].mean()
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits


def _backprop_trunk(model: Model, pres, posts, d_hidden: np.ndarray, grad: np.ndarray) -> None:
    """Accumulate trunk gradients into ``grad`` given d(loss)/d(trunk output)."""
    lay = layout(model.arch)
    d = d_hidden
    for idx in range(len(lay.trunk) - 1, -1, -1):
        w, b, fan_in, fan_out = lay.trunk[idx]
        d_pre = d * (pres[idx] > 0.0)
        grad[w] += (posts[idx].T @ d_pre).ravel()
        grad[b] += d_pre.sum(axis=0)
        if idx > 0:
            W = model.theta[w].reshape(fan_in, fan_out)
            d = d_pre @ W.T


def loss_and_grad(model: Model, batch: Batch) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its exact gradient over all of theta.

    Heads of tasks other than ``batch.task`` receive exactly zero gradient.
    """
    if len(batch) == 0:
        raise ConfigurationError("empty batch")
    w, b, classes = model._head(batch.task)
    if np.any(batch.labels < 0) or np.any(batch.labels >= classes):
        raise ConfigurationError(f"labels out of range for task {batch.task}")
    pres, posts = trunk_forward(model, batch.inputs)
    W_head = model.theta[w].reshape(model.arch.trunk_dim, classes)
    logits = posts[-1] @ W_head + model.theta[b]
    if not np.all(np.isfinite(logits)):
        raise NumericError(f"non-finite logits for task {batch.task}")
    loss, dlogits = softmax_cross_entropy(logits, batch.labels)
    grad = np.zeros_like(model.theta)
    grad[w] = (posts[-1].T @ dlogits).ravel()
    grad[b] = dlogits.sum(axis=0)
    _backprop_trunk(model, pres, posts, dlogits @ W_head.T, grad)
    return float(loss), grad


def apply_update(model: Model, grad: np.ndarray, lr: float) -> Model:
    """theta' = theta - lr * grad (returns a new Model)."""
    if grad.shape != model.theta.shape:
        raise ConfigurationError("gradient length differs from theta")
    if not np.isfinite(grad).all():
        raise NumericError("non-finite (NaN or inf) value in gradient")
    if lr <= 0:
        raise ConfigurationError("learning rate must be positive")
    return Model(model.arch, model.theta - lr * grad)


def predict(model: Model, inputs: np.ndarray, task: int) -> np.ndarray:
    _, posts = trunk_forward(model, inputs)
    return head_logits(model, posts[-1], task).argmax(axis=1)


def accuracy(model: Model, inputs: np.ndarray, labels: np.ndarray, task: int) -> float:
    if len(labels) == 0:
        raise ConfigurationError("empty evaluation set")
    return float(np.mean(predict(model, inputs, task) == labels))


def mlp(input_dim: int, hidden, class_counts, task_ids=None, **kw) -> Architecture:
    """Convenience constructor for a per-task-head architecture."""
    counts = list(class_counts)
    ids = list(task_ids) if task_ids is not None else list(range(1, len(counts) + 1))
    if len(ids) != len(counts):
        raise ConfigurationError("task_ids and class_counts length mismatch")
    return Architecture(input_dim, tuple(hidden), tuple(zip(ids, counts)), **kw)
