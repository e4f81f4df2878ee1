"""The learner family: plain SGD, Fisher-penalty regularization (EWC),
multi-constraint gradient projection (GEM), its averaged single-constraint
variant (A-GEM), the stochastic one-constraint variant (S-GEM), and the
shuffled multi-task upper bound.

Each learner exposes a uniform single-step interface plus a task-boundary
hook; the math lives in free functions operating on ``LearnerState`` so
the update rules can be tested in isolation.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import nn
from .embedding import je_loss_and_grad
from .errors import ConfigurationError
from .memory import EpisodicMemory, MixedBatch, sample_ref_batch, update_eps_mem
from .nn import Batch, Model, apply_update, loss_and_grad
from .qp import DualProblem, drop_zero_rows, reconstruct, solve_nonneg_qp
from .rng import spawn_seed, substream
from .streams import TaskDataset

log = logging.getLogger(__name__)

DEGENERATE_REF_EPS = 1e-12


@dataclass
class EwcAnchor:
    """Every consolidated task's quadratic penalty, merged into one.

    After tasks k = 1..K with snapshots theta*_k, Fisher diagonals F_k and
    strengths lam_k,

        sum_k lam_k F_k (theta - theta*_k)^2 = fisher (theta - theta_star)^2 + offset

    (summed over parameters), where ``fisher`` = sum_k lam_k F_k,
    ``theta_star`` is the ``fisher``-weighted mean of the theta*_k (any
    value where ``fisher`` is 0) and ``offset`` is the constant left over.
    The penalty gradient therefore costs the same at any task count.
    """

    theta_star: np.ndarray
    fisher: np.ndarray     # nonnegative, per-parameter, strengths folded in
    offset: float = 0.0


@dataclass
class LearnerState:
    model: Model
    memory: EpisodicMemory | None = None
    ewc_anchors: list[EwcAnchor] = field(default_factory=list)  # empty or one merged anchor
    violation_count: int = 0
    step_seconds: float = 0.0
    step_count: int = 0
    descriptors: dict = field(default_factory=dict)


def batch_loss_and_grad(model: Model, batch: Batch, descriptors: dict):
    """Loss/grad with head routing: per-task heads or the shared attribute table."""
    if model.arch.head_mode == nn.PER_TASK:
        return loss_and_grad(model, batch)
    return je_loss_and_grad(model, batch, descriptors[batch.task])


def mixed_loss_and_grad(model: Model, mixed: MixedBatch, descriptors: dict):
    """Mean loss/grad over a batch spanning several tasks (per-example mean).

    Equal, bit for bit, to a loop over the batch's tasks in ascending id
    that weights each task's mean loss and gradient by its share of the
    batch (see ``nn.head_loss_and_grad``).
    """
    return nn.head_loss_and_grad(model, mixed.x, mixed.y, mixed.tasks, descriptors)


# ---------------------------------------------------------------------------
# update rules


def vanilla_step(state: LearnerState, batch: Batch, lr: float) -> LearnerState:
    """One unconstrained SGD step."""
    _, grad = batch_loss_and_grad(state.model, batch, state.descriptors)
    state.model = apply_update(state.model, grad, lr)
    return state


class Projection(NamedTuple):
    g_tilde: np.ndarray
    violated: bool
    degenerate: bool = False


def agem_project(g: np.ndarray, g_ref: np.ndarray) -> Projection:
    """Project g onto the half-space of non-negative inner product with g_ref.

    Pass-through when the constraint already holds; otherwise the closest
    vector (in L2) with <g~, g_ref> = 0, i.e.

        g~ = g - (g . g_ref / g_ref . g_ref) g_ref.

    A reference with squared norm below 1e-12 is flagged degenerate and
    leaves g unchanged.
    """
    if g.shape != g_ref.shape:
        raise ConfigurationError("gradient and reference length mismatch")
    ref_sq = float(g_ref @ g_ref)
    if ref_sq <= DEGENERATE_REF_EPS:
        return Projection(g, False, degenerate=True)
    dot = float(g @ g_ref)
    if dot >= 0.0:
        return Projection(g, False)
    return Projection(g - (dot / ref_sq) * g_ref, True)


def agem_step(
    state: LearnerState,
    batch: Batch,
    lr: float,
    ref_size: int,
    rng: np.random.Generator,
) -> LearnerState:
    """Gradient step constrained by the average memory gradient.

    Empty memory falls back to a plain step.
    """
    _, g = batch_loss_and_grad(state.model, batch, state.descriptors)
    ref = sample_ref_batch(state.memory, ref_size, rng) if state.memory else None
    if ref is None:
        state.model = apply_update(state.model, g, lr)
        return state
    _, g_ref = mixed_loss_and_grad(state.model, ref, state.descriptors)
    proj = agem_project(g, g_ref)
    if proj.violated:
        state.violation_count += 1
    state.model = apply_update(state.model, proj.g_tilde, lr)
    return state


def _memory_gradient_rows(state: LearnerState) -> np.ndarray:
    """GEM's constraint matrix: one loss-gradient row per stored task.

    All rows come from one grouped pass over the memory's stacked store,
    where task k owns a contiguous range of rows (ascending task order); a
    single trunk forward covers them all, each task's head adds its
    gradient straight into row k of one zero matrix, and the backward
    sweep propagates every row's delta with one matmul per layer while
    each task's weight and bias gradients land in its own row.
    Row k equals ``batch_loss_and_grad`` over task k's full buffer.
    All-zero rows are dropped.
    """
    model = state.model
    mem = state.memory
    buffers = list(mem.per_task.items())
    if not buffers:
        return np.zeros((0, len(model.theta)))
    segments = [slice(lo, hi) for lo, hi in zip(mem.bounds[:-1], mem.bounds[1:])]
    pres, posts = nn.trunk_forward(model, mem.x)
    phi = posts[-1]
    G = np.zeros((len(buffers), len(model.theta)))
    d = np.empty_like(phi)
    for k, ((task, buf), rows) in enumerate(zip(buffers, segments)):
        head = nn.Head(model, task, state.descriptors.get(task))
        head.check_labels(buf.y)
        logits = nn.check_logits(head.logits(phi[rows]), task)
        _, dlogits = nn.softmax_cross_entropy(logits, buf.y)
        head.add_grad(phi[rows], dlogits, G[k])
        head.input_grad(dlogits, out=d[rows])
    for w, b, x, d_pre in nn.trunk_backward(model, pres, posts, d):
        for k, rows in enumerate(segments):
            # written straight into G: no per-task temporary of the layer's size
            np.matmul(x[rows].T, d_pre[rows], out=G[k, w].reshape(x.shape[1], d_pre.shape[1]))
            G[k, b] = d_pre[rows].sum(axis=0)
    return drop_zero_rows(G)


def gem_step(state: LearnerState, batch: Batch, lr: float) -> LearnerState:
    """Gradient step constrained per stored task, via the dual QP.

    The constraint matrix G is recomputed from the full buffers at every
    step, in one grouped pass (``_memory_gradient_rows``).  G g is formed
    once: it decides whether any constraint is violated and is the dual's
    linear term.  With no stored tasks (or all-zero memory gradients) this
    is a plain step.  The dual is solved exactly; a dual that does not
    settle raises NumericError from ``solve_nonneg_qp``.
    """
    _, g = batch_loss_and_grad(state.model, batch, state.descriptors)
    G = _memory_gradient_rows(state) if state.memory else np.zeros((0, len(g)))
    Gg = G @ g
    if np.all(Gg >= 0.0):
        state.model = apply_update(state.model, g, lr)
        return state
    state.violation_count += 1
    sol = solve_nonneg_qp(DualProblem.from_gradients(G, g, linear=Gg))
    state.model = apply_update(state.model, reconstruct(g, G, sol.v), lr)
    return state


def sgem_step(
    state: LearnerState,
    batch: Batch,
    lr: float,
    rng: np.random.Generator,
) -> LearnerState:
    """Gradient step constrained by one uniformly sampled stored task."""
    _, g = batch_loss_and_grad(state.model, batch, state.descriptors)
    stored = sorted(state.memory.per_task) if state.memory else []
    if not stored:
        state.model = apply_update(state.model, g, lr)
        return state
    task = stored[int(rng.integers(0, len(stored)))]
    buf = state.memory.per_task[task]
    _, g_k = batch_loss_and_grad(state.model, Batch(buf.x, buf.y, task), state.descriptors)
    proj = agem_project(g, g_k)
    if proj.violated:
        state.violation_count += 1
    state.model = apply_update(state.model, proj.g_tilde, lr)
    return state


# ---------------------------------------------------------------------------
# EWC


def per_example_squared_grads(model: Model, batch: Batch, descriptors: dict) -> np.ndarray:
    """Sum over examples of the squared per-example loss gradient.

    Uses the factorization (h_i d_j)^2 = h_i^2 d_j^2 for dense layers, so
    no per-example loop is needed; agrees with looping up to round-off.
    """
    head = nn.Head(model, batch.task, descriptors.get(batch.task))
    head.check_labels(batch.labels)
    pres, posts = nn.trunk_forward(model, batch.inputs)
    _, dlogits = nn.softmax_cross_entropy(head.logits(posts[-1]), batch.labels)
    dlogits = dlogits * len(batch)  # per-example gradients, not the batch mean
    out = np.zeros_like(model.theta)
    head.add_squared_grad(posts[-1], dlogits, out)
    for w, b, x, d_pre in nn.trunk_backward(model, pres, posts, head.input_grad(dlogits)):
        out[w] += ((x**2).T @ (d_pre**2)).ravel()
        out[b] += (d_pre**2).sum(axis=0)
    return out


def ewc_consolidate(
    state: LearnerState,
    task_dataset: TaskDataset,
    fisher_samples: int,
    lam: float,
    seed: int,
) -> LearnerState:
    """Snapshot theta and an empirical Fisher diagonal at a task boundary.

    The Fisher is the mean squared per-example loss gradient over up to
    ``fisher_samples`` uniformly chosen training examples.  The new
    penalty lam F (theta - theta*)^2 is folded into the single merged
    ``EwcAnchor``: the Fisher weights add, the anchor point moves to their
    weighted mean (a convex combination, so nothing cancels), and the
    parallel-axis term a b / (a + b) (p - q)^2 of the two merged quadratics
    goes into the offset, so the penalty value stays exact.
    """
    n = len(task_dataset.train_y)
    if n == 0:
        log.warning("empty dataset at consolidation; Fisher set to zero")
        fisher = np.zeros_like(state.model.theta)
    else:
        take = min(n, fisher_samples)
        idx = substream(seed, "fisher", str(task_dataset.task_id)).choice(
            n, size=take, replace=False
        )
        batch = Batch(task_dataset.train_x[idx], task_dataset.train_y[idx], task_dataset.task_id)
        fisher = per_example_squared_grads(state.model, batch, state.descriptors) / take
    weight = lam * fisher
    theta = state.model.theta
    if not state.ewc_anchors:
        state.ewc_anchors = [EwcAnchor(theta.copy(), weight)]
        return state
    (old,) = state.ewc_anchors
    total = old.fisher + weight
    share = np.divide(weight, total, out=np.zeros_like(total), where=total > 0.0)
    diff = theta - old.theta_star
    state.ewc_anchors = [
        EwcAnchor(
            old.theta_star + share * diff,
            total,
            old.offset + float((old.fisher * share) @ diff**2),
        )
    ]
    return state


def ewc_penalty_and_grad(state: LearnerState) -> tuple[float, np.ndarray]:
    """sum_k lam_k sum_i F_k,i (theta_i - theta*_k,i)^2 and its gradient.

    Read off the merged anchor: fisher (theta - theta_star)^2 + offset,
    with gradient 2 fisher (theta - theta_star).
    """
    if not state.ewc_anchors:
        return 0.0, np.zeros_like(state.model.theta)
    (anchor,) = state.ewc_anchors
    diff = state.model.theta - anchor.theta_star
    grad = anchor.fisher * diff
    penalty = float(grad @ diff) + anchor.offset
    grad *= 2.0
    return penalty, grad


def ewc_step(state: LearnerState, batch: Batch, lr: float) -> LearnerState:
    """SGD on task loss plus the merged quadratic anchor penalty."""
    _, grad = batch_loss_and_grad(state.model, batch, state.descriptors)
    if state.ewc_anchors:
        _, pgrad = ewc_penalty_and_grad(state)
        grad += pgrad
    state.model = apply_update(state.model, grad, lr)
    return state


# ---------------------------------------------------------------------------
# learner objects


class Learner:
    """Plain single-pass SGD; base class wiring state, RNG streams, hooks."""

    name = "vanilla"
    uses_memory = False

    def __init__(self, model: Model, hp, seed: int):
        self.hp = hp
        self.seed = seed
        memory = EpisodicMemory(hp.memory_per_task) if self.uses_memory else None
        self.state = LearnerState(model=model, memory=memory)
        self._ref_rng = substream(seed, "ref-batch")
        self._constraint_rng = substream(seed, "sgem-constraint")

    @property
    def model(self) -> Model:
        return self.state.model

    def register_task(self, dataset: TaskDataset) -> None:
        self.state.descriptors[dataset.task_id] = dataset.descriptor

    def step(self, batch: Batch) -> None:
        vanilla_step(self.state, batch, self.hp.lr)

    def end_task(self, dataset: TaskDataset) -> None:
        if self.state.memory is not None:
            update_eps_mem(self.state.memory, dataset, dataset.task_id, self.seed)

    def timed_step(self, batch: Batch) -> None:
        start = time.perf_counter()
        self.step(batch)
        self.state.step_seconds += time.perf_counter() - start
        self.state.step_count += 1


class EwcLearner(Learner):
    name = "ewc"

    def step(self, batch: Batch) -> None:
        ewc_step(self.state, batch, self.hp.lr)

    def end_task(self, dataset: TaskDataset) -> None:
        ewc_consolidate(
            self.state, dataset, self.hp.fisher_samples, self.hp.lam,
            spawn_seed(self.seed, "consolidate", str(dataset.task_id)),
        )


class AGemLearner(Learner):
    name = "agem"
    uses_memory = True

    def step(self, batch: Batch) -> None:
        agem_step(self.state, batch, self.hp.lr, self.hp.ref_batch_size, self._ref_rng)


class GemLearner(Learner):
    name = "gem"
    uses_memory = True

    def step(self, batch: Batch) -> None:
        gem_step(self.state, batch, self.hp.lr)


class SGemLearner(Learner):
    name = "sgem"
    uses_memory = True

    def step(self, batch: Batch) -> None:
        sgem_step(self.state, batch, self.hp.lr, self._constraint_rng)


LEARNERS = {
    cls.name: cls for cls in (Learner, EwcLearner, AGemLearner, GemLearner, SGemLearner)
}
LEARNER_NAMES = tuple(sorted(LEARNERS)) + ("multitask",)


def make_learner(name: str, model: Model, hp, seed: int) -> Learner:
    try:
        cls = LEARNERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown learner {name!r}; valid: {', '.join(LEARNER_NAMES)}"
        ) from None
    return cls(model, hp, seed)


def multitask_train(
    model: Model, tasks: list[TaskDataset], hp, seed: int
) -> tuple[Model, dict[int, int]]:
    """Upper-bound baseline: one shuffled single pass over all tasks' data.

    Each shuffled batch is gathered from its tasks' rows, so the pooled
    inputs are never materialized.  Returns the trained model and the
    per-example visit counts (each should be exactly 1).
    """
    descriptors = {t.task_id: t.descriptor for t in tasks}
    y = np.concatenate([t.train_y for t in tasks])
    task_of = np.concatenate(
        [np.full(len(t.train_y), t.task_id, dtype=np.int64) for t in tasks]
    )
    # example i of the pooled stream is row local[i] of tasks[source[i]]
    source = np.concatenate([np.full(len(t.train_y), k) for k, t in enumerate(tasks)])
    local = np.concatenate([np.arange(len(t.train_y)) for t in tasks])
    ids = np.concatenate([t.train_ids for t in tasks])
    order = substream(seed, "shuffle", "multitask").permutation(len(y))
    visits: dict[int, int] = {}
    for start in range(0, len(order), hp.batch_size):
        idx = order[start : start + hp.batch_size]
        x = np.empty((len(idx), tasks[0].train_x.shape[1]))
        for k in np.unique(source[idx]):
            sel = source[idx] == k
            x[sel] = tasks[k].train_x[local[idx[sel]]]
        mixed = MixedBatch(x, y[idx], task_of[idx])
        _, grad = mixed_loss_and_grad(model, mixed, descriptors)
        model = apply_update(model, grad, hp.lr)
        for i in ids[idx]:
            visits[int(i)] = visits.get(int(i), 0) + 1
    return model, visits
