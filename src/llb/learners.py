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
from .memory import EpisodicMemory, sample_ref_batch, update_eps_mem
from .nn import Batch, Model, apply_update, loss_and_grad
from .qp import DualProblem, drop_zero_rows, reconstruct, solve_nonneg_qp
from .rng import spawn_seed, substream
from .streams import TaskDataset

log = logging.getLogger(__name__)

DEGENERATE_REF_EPS = 1e-12
CERTIFY_MARGIN = 4.0    # four times the round-off bound of ``certified_positive``
FACTOR_PAYS = 8         # how much larger a skipped weight block must be than its check
NORM_RANGE = (2.0**-250, 2.0**250)


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
    # gradient workspaces, made once and rewritten by every step: the step's
    # gradient g, and A-GEM's reference gradient or S-GEM's sampled-task one
    g: np.ndarray = field(init=False, repr=False, compare=False)
    g_ref: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.g, self.g_ref = np.empty((2, len(self.model.theta)))


def batch_loss_and_grad(model: Model, batch: Batch, descriptors: dict, out=None, factors=None):
    """Loss/grad of a one-task batch, with head routing: per-task heads or
    the shared attribute table.  Kept apart from ``mixed_loss_and_grad``
    because the benchmark's tracer (``bench/tracer.py``) times each.

    The gradient goes into ``out`` when given, and a ``factors`` list defers
    its trunk weight blocks (see ``nn.head_loss_and_grad``).
    """
    if model.arch.head_mode == nn.PER_TASK:
        return loss_and_grad(model, batch, out, factors)
    return je_loss_and_grad(model, batch, descriptors[batch.tasks], out, factors)


def mixed_loss_and_grad(model: Model, batch: Batch, descriptors: dict, out=None, factors=None):
    """Mean loss/grad over a batch spanning several tasks (per-example mean).
    Kept apart from ``batch_loss_and_grad`` because the benchmark's tracer
    (``bench/tracer.py``) times each and reads ``batch.tasks``.

    Equal, bit for bit, to a loop over the batch's tasks in ascending id
    that weights each task's mean loss and gradient by its share of the
    batch (see ``nn.head_loss_and_grad``).  The gradient goes into ``out``
    when given, and a ``factors`` list defers its trunk weight blocks.
    """
    return nn.head_loss_and_grad(model, batch.x, batch.y, batch.tasks, descriptors, out, factors)


# ---------------------------------------------------------------------------
# update rules


def vanilla_step(state: LearnerState, batch: Batch, lr: float) -> LearnerState:
    """One unconstrained SGD step."""
    _, grad = batch_loss_and_grad(state.model, batch, state.descriptors, state.g)
    apply_update(state.model, grad, lr)
    return state


class Projection(NamedTuple):
    g_tilde: np.ndarray
    violated: bool
    degenerate: bool = False


def agem_project(g: np.ndarray, g_ref: np.ndarray, out: np.ndarray | None = None) -> Projection:
    """Project g onto the half-space of non-negative inner product with g_ref.

    Pass-through when the constraint already holds; otherwise the closest
    vector (in L2) with <g~, g_ref> = 0, i.e.

        g~ = g - (g . g_ref / g_ref . g_ref) g_ref,

    rounded as written: the scaled reference first, then the difference.
    g~ is written into ``out`` when given, which may be g_ref itself (not
    g); without ``out`` it is a new vector.  A reference with squared norm
    below 1e-12 is flagged degenerate and leaves g unchanged.
    """
    if g.shape != g_ref.shape:
        raise ConfigurationError("gradient and reference length mismatch")
    ref_sq = float(g_ref @ g_ref)
    if ref_sq <= DEGENERATE_REF_EPS:
        return Projection(g, False, degenerate=True)
    dot = float(g @ g_ref)
    if dot >= 0.0:
        return Projection(g, False)
    scaled = np.multiply(dot / ref_sq, g_ref, out=out)
    return Projection(np.subtract(g, scaled, out=scaled), True)


def factors_pay(model: Model, rows: int) -> bool:
    """Whether ``certified_positive`` costs less than forming the reference
    gradient's trunk weight blocks, for a batch of ``rows`` rows.

    Per trunk layer, the check does about rows (fan_in + fan_out) work per
    reference row and skips fan_in fan_out; it pays when every layer's
    skipped block is at least ``FACTOR_PAYS`` times its check.
    """
    return all(
        fan_in * fan_out >= FACTOR_PAYS * rows * (fan_in + fan_out)
        for _, _, fan_in, fan_out in nn.layout(model.arch).trunk
    )


def certified_positive(
    model: Model, g: np.ndarray, g_ref: np.ndarray, batch_factors, ref_factors
) -> bool:
    """True only if ``float(g @ g_ref)``, as ``agem_project`` computes it from
    the fully formed vectors, is certainly > 0.

    ``g`` is whole; ``g_ref`` need not hold its trunk weight blocks, which
    are read only through the factors ``nn.head_loss_and_grad`` handed back:
    each layer's block is H.T D, so its part of g . g_ref is the sum of
    (H_b H_r.T) * (D_b D_r.T), one rows x reference-rows product per layer.
    The biases and heads (or the attribute table), a and r, are dotted
    directly.  With the Frobenius norms of the factors, the terms of a
    layer's part sum in absolute value to at most |H_b| |D_b| |H_r| |D_r|,
    those of the rest to at most |a| |r|; call the sum of these bounds M.
    The round-off in this estimate, and in forming the blocks and dotting
    them as ``agem_project`` does, are each at most about n u M, with u
    the unit round-off (half the float64 epsilon eps) and
    n = P + sum over layers of (fan_in + fan_out + rows * reference rows).
    Together they stay under n eps M, so an estimate above
    ``CERTIFY_MARGIN`` n eps M certifies the dot's sign, with room for the
    rounding of M itself.  Every norm must also lie in ``NORM_RANGE``:
    finite, and far enough from underflow and overflow that the relative
    error bounds hold.  False means "not certified", not "violated".
    """
    lay = nn.layout(model.arch)
    rest = [b for _, b, _, _ in lay.trunk] + [lay.head_region]
    estimate = sum(float(g[s] @ g_ref[s]) for s in rest)
    norms = [np.sqrt(sum(float(v[s] @ v[s]) for s in rest)) for v in (g, g_ref)]
    bound = norms[0] * norms[1]
    n = g.size
    for (_, h_b, d_b), (_, h_r, d_r) in zip(batch_factors, ref_factors):
        estimate += float(np.vdot(h_b @ h_r.T, d_b @ d_r.T))
        layer = [np.linalg.norm(m) for m in (h_b, d_b, h_r, d_r)]
        norms += layer
        bound += layer[0] * layer[1] * layer[2] * layer[3]
        n += h_b.shape[1] + d_b.shape[1] + len(h_b) * len(h_r)
    low, high = NORM_RANGE
    return all(low <= v <= high for v in norms) and (
        estimate > CERTIFY_MARGIN * n * np.finfo(np.float64).eps * bound
    )


def _reference_step(state: LearnerState, batch: Batch, lr: float, ref: Batch) -> LearnerState:
    """Apply the batch gradient g, projected when g . g_ref < 0 (``agem_project``),
    with g_ref the mean gradient over the memory rows ``ref``.

    Where ``factors_pay``, g_ref's trunk weight blocks are deferred, and a
    step whose constraint ``certified_positive`` proves to hold applies g
    without them; every other step forms them and runs ``agem_project``.
    """
    model = state.model
    deferred = factors_pay(model, len(batch))
    batch_factors = [] if deferred else None
    ref_factors = [] if deferred else None
    _, g = batch_loss_and_grad(model, batch, state.descriptors, state.g, batch_factors)
    _, g_ref = mixed_loss_and_grad(model, ref, state.descriptors, state.g_ref, ref_factors)
    if deferred:
        nn.finish_trunk_weights(g, batch_factors)
        if certified_positive(model, g, g_ref, batch_factors, ref_factors):
            apply_update(model, g, lr)
            return state
        nn.finish_trunk_weights(g_ref, ref_factors)
    proj = agem_project(g, g_ref, out=g_ref)
    if proj.violated:
        state.violation_count += 1
    apply_update(model, proj.g_tilde, lr)
    return state


def agem_step(
    state: LearnerState,
    batch: Batch,
    lr: float,
    ref_size: int,
    rng: np.random.Generator,
) -> LearnerState:
    """Gradient step constrained by the average memory gradient.

    Empty memory falls back to a plain step.  The reference gradient's
    trunk weight blocks are formed only on steps that need them: where the
    check pays for the shapes (``factors_pay``), the constraint is first
    decided from the trunk layers' low-rank factors, and a step that
    ``certified_positive`` proves satisfied (its estimate of g . g_ref
    exceeds a round-off bound of ``CERTIFY_MARGIN`` n eps M) applies g as
    ``agem_project`` would have.  Violated, degenerate, ambiguous and
    non-finite cases form the blocks and project as before, so results
    are the same bit for bit.
    """
    ref = sample_ref_batch(state.memory, ref_size, rng) if state.memory else None
    if ref is None:
        return vanilla_step(state, batch, lr)
    return _reference_step(state, batch, lr, ref)


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
            nn.finish_trunk_weights(G[k], [(w, x[rows], d_pre[rows])])
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
    _, g = batch_loss_and_grad(state.model, batch, state.descriptors, state.g)
    G = _memory_gradient_rows(state) if state.memory else np.zeros((0, len(g)))
    Gg = G @ g
    if np.all(Gg >= 0.0):
        apply_update(state.model, g, lr)
        return state
    state.violation_count += 1
    sol = solve_nonneg_qp(DualProblem.from_gradients(G, g, linear=Gg))
    apply_update(state.model, reconstruct(g, G, sol.v), lr)
    return state


def sgem_step(
    state: LearnerState,
    batch: Batch,
    lr: float,
    rng: np.random.Generator,
) -> LearnerState:
    """Gradient step constrained by one uniformly sampled stored task: its
    ``per_task`` buffer, a view of the store, is the reference batch of
    A-GEM's ``_reference_step``.  Empty memory falls back to a plain step."""
    mem = state.memory
    if not mem:
        return vanilla_step(state, batch, lr)
    k = int(rng.integers(0, len(mem.per_task)))
    return _reference_step(state, batch, lr, list(mem.per_task.values())[k])


# ---------------------------------------------------------------------------
# EWC


def per_example_squared_grads(model: Model, batch: Batch, descriptors: dict) -> np.ndarray:
    """Sum over examples of the squared per-example loss gradient.

    Uses the factorization (h_i d_j)^2 = h_i^2 d_j^2 for dense layers, so
    no per-example loop is needed; agrees with looping up to round-off.
    """
    head = nn.Head(model, batch.tasks, descriptors.get(batch.tasks))
    head.check_labels(batch.y)
    pres, posts = nn.trunk_forward(model, batch.x)
    _, dlogits = nn.softmax_cross_entropy(head.logits(posts[-1]), batch.y)
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


def ewc_penalty_and_grad(
    state: LearnerState, add_to: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """sum_k lam_k sum_i F_k,i (theta_i - theta*_k,i)^2 and its gradient.

    Read off the merged anchor: fisher (theta - theta_star)^2 + offset,
    with gradient 2 fisher (theta - theta_star).  The gradient is added
    into ``add_to`` when given (and that array returned), else returned as
    a new vector.  The work runs in blocks of ``nn.BLOCK`` elements, so no
    P-sized temporary is made; the penalty sums its blocks' dot products.
    """
    theta = state.model.theta
    grad = np.zeros_like(theta) if add_to is None else add_to
    if not state.ewc_anchors:
        return 0.0, grad
    (anchor,) = state.ewc_anchors
    diff, term = np.empty((2, min(nn.BLOCK, theta.size)))
    penalty = 0.0
    for lo in range(0, theta.size, nn.BLOCK):
        blk = slice(lo, lo + nn.BLOCK)
        m = min(nn.BLOCK, theta.size - lo)
        d = np.subtract(theta[blk], anchor.theta_star[blk], out=diff[:m])
        t = np.multiply(anchor.fisher[blk], d, out=term[:m])
        penalty += float(t @ d)
        t *= 2.0
        grad[blk] += t
    return penalty + anchor.offset, grad


def ewc_step(state: LearnerState, batch: Batch, lr: float) -> LearnerState:
    """SGD on task loss plus the merged quadratic anchor penalty."""
    _, grad = batch_loss_and_grad(state.model, batch, state.descriptors, state.g)
    if state.ewc_anchors:
        ewc_penalty_and_grad(state, add_to=grad)
    apply_update(state.model, grad, lr)
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
            update_eps_mem(self.state.memory, dataset, self.seed)

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
    """Upper-bound baseline: ``hp.epochs`` shuffled passes over all tasks' data.

    Each shuffled batch is gathered from its tasks' rows, so the pooled
    inputs are never materialized.  Trains ``model`` in place and returns
    it with the per-example visit counts (each should be exactly
    ``hp.epochs``).
    """
    grad = np.empty_like(model.theta)     # the gradient workspace of every batch
    descriptors = {t.task_id: t.descriptor for t in tasks}
    y = np.concatenate([t.train_y for t in tasks])
    task_of = np.concatenate(
        [np.full(len(t.train_y), t.task_id, dtype=np.int64) for t in tasks]
    )
    # example i of the pooled stream is row local[i] of tasks[source[i]]
    source = np.concatenate([np.full(len(t.train_y), k) for k, t in enumerate(tasks)])
    local = np.concatenate([np.arange(len(t.train_y)) for t in tasks])
    ids = np.concatenate([t.train_ids for t in tasks])
    visits: dict[int, int] = {}
    for epoch in range(hp.epochs):
        # epoch 0 keeps the single-pass order
        names = ("shuffle", "multitask", str(epoch)) if epoch else ("shuffle", "multitask")
        order = substream(seed, *names).permutation(len(y))
        for start in range(0, len(order), hp.batch_size):
            idx = order[start : start + hp.batch_size]
            x = np.empty((len(idx), tasks[0].train_x.shape[1]))
            for k in np.unique(source[idx]):
                sel = source[idx] == k
                x[sel] = tasks[k].train_x[local[idx[sel]]]
            mixed_loss_and_grad(model, Batch(x, y[idx], task_of[idx]), descriptors, grad)
            apply_update(model, grad, hp.lr)
            for i in ids[idx]:
                visits[int(i)] = visits.get(int(i), 0) + 1
    return model, visits
