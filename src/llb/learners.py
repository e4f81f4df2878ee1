"""The learner family: plain SGD, Fisher-penalty regularization (EWC),
multi-constraint gradient projection (GEM), its averaged single-constraint
variant (A-GEM), the stochastic one-constraint variant (S-GEM), and the
shuffled multi-task upper bound.

Each learner exposes a uniform single-step interface plus a task-boundary
hook; the math lives in free functions operating on ``LearnerState`` so
the update rules can be tested in isolation.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import nn
from .embedding import check_descriptor, je_loss_and_grad
from .errors import ConfigurationError, NumericError
from .memory import EpisodicMemory, MixedBatch, per_task_batches, sample_ref_batch, update_eps_mem
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
    that scores each task's rows with that task's head and weights the
    task's mean loss and gradient by its share n_t / n of the batch.
    The trunk forward and backward run once, over the rows in the batch's
    own order: trunk weight gradients are sums over rows, so reordering the
    rows would change their round-off.  For the head, the rows are sorted
    once (stable) by class count, then task id, so each task owns one
    contiguous group.  Per group run only the matmuls whose shapes depend
    on the group (logits, the head or table gradient, d(loss)/d(trunk
    output)) and the group's mean loss (numpy's pairwise sum; the exact
    batched form, a zero-seeded ``np.add.reduceat``, measured slower).
    Softmax, cross-entropy and the loop's scaling (divide by n_t, then
    multiply by n_t / n) run once over all rows with the same class count,
    row by row.  The loss and the table gradient are summed over
    tasks in ascending id, as the loop sums them.  Labels outside a task's
    classes raise ``ConfigurationError``.
    """
    n = len(mixed)
    if n == 0:
        raise ConfigurationError("empty mixed batch")
    arch = model.arch
    lay = nn.layout(arch)
    per_task = arch.head_mode == nn.PER_TASK
    pres, posts = nn.trunk_forward(model, mixed.x)
    order = np.argsort(mixed.tasks, kind="stable")
    row_tasks = mixed.tasks[order]
    firsts = np.flatnonzero(np.concatenate(([True], row_tasks[1:] != row_tasks[:-1])))
    tasks = row_tasks[firsts].tolist()
    counts = np.diff(np.append(firsts, n)).tolist()
    if per_task:
        heads = [model._head(t) for t in tasks]
        widths = [c for _, _, c in heads]
    else:
        descs = [check_descriptor(model, descriptors[t]) for t in tasks]
        widths = [len(d) for d in descs]
        table = model.theta[lay.table].reshape(arch.attr_count, arch.table_dim)
        table_terms = np.empty((len(tasks), *table.shape))
    groups = sorted(range(len(tasks)), key=widths.__getitem__)   # stable: ascending id per width
    if min(widths) < max(widths):               # else the stable sort below is the identity
        order = order[np.argsort(np.repeat(widths, counts), kind="stable")]
    sizes = [counts[k] for k in groups]
    bounds = [0, *itertools.accumulate(sizes)]
    labels = mixed.y[order]
    h = posts[-1][order]
    grad = np.zeros_like(model.theta)
    losses = [0.0] * len(tasks)
    spans = zip(groups, bounds, bounds[1:])
    for C, block in itertools.groupby(spans, key=lambda span: widths[span[0]]):
        ks, starts, stops = zip(*block)
        lo, hi = starts[0], stops[-1]
        rows = [slice(a, b) for a, b in zip(starts, stops)]
        local = [slice(a - lo, b - lo) for a, b in zip(starts, stops)]
        block_sizes = np.subtract(stops, starts)
        # class matrices E_k (C x D): head weights transposed, or descriptor @ table
        if per_task:
            E = [model.theta[heads[k][0]].reshape(arch.trunk_dim, C).T for k in ks]
        else:
            block_descs = np.stack([descs[k] for k in ks])
            E = block_descs @ table
        logits = np.empty((hi - lo, C))
        for E_k, r, l in zip(E, rows, local):
            np.matmul(h[r], E_k.T, out=logits[l])
        if per_task:
            bias_idx = np.repeat([heads[k][1].start for k in ks], block_sizes)
            bias_idx = bias_idx[:, None] + np.arange(C)
            logits += model.theta[bias_idx]
        y = labels[lo:hi]
        bad = (y < 0) | (y >= C)
        if bad.any():
            task = mixed.tasks[order[lo + bad.argmax()]]
            raise ConfigurationError(f"labels out of range for task {task}")
        # nn.softmax_cross_entropy, row by row, each row scaled by its own n_t
        pick = (np.arange(hi - lo), y)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        total_exp = exp.sum(axis=1, keepdims=True)
        picked = shifted[pick] - np.log(total_exp[:, 0])
        dl = np.divide(exp, total_exp, out=exp)
        dl[pick] -= 1.0
        n_t = np.repeat(block_sizes, block_sizes)[:, None]
        dl /= n_t
        dl *= n_t / n
        if not per_task:
            inner = np.empty((len(ks), C, arch.table_dim))
        for i, (k, E_k, r, l) in enumerate(zip(ks, E, rows, local)):
            # ndarray.mean's own operations, so each task's loss keeps its bits
            losses[k] = -(np.add.reduce(picked[l]) / (l.stop - l.start))
            if per_task:
                np.matmul(h[r].T, dl[l], out=grad[heads[k][0]].reshape(arch.trunk_dim, C))
            else:
                np.matmul(dl[l].T, h[r], out=inner[i])
            # h[r] is not read again: it now receives d(loss)/d(h) for these rows
            np.matmul(dl[l], E_k, out=h[r])
        if per_task:
            # adds each group's rows in row order, as dl.sum(axis=0) does for
            # C > 1; at C == 1 every entry of dl is exactly zero
            np.add.at(grad, bias_idx, dl)
        else:
            table_terms[list(ks)] = block_descs.transpose(0, 2, 1) @ inner
    if not per_task:
        table_grad = grad[lay.table].reshape(table.shape)
        # one term at a time, the loop's order for any table shape (summing
        # over axis 0 turns pairwise when the table has a single entry)
        for term in table_terms:
            table_grad += term
    total = 0.0
    for count, loss_t in zip(counts, losses):
        total += (count / n) * loss_t
    # back to the batch's row order, in the trunk output's own buffer: the
    # backward pass reads the inputs of the trunk layers, never this output
    d_hidden = posts[-1]
    d_hidden[order] = h
    nn._backprop_trunk(model, pres, posts, d_hidden, grad)
    return total, grad


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
    rng: np.random.Generator | int,
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
    single trunk forward covers them all, each task's head (or attribute
    table) gradient is written straight into row k of one zero matrix, and
    the backward sweep propagates every row's delta with one matmul per
    layer while each task's weight and bias gradients land in its own row.
    Row k equals ``batch_loss_and_grad`` over task k's full buffer.
    All-zero rows are dropped.
    """
    model = state.model
    arch = model.arch
    lay = nn.layout(arch)
    mem = state.memory
    buffers = per_task_batches(mem)
    if not buffers:
        return np.zeros((0, lay.size))
    segments = [slice(lo, hi) for lo, hi in zip(mem.bounds[:-1], mem.bounds[1:])]
    pres, posts = nn.trunk_forward(model, mem.x)
    phi = posts[-1]
    G = np.zeros((len(buffers), lay.size))
    d = np.empty_like(phi)
    table = None
    if arch.head_mode == nn.JOINT_EMBEDDING:
        table = model.theta[lay.table].reshape(arch.attr_count, arch.table_dim)
    for k, ((task, buf), rows) in enumerate(zip(buffers, segments)):
        h = phi[rows]
        if table is None:
            w, b, classes = model._head(task)
            W_head = model.theta[w].reshape(arch.trunk_dim, classes)
            logits = h @ W_head + model.theta[b]
        else:
            desc = check_descriptor(model, state.descriptors[task])
            classes = len(desc)
            class_emb = desc @ table
            logits = h @ class_emb.T
        if np.any(buf.y < 0) or np.any(buf.y >= classes):
            raise ConfigurationError(f"labels out of range for task {task}")
        if not np.all(np.isfinite(logits)):
            raise NumericError(f"non-finite logits for task {task}")
        _, dlogits = nn.softmax_cross_entropy(logits, buf.y)
        if table is None:
            G[k, w] = (h.T @ dlogits).ravel()
            G[k, b] = dlogits.sum(axis=0)
            d[rows] = dlogits @ W_head.T
        else:
            G[k, lay.table] = (desc.T @ (dlogits.T @ h)).ravel()
            d[rows] = dlogits @ class_emb
    for idx in range(len(lay.trunk) - 1, -1, -1):
        w, b, fan_in, fan_out = lay.trunk[idx]
        d_pre = d * (pres[idx] > 0.0)
        for k, rows in enumerate(segments):
            # written straight into G: no per-task temporary of the layer's size
            np.matmul(posts[idx][rows].T, d_pre[rows], out=G[k, w].reshape(fan_in, fan_out))
            G[k, b] = d_pre[rows].sum(axis=0)
        if idx > 0:
            d = d_pre @ model.theta[w].reshape(fan_in, fan_out).T
    return drop_zero_rows(G)


def gem_step(
    state: LearnerState,
    batch: Batch,
    lr: float,
    tol: float = 1e-7,
    max_iter: int = 10_000,
) -> LearnerState:
    """Gradient step constrained per stored task, via the dual QP.

    The constraint matrix G is recomputed from the full buffers at every
    step, in one grouped pass (``_memory_gradient_rows``).  G g is formed
    once: it decides whether any constraint is violated and is the dual's
    linear term.  With no stored tasks (or all-zero memory gradients) this
    is a plain step.
    """
    _, g = batch_loss_and_grad(state.model, batch, state.descriptors)
    G = _memory_gradient_rows(state) if state.memory else np.zeros((0, len(g)))
    Gg = G @ g
    if np.all(Gg >= 0.0):
        state.model = apply_update(state.model, g, lr)
        return state
    state.violation_count += 1
    sol = solve_nonneg_qp(
        DualProblem.from_gradients(G, g, linear=Gg), tol=tol, max_iter=max_iter
    )
    if not sol.converged:
        log.warning(
            "dual QP not converged after %d iterations (residual %.3e); "
            "proceeding with best iterate",
            sol.iterations,
            sol.residual,
        )
    state.model = apply_update(state.model, reconstruct(g, G, sol.v), lr)
    return state


def sgem_step(
    state: LearnerState,
    batch: Batch,
    lr: float,
    rng: np.random.Generator | int,
) -> LearnerState:
    """Gradient step constrained by one uniformly sampled stored task."""
    _, g = batch_loss_and_grad(state.model, batch, state.descriptors)
    stored = sorted(state.memory.per_task) if state.memory else []
    if not stored:
        state.model = apply_update(state.model, g, lr)
        return state
    if isinstance(rng, (int, np.integer)):
        rng = substream(int(rng), "sgem-constraint")
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
    no per-example loop is needed; agrees exactly with looping.
    """
    lay = nn.layout(model.arch)
    pres, posts = nn.trunk_forward(model, batch.inputs)
    n = len(batch)
    if model.arch.head_mode == nn.PER_TASK:
        w, b, classes = model._head(batch.task)
        W_head = model.theta[w].reshape(model.arch.trunk_dim, classes)
        logits = posts[-1] @ W_head + model.theta[b]
        _, dlogits = nn.softmax_cross_entropy(logits, batch.labels)
        dlogits = dlogits * n  # per-example gradients, not the batch mean
        out = np.zeros_like(model.theta)
        out[w] = ((posts[-1] ** 2).T @ (dlogits**2)).ravel()
        out[b] = (dlogits**2).sum(axis=0)
        d = dlogits @ W_head.T
    else:
        desc = np.asarray(descriptors[batch.task], dtype=np.float64)
        table = model.theta[lay.table].reshape(model.arch.attr_count, model.arch.table_dim)
        class_emb = desc @ table
        logits = posts[-1] @ class_emb.T
        _, dlogits = nn.softmax_cross_entropy(logits, batch.labels)
        dlogits = dlogits * n
        out = np.zeros_like(model.theta)
        u = dlogits @ desc  # (n, A): per-example attribute-space errors
        out[lay.table] = ((u**2).T @ (posts[-1] ** 2)).ravel()
        d = dlogits @ class_emb
    for idx in range(len(lay.trunk) - 1, -1, -1):
        w, b, fan_in, fan_out = lay.trunk[idx]
        d_pre = d * (pres[idx] > 0.0)
        out[w] += ((posts[idx] ** 2).T @ (d_pre**2)).ravel()
        out[b] += (d_pre**2).sum(axis=0)
        if idx > 0:
            W = model.theta[w].reshape(fan_in, fan_out)
            d = d_pre @ W.T
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
        pass

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

    def end_task(self, dataset: TaskDataset) -> None:
        update_eps_mem(self.state.memory, dataset, dataset.task_id, self.seed)


class GemLearner(Learner):
    name = "gem"
    uses_memory = True

    def step(self, batch: Batch) -> None:
        gem_step(self.state, batch, self.hp.lr)

    def end_task(self, dataset: TaskDataset) -> None:
        update_eps_mem(self.state.memory, dataset, dataset.task_id, self.seed)


class SGemLearner(Learner):
    name = "sgem"
    uses_memory = True

    def step(self, batch: Batch) -> None:
        sgem_step(self.state, batch, self.hp.lr, self._constraint_rng)

    def end_task(self, dataset: TaskDataset) -> None:
        update_eps_mem(self.state.memory, dataset, dataset.task_id, self.seed)


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

    Returns the trained model and the per-example visit counts (each
    should be exactly 1).
    """
    descriptors = {t.task_id: t.descriptor for t in tasks}
    x = np.concatenate([t.train_x for t in tasks])
    y = np.concatenate([t.train_y for t in tasks])
    task_of = np.concatenate(
        [np.full(len(t.train_y), t.task_id, dtype=np.int64) for t in tasks]
    )
    ids = np.concatenate([t.train_ids for t in tasks])
    order = substream(seed, "shuffle", "multitask").permutation(len(y))
    visits: dict[int, int] = {}
    for start in range(0, len(order), hp.batch_size):
        idx = order[start : start + hp.batch_size]
        mixed = MixedBatch(x[idx], y[idx], task_of[idx])
        _, grad = mixed_loss_and_grad(model, mixed, descriptors)
        model = apply_update(model, grad, hp.lr)
        for i in ids[idx]:
            visits[int(i)] = visits.get(int(i), 0) + 1
    return model, visits
