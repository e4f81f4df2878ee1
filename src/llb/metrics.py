"""Accuracy logging and the metric suite built on it.

The log is a sparse map (train_task k, minibatch i, eval_task j) -> accuracy,
where i = 0 marks evaluation before any of task k's mini-batches (the
zero-shot point) and i = B_k the end-of-task state.  All metrics are pure
reads of this log:

- average accuracy      A_k      = mean over j <= k of a[k, B_k, j]
- forgetting            f_j^k    = max_{l < k} a[l, B_l, j] - a[k, B_k, j]
                        F_k      = mean over j < k of f_j^k
- worst case            F_wst    = max over j < k of f_j^k
- learning curve area   Z_b      = mean over k of a[k, b, k]
                        LCA_beta = mean of Z_0..Z_beta
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, IncompleteLogError, LogConflictError


@dataclass
class AccuracyTensor:
    """Sparse accuracy log over one task stream."""

    order: list[int]                      # task ids, stream order
    batch_counts: dict[int, int] = field(default_factory=dict)   # B_k
    entries: dict[tuple[int, int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.order)) != len(self.order):
            raise ConfigurationError("duplicate task id in stream order")

    def position(self, task: int) -> int:
        """1-based position of a task in the stream."""
        try:
            return self.order.index(task) + 1
        except ValueError:
            raise ConfigurationError(f"task {task} not in stream order") from None

    def upto(self, task: int) -> list[int]:
        return self.order[: self.position(task)]

    def get(self, k: int, i: int, j: int) -> float:
        try:
            return self.entries[(k, i, j)]
        except KeyError:
            raise IncompleteLogError(f"no accuracy recorded for (k={k}, i={i}, j={j})") from None

    def end_of(self, k: int) -> int:
        try:
            return self.batch_counts[k]
        except KeyError:
            raise IncompleteLogError(f"batch count B_k unknown for task {k}") from None


def record(tensor: AccuracyTensor, k: int, i: int, j: int, acc: float) -> AccuracyTensor:
    """Log one accuracy value; re-recording an equal value is a no-op."""
    if not (0.0 <= acc <= 1.0):
        raise ConfigurationError(f"accuracy {acc} outside [0, 1]")
    if i < 0:
        raise ConfigurationError("minibatch index must be >= 0")
    key = (k, i, j)
    if key in tensor.entries and tensor.entries[key] != acc:
        raise LogConflictError(
            f"conflicting accuracy for {key}: {tensor.entries[key]} vs {acc}"
        )
    tensor.entries[key] = float(acc)
    return tensor


def avg_accuracy(tensor: AccuracyTensor, k: int) -> float:
    """Mean end-of-task-k accuracy over tasks up to and including k."""
    bk = tensor.end_of(k)
    seen = tensor.upto(k)
    return float(np.mean([tensor.get(k, bk, j) for j in seen]))


def forgetting(tensor: AccuracyTensor, k: int) -> tuple[float, dict[int, float]]:
    """Average and per-task forgetting after training through task k.

    For each earlier task j, the drop from its best end-of-task accuracy
    (over recorded earlier checkpoints) to its accuracy now.
    """
    seen = tensor.upto(k)
    if len(seen) < 2:
        raise IncompleteLogError(f"forgetting undefined for the first task ({k})")
    bk = tensor.end_of(k)
    per_task: dict[int, float] = {}
    for j in seen[:-1]:
        peaks = [
            tensor.entries[(l, tensor.end_of(l), j)]
            for l in seen[:-1]
            if (l, tensor.end_of(l), j) in tensor.entries
        ]
        if not peaks:
            raise IncompleteLogError(f"no earlier end-of-task accuracy for task {j}")
        per_task[j] = float(max(peaks) - tensor.get(k, bk, j))
    return float(np.mean(list(per_task.values()))), per_task


def worst_case_forgetting(tensor: AccuracyTensor, k: int) -> float:
    _, per_task = forgetting(tensor, k)
    return float(max(per_task.values()))


def lca(tensor: AccuracyTensor, beta: int) -> tuple[list[float], float]:
    """b-shot curve Z_b for b in [0, beta] and its normalized area."""
    if beta < 0:
        raise ConfigurationError("beta must be >= 0")
    curve = []
    for b in range(beta + 1):
        curve.append(float(np.mean([tensor.get(k, b, k) for k in tensor.order])))
    return curve, float(np.mean(curve))


def zero_shot_series(tensor: AccuracyTensor) -> list[tuple[int, float]]:
    """(task, accuracy before its first mini-batch), in stream order."""
    return [(k, tensor.get(k, 0, k)) for k in tensor.order]


@dataclass(kw_only=True)
class MetricsReport:
    """Everything one run reports; assembled by the protocol.  The fields a
    single pass's log and step timer fill default to ``None``, empty or 0,
    as a run without one (the multitask baseline) reports them."""

    learner: str
    seed: int
    avg_accuracy: float
    forgetting: float | None = None
    worst_case_forgetting_test: float | None = None
    worst_case_forgetting_memory: float | None = None
    lca: float | None = None
    lca_beta: int
    zb_curve: list[float] = field(default_factory=list)
    bshot_curves: list[tuple[int, int, float]] = field(default_factory=list)  # (task, b, acc)
    zero_shot: list[tuple[int, float]] = field(default_factory=list)
    violations: int = 0
    violations_by_task: list[tuple[int, int]] = field(default_factory=list)  # cumulative
    mean_step_seconds: float | None = None
    step_seconds_by_task: list[tuple[int, float]] = field(default_factory=list)  # per-task mean
    param_count: int
    hyperparams: dict

    def to_dict(self) -> dict:
        return {
            "learner": self.learner,
            "seed": self.seed,
            "A_T": self.avg_accuracy,
            "F_T": self.forgetting,
            "F_wst_test": self.worst_case_forgetting_test,
            "F_wst_mem": self.worst_case_forgetting_memory,
            f"LCA_{self.lca_beta}": self.lca,
            "Z_b": self.zb_curve,
            "bshot": [[int(k), int(b), v] for k, b, v in self.bshot_curves],
            "zero_shot": [[int(k), v] for k, v in self.zero_shot],
            "violations": self.violations,
            "violations_by_task": [[int(k), int(c)] for k, c in self.violations_by_task],
            "mean_step_seconds": self.mean_step_seconds,
            "step_seconds_by_task": [[int(k), s] for k, s in self.step_seconds_by_task],
            "params": self.param_count,
            "hyperparams": self.hyperparams,
        }
