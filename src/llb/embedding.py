"""Attribute-conditioned classification head.

Classes are scored by inner products between the trunk output and class
embeddings built from a shared attribute lookup table: a task descriptor
is a (C_k x A) matrix of per-class attribute values, the table is an
(A x D) block of theta, and the class embeddings are descriptor @ table.
Because the table lives inside the flat parameter vector, every learner
(projection, Fisher penalties) covers it with no special casing.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .nn import JOINT_EMBEDDING, Batch, Head, Model, head_loss_and_grad, trunk_forward


def _table_only(model: Model) -> None:
    if model.arch.head_mode != JOINT_EMBEDDING:
        raise ConfigurationError("the attribute-table head needs a joint-embedding model")


def embed_task(descriptor: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Class embeddings (C_k x D) = descriptor (C_k x A) @ table (A x D)."""
    descriptor = np.asarray(descriptor, dtype=np.float64)
    if descriptor.ndim != 2 or descriptor.shape[1] != table.shape[0]:
        raise ConfigurationError(
            f"descriptor columns {descriptor.shape} do not match table rows {table.shape}"
        )
    return descriptor @ table


def _table_logits(model: Model, inputs: np.ndarray, descriptor, task=None) -> np.ndarray:
    _table_only(model)
    head = Head(model, task, descriptor)
    _, posts = trunk_forward(model, inputs)
    return head.logits(posts[-1])


def je_forward(model: Model, batch: Batch, descriptor: np.ndarray) -> np.ndarray:
    """Logits (batch x C_k): trunk output against attribute-derived class embeddings."""
    return _table_logits(model, batch.inputs, descriptor, batch.task)


def je_probabilities(model: Model, batch: Batch, descriptor: np.ndarray) -> np.ndarray:
    logits = je_forward(model, batch, descriptor)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def je_loss_and_grad(
    model: Model, batch: Batch, descriptor: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean CE and exact gradient w.r.t. trunk and attribute table jointly."""
    _table_only(model)
    return head_loss_and_grad(model, batch.inputs, batch.labels, batch.task, {batch.task: descriptor})


def je_predict(model: Model, inputs: np.ndarray, descriptor: np.ndarray) -> np.ndarray:
    return _table_logits(model, inputs, descriptor).argmax(axis=1)


def zero_shot_eval(model: Model, task_dataset) -> float:
    """Test accuracy on a task the model has not trained on, via its descriptor.

    Pure read; errors for integer-descriptor tasks or per-task-head models,
    where no zero-shot path exists.
    """
    desc = task_dataset.descriptor
    if not isinstance(desc, np.ndarray):
        raise ConfigurationError(
            "zero-shot evaluation needs an attribute descriptor, "
            f"got integer descriptor {desc!r}"
        )
    preds = je_predict(model, task_dataset.test_x[:], desc)
    return float(np.mean(preds == task_dataset.test_y))
