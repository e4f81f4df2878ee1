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


def je_loss_and_grad(
    model: Model, batch: Batch, descriptor: np.ndarray, out: np.ndarray | None = None,
    factors: list | None = None,
) -> tuple[float, np.ndarray]:
    """Mean CE and exact gradient w.r.t. trunk and attribute table jointly,
    over a batch of one task (``batch.tasks`` one id) scored through
    ``descriptor``; written into ``out`` when given, and a ``factors`` list
    defers the trunk weight blocks (see ``head_loss_and_grad``)."""
    _table_only(model)
    return head_loss_and_grad(
        model, batch.x, batch.y, batch.tasks, {batch.tasks: descriptor}, out, factors
    )


def je_predict(model: Model, inputs: np.ndarray, descriptor: np.ndarray) -> np.ndarray:
    """Predicted class of each row, scored by the descriptor's class embeddings."""
    _table_only(model)
    head = Head(model, None, descriptor)
    _, posts = trunk_forward(model, inputs)
    return head.logits(posts[-1]).argmax(axis=1)


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
