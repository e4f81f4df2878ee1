"""Per-task episodic sample buffers and reference-batch sampling.

Buffers are filled once, at each task boundary, by uniform sampling
without replacement from that task's training data (the whole task if it
fits).  All buffers live in one stacked store: inputs, labels, sample ids
and the task id of every row, with rows in ascending task order, so each
stored task owns one contiguous row range and ``per_task[t]`` is a
one-task ``Batch`` of views of that range.  The store is rebuilt once per task
boundary and read everywhere else.  Reference batches are ``Batch``es
drawn uniformly without replacement from all stored rows, each row with
its originating task id for head routing.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

import numpy as np

from .errors import ConfigurationError, MemoryStateError
from .nn import Batch
from .rng import substream
from .streams import TaskDataset


class EpisodicMemory:
    """Every stored task's buffer, stacked into one store.

    ``x``, ``y``, ``ids`` and ``tasks`` hold one row per stored example,
    in ascending task order; the k-th stored task (ascending id) owns rows
    ``bounds[k]:bounds[k + 1]``.  ``per_task`` is a read-only mapping from
    task id to a ``Batch`` of views into the store that names its one task,
    so each example is held once.  ``add`` is the only writer.
    """

    def __init__(self, per_task_capacity: int):
        if per_task_capacity < 1:
            raise ConfigurationError("per-task capacity must be >= 1")
        self.per_task_capacity = per_task_capacity
        self._stack({})

    def __len__(self) -> int:
        return len(self.y)

    @property
    def per_task(self) -> Mapping[int, Batch]:
        return MappingProxyType(self._buffers)

    def add(self, batch: Batch) -> None:
        """Stack ``batch``, rows of the one task it names and their ``ids``, into the store."""
        tasks = np.ravel(batch.tasks)
        if batch.ids is None or len(tasks) == 0 or np.any(tasks != tasks[0]):
            raise ConfigurationError("a memory buffer holds one task's rows, with their ids")
        task_id = int(tasks[0])
        if task_id in self._buffers:
            raise MemoryStateError(f"memory for task {task_id} already populated")
        self._stack({**self._buffers, task_id: batch})

    def copy(self) -> "EpisodicMemory":
        """An independent memory with the same rows (the store is copied)."""
        other = EpisodicMemory(self.per_task_capacity)
        other._stack(self._buffers)
        return other

    def _stack(self, buffers: dict[int, Batch]) -> None:
        order = sorted(buffers)
        parts = [buffers[t] for t in order]
        sizes = [len(b) for b in parts]
        self.bounds = np.cumsum([0] + sizes)
        self.tasks = np.repeat(np.array(order, dtype=np.int64), sizes)
        if parts:
            # np.concatenate always allocates, so the store never aliases its inputs
            self.x = np.concatenate([b.x for b in parts])
            self.y = np.concatenate([b.y for b in parts])
            self.ids = np.concatenate([b.ids for b in parts])
        else:
            self.x = np.empty((0, 0))
            self.y = np.empty(0, dtype=np.int64)
            self.ids = np.empty(0, dtype=np.int64)
        self._buffers = {
            t: Batch(self.x[lo:hi], self.y[lo:hi], t, self.ids[lo:hi])
            for t, lo, hi in zip(order, self.bounds[:-1], self.bounds[1:])
        }


def update_eps_mem(mem: EpisodicMemory, task_dataset: TaskDataset, seed: int) -> EpisodicMemory:
    """Store up to the per-task capacity of uniformly chosen training examples
    of ``task_dataset``, as the rows of its task."""
    n = len(task_dataset.train_y)
    m = mem.per_task_capacity
    if n <= m:
        idx = np.arange(n)
    else:
        idx = substream(seed, "memory", str(task_dataset.task_id)).choice(n, size=m, replace=False)
    mem.add(task_dataset.batch(idx))
    return mem


def sample_ref_batch(mem: EpisodicMemory, size: int, rng: np.random.Generator) -> Batch:
    """min(size, stored) examples uniform without replacement over all buffers.

    Index i of the draw is row i of the store, so one gather yields the
    sampled rows in draw order.  The memory must hold a row: ``agem_step``
    takes a plain step on an empty one and never samples it.
    """
    total = len(mem)
    idx = rng.choice(total, size=min(size, total), replace=False)
    return Batch(mem.x[idx], mem.y[idx], mem.tasks[idx])
