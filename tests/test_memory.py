import numpy as np
import pytest

from llb import nn
from llb.errors import ConfigurationError, MemoryStateError
from llb.memory import EpisodicMemory, sample_ref_batch, update_eps_mem
from llb.rng import substream
from llb.streams import make_permuted_stream, synthetic_mnist_base


def make_task(n, task_id=1, dim=6):
    base = synthetic_mnist_base(3 * n, 30, seed=0, dim=dim)
    cont = make_permuted_stream(base, T=max(task_id, 2), seed=0, cv_split=1, train_per_task=n)
    return cont.tasks[task_id - 1]


class TestUpdate:
    def test_small_task_stored_whole(self):
        mem = EpisodicMemory(250)
        task = make_task(100)
        update_eps_mem(mem, task, seed=0)
        assert len(mem.per_task[1]) == 100
        assert sorted(mem.per_task[1].ids.tolist()) == sorted(task.train_ids.tolist())

    def test_capacity_and_distinct_ids(self):
        mem = EpisodicMemory(50)
        task = make_task(1000)
        update_eps_mem(mem, task, seed=3)
        buf = mem.per_task[1]
        assert len(buf) == 50
        assert len(set(buf.ids.tolist())) == 50
        assert set(buf.ids.tolist()) <= set(task.train_ids.tolist())

    def test_reproducible_in_seed(self):
        task = make_task(500)
        a = update_eps_mem(EpisodicMemory(40), task, seed=9).per_task[1]
        b = update_eps_mem(EpisodicMemory(40), task, seed=9).per_task[1]
        assert np.array_equal(a.ids, b.ids)

    def test_duplicate_task_rejected(self):
        mem = EpisodicMemory(10)
        task = make_task(30)
        update_eps_mem(mem, task, seed=0)
        with pytest.raises(MemoryStateError):
            update_eps_mem(mem, task, seed=0)

    def test_task_id_comes_from_the_dataset(self):
        mem = update_eps_mem(EpisodicMemory(10), make_task(30, task_id=3), seed=0)
        assert list(mem.per_task) == [3]
        assert np.array_equal(mem.tasks, np.full(10, 3))

    def test_stored_examples_match_source_rows(self):
        mem = EpisodicMemory(20)
        task = make_task(100)
        update_eps_mem(mem, task, seed=1)
        buf = mem.per_task[1]
        lookup = {int(i): row for i, row in zip(task.train_ids, task.train_x)}
        for i, row in zip(buf.ids, buf.x):
            assert np.array_equal(row, lookup[int(i)])


class TestAdd:
    """``add`` takes the task id from the record: one task per buffer, with ids."""

    def rows(self, tasks, ids=np.arange(4)):
        return nn.Batch(np.ones((4, 3)), np.zeros(4, dtype=np.int64), tasks, ids)

    def test_one_id_or_one_id_on_every_row(self):
        mem = EpisodicMemory(10)
        mem.add(self.rows(2))
        mem.add(self.rows(np.full(4, 5), ids=np.arange(4) + 4))
        assert list(mem.per_task) == [2, 5]
        assert np.array_equal(mem.tasks, [2, 2, 2, 2, 5, 5, 5, 5])

    def test_rows_of_several_tasks_rejected(self):
        mem = EpisodicMemory(10)
        with pytest.raises(ConfigurationError, match="one task"):
            mem.add(self.rows(np.array([1, 1, 2, 2])))
        assert len(mem) == 0

    def test_no_task_rejected(self):
        empty = nn.Batch(np.ones((0, 3)), np.zeros(0, dtype=np.int64),
                         np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        with pytest.raises(ConfigurationError, match="one task"):
            EpisodicMemory(10).add(empty)

    def test_rows_without_ids_rejected(self):
        mem = EpisodicMemory(10)
        with pytest.raises(ConfigurationError, match="ids"):
            mem.add(self.rows(1, ids=None))
        assert len(mem) == 0


class TestSampleRefBatch:
    def fill(self, sizes, m=250):
        mem = EpisodicMemory(m)
        for t, n in enumerate(sizes, 1):
            update_eps_mem(mem, make_task(n, task_id=t), seed=t)
        return mem

    def test_empty_memory_signals_none(self):
        assert sample_ref_batch(EpisodicMemory(10), 5, substream(0, "ref-batch")) is None

    def test_requests_above_total_return_everything(self):
        mem = self.fill([25, 15], m=40)
        batch = sample_ref_batch(mem, 256, substream(0, "ref-batch"))
        assert len(batch) == 40

    def test_examples_keep_their_task_ids(self):
        mem = self.fill([30, 30], m=30)
        batch = sample_ref_batch(mem, 20, substream(1, "ref-batch"))
        assert set(np.unique(batch.tasks)) <= {1, 2}
        for t in np.unique(batch.tasks):
            rows = batch.x[batch.tasks == t]
            stored = mem.per_task[int(t)].x
            for row in rows:
                assert any(np.array_equal(row, s) for s in stored)

    def test_task_proportions_uniform(self):
        # two equal buffers: over many draws the task mix is balanced
        mem = self.fill([50, 50], m=50)
        fractions = []
        for seed in range(100):
            batch = sample_ref_batch(mem, 10, substream(seed, "ref-batch"))
            fractions.append(np.mean(batch.tasks == 1))
        assert abs(np.mean(fractions) - 0.5) < 0.05

    def test_marginal_uniform_over_examples(self):
        mem = self.fill([20, 20], m=20)
        counts: dict[int, int] = {}
        draws = 400
        for seed in range(draws):
            batch = sample_ref_batch(mem, 4, substream(seed, "ref-batch"))
            got = 0
            for t in np.unique(batch.tasks):
                buf = mem.per_task[int(t)]
                for row in batch.x[batch.tasks == t]:
                    j = next(i for i, s in enumerate(buf.x) if np.array_equal(row, s))
                    counts[int(buf.ids[j])] = counts.get(int(buf.ids[j]), 0) + 1
                    got += 1
            assert got == 4
        expected = draws * 4 / 40
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # 39 dof; 99.9th percentile is ~72
        assert chi2 < 72


class TestPerTaskBatches:
    """``per_task`` yields one full buffer per stored task, ascending task id."""

    def test_empty(self):
        assert list(EpisodicMemory(5).per_task.items()) == []

    def test_ascending_task_order(self):
        mem = EpisodicMemory(10)
        for t in (3, 1, 2):
            update_eps_mem(mem, make_task(20, task_id=t), seed=t)
        assert [t for t, _ in mem.per_task.items()] == [1, 2, 3]

    def test_one_entry_per_stored_task(self):
        mem = EpisodicMemory(10)
        for t in range(1, 5):
            update_eps_mem(mem, make_task(20, task_id=t), seed=t)
        assert len(mem.per_task.items()) == 4


def per_task_gather(mem, size, rng):
    """Reference draw: the same indices, gathered buffer by buffer."""
    tasks_sorted = sorted(mem.per_task)
    sizes = np.array([len(mem.per_task[t]) for t in tasks_sorted])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    take = min(size, int(offsets[-1]))
    idx = rng.choice(int(offsets[-1]), size=take, replace=False)
    which = np.searchsorted(offsets, idx, side="right") - 1
    local = idx - offsets[which]
    x = np.empty((take, mem.per_task[tasks_sorted[0]].x.shape[1]))
    y = np.empty(take, dtype=np.int64)
    t_out = np.empty(take, dtype=np.int64)
    for pos, task in enumerate(tasks_sorted):
        mask = which == pos
        if mask.any():
            buf = mem.per_task[task]
            x[mask] = buf.x[local[mask]]
            y[mask] = buf.y[local[mask]]
            t_out[mask] = task
    return x, y, t_out


class TestStackedStore:
    def fill(self, order=(4, 1, 3, 2), sizes=(30, 12, 25, 7), m=25):
        mem = EpisodicMemory(m)
        for t, n in zip(order, sizes):
            update_eps_mem(mem, make_task(n, task_id=t), seed=t)
        return mem

    def test_rows_in_ascending_task_order(self):
        mem = self.fill()
        assert list(mem.per_task) == [1, 2, 3, 4]
        assert np.array_equal(mem.tasks, np.repeat([1, 2, 3, 4], [12, 7, 25, 25]))
        assert np.array_equal(mem.bounds, [0, 12, 19, 44, 69])
        assert len(mem) == 69

    @pytest.mark.parametrize("size", [1, 10, 40, 69, 500])
    def test_sample_matches_per_task_gather(self, size):
        mem = self.fill()
        for seed in range(20):
            batch = sample_ref_batch(mem, size, substream(seed, "ref-batch"))
            x, y, tasks = per_task_gather(mem, size, substream(seed, "ref-batch"))
            assert np.array_equal(batch.x, x)
            assert np.array_equal(batch.y, y)
            assert np.array_equal(batch.tasks, tasks)

    def test_per_task_buffers_are_views(self):
        mem = self.fill()
        for task, buf in mem.per_task.items():
            assert isinstance(buf, nn.Batch)
            assert np.shares_memory(buf.x, mem.x)
            assert np.shares_memory(buf.y, mem.y)
            assert np.shares_memory(buf.ids, mem.ids)
            assert np.shares_memory(buf.tasks, mem.tasks)
            assert np.array_equal(buf.tasks, np.full(len(buf), task))
        with pytest.raises(TypeError):
            mem.per_task[9] = mem.per_task[1]

    def test_counted_bytes_unchanged(self):
        # the per-buffer byte sum equals the store's size and what separate
        # per-task copies held
        mem = self.fill()
        counted = sum(b.x.nbytes + b.y.nbytes + b.ids.nbytes for b in mem.per_task.values())
        assert counted == mem.x.nbytes + mem.y.nbytes + mem.ids.nbytes
        separate = 0
        for t, n in zip((4, 1, 3, 2), (30, 12, 25, 7)):
            task = make_task(n, task_id=t)
            k = min(n, 25)
            separate += k * (task.train_x.base.itemsize * task.train_x.shape[1]
                             + task.train_y.itemsize + task.train_ids.itemsize)
        assert counted == separate

    def test_copy_is_independent(self):
        mem = self.fill()
        twin = mem.copy()
        before = [(b.x.copy(), b.y.copy(), b.ids.copy()) for b in mem.per_task.values()]
        assert not np.shares_memory(twin.x, mem.x)
        twin.x[:] = 0.0
        twin.y[:] = -1
        twin.add(nn.Batch(np.ones((2, mem.x.shape[1])), np.zeros(2, dtype=np.int64), 7,
                          np.arange(2)))
        assert 7 not in mem.per_task and len(mem) == 69
        for (x, y, ids), buf in zip(before, mem.per_task.values()):
            assert np.array_equal(buf.x, x)
            assert np.array_equal(buf.y, y)
            assert np.array_equal(buf.ids, ids)

    def test_store_does_not_alias_the_task_data(self):
        task = make_task(10)
        mem = update_eps_mem(EpisodicMemory(20), task, seed=0)
        assert not np.shares_memory(mem.x, task.train_x.base)
