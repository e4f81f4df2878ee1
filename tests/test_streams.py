import os
import struct

import numpy as np
import pytest

from llb.errors import ConfigurationError, IdxFormatError
from llb.memory import EpisodicMemory, update_eps_mem
from llb.rng import substream
from llb.streams import (
    SYNTHETIC_CHUNK_ROWS,
    Minibatches,
    Rows,
    TaskDataset,
    load_mnist_idx,
    make_permuted_stream,
    make_synthetic_split_stream,
    minibatches,
    split_cv_ev,
    synthetic_mnist_base,
)


def write_idx_pair(tmp_path, n=10, rows=4, cols=3, img_magic=0x803, lab_magic=0x801,
                   truncate_images=False):
    pixels = bytes((i * 7) % 256 for i in range(n * rows * cols))
    img = struct.pack(">IIII", img_magic, n, rows, cols) + pixels
    if truncate_images:
        img = img[: len(img) - 5]
    lab = struct.pack(">II", lab_magic, n) + bytes(i % 10 for i in range(n))
    ip = tmp_path / "images-idx3-ubyte"
    lp = tmp_path / "labels-idx1-ubyte"
    ip.write_bytes(img)
    lp.write_bytes(lab)
    return str(ip), str(lp)


class TestIdxLoader:
    def test_fixture_roundtrip(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path)
        x, y = load_mnist_idx(ip, lp)
        assert x.shape == (10, 12) and y.shape == (10,)
        assert x.min() >= 0.0 and x.max() <= 1.0
        # deterministic bytes: pixel (i*7) % 256 scaled by 255
        assert x[0, 1] == pytest.approx(7 / 255)
        assert list(y) == [i % 10 for i in range(10)]

    def test_wrong_image_magic(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, img_magic=0x801)
        with pytest.raises(IdxFormatError, match="magic"):
            load_mnist_idx(ip, lp)

    def test_labels_with_image_magic(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, lab_magic=0x803)
        with pytest.raises(IdxFormatError, match="magic"):
            load_mnist_idx(ip, lp)

    def test_truncated_images(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, truncate_images=True)
        with pytest.raises(IdxFormatError, match="truncated"):
            load_mnist_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        ip, _ = write_idx_pair(tmp_path, n=10)
        lab = struct.pack(">II", 0x801, 8) + bytes(8)
        lp = tmp_path / "short-labels"
        lp.write_bytes(lab)
        with pytest.raises(IdxFormatError, match="mismatch"):
            load_mnist_idx(ip, str(lp))

    @pytest.mark.skipif("LLB_DATA_DIR" not in os.environ, reason="real MNIST not available")
    def test_real_mnist_train_size(self):
        d = os.environ["LLB_DATA_DIR"]
        x, y = load_mnist_idx(
            os.path.join(d, "train-images-idx3-ubyte"),
            os.path.join(d, "train-labels-idx1-ubyte"),
        )
        assert x.shape == (60_000, 784)


class TestPermutedStream:
    def test_first_task_identity(self):
        base = synthetic_mnist_base(200, 100, seed=1, dim=30)
        cont = make_permuted_stream(base, T=3, seed=5, cv_split=1)
        task1 = cont.tasks[0]
        src = base.train_x[task1.train_ids[0] - 2**32]
        assert np.array_equal(task1.train_x[0], src)

    def test_permutations_are_bijections_with_shared_labels(self):
        base = synthetic_mnist_base(300, 150, seed=1, dim=40)
        cont = make_permuted_stream(base, T=4, seed=9, cv_split=1)
        base_hist = np.bincount(base.train_y, minlength=10)
        for task in cont.tasks:
            # a permutation preserves each image's multiset of pixel values
            idx = task.train_ids - task.task_id * 2**32
            assert np.allclose(
                np.sort(task.train_x, axis=1), np.sort(base.train_x[idx], axis=1)
            )
            assert np.array_equal(np.bincount(task.train_y, minlength=10),
                                  np.bincount(base.train_y[idx], minlength=10))
        full = make_permuted_stream(base, T=3, seed=9, cv_split=1)
        hist = sum(np.bincount(t.train_y, minlength=10) for t in full.tasks)
        assert hist.sum() == 3 * len(base.train_y)
        del base_hist

    def test_same_seed_same_stream(self):
        base = synthetic_mnist_base(100, 50, seed=0, dim=20)
        a = make_permuted_stream(base, T=3, seed=4, cv_split=1)
        b = make_permuted_stream(base, T=3, seed=4, cv_split=1)
        for ta, tb in zip(a.tasks, b.tasks):
            assert np.array_equal(ta.train_x, tb.train_x)
            assert np.array_equal(ta.test_x, tb.test_x)

    def test_train_test_use_same_permutation(self):
        from llb.streams import BaseData

        # rows with unique pixel values make the permutation recoverable
        dim, n = 20, 8
        base = BaseData(
            train_x=np.arange(dim)[None, :] + 100.0 * np.arange(n)[:, None],
            train_y=np.arange(n) % 10,
            test_x=np.arange(dim)[None, :] + 1000.0 + 100.0 * np.arange(n)[:, None],
            test_y=np.arange(n) % 10,
        )
        cont = make_permuted_stream(base, T=2, seed=4, cv_split=1)
        t2 = cont.tasks[1]
        src_train = base.train_x[t2.train_ids[0] - 2 * 2**32]
        perm = np.array([int(np.flatnonzero(src_train == v)[0]) for v in t2.train_x[0]])
        assert sorted(perm.tolist()) == list(range(dim))
        test_idx = int(-(t2.test_ids[0] + 1) - 2 * 2**32)
        assert np.array_equal(t2.test_x[0], base.test_x[test_idx][perm])

    def test_too_few_tasks_rejected(self):
        base = synthetic_mnist_base(50, 20, seed=0, dim=10)
        with pytest.raises(ConfigurationError):
            make_permuted_stream(base, T=1, seed=0, cv_split=1)


class TestSyntheticSplitStream:
    def test_without_replacement_partitions_classes(self):
        cont = make_synthetic_split_stream(
            num_classes=100, classes_per_task=5, T=20, seed=3, cv_split=3
        )
        used = [c for t in cont.tasks for c in t.label_set]
        assert len(used) == 100
        assert len(set(used)) == 100

    def test_infeasible_split_rejected(self):
        with pytest.raises(ConfigurationError):
            make_synthetic_split_stream(num_classes=10, classes_per_task=5, T=3, seed=0)

    def test_with_replacement_shards_disjoint(self):
        cont = make_synthetic_split_stream(
            num_classes=6, classes_per_task=3, T=6, with_replacement=True,
            seed=11, cv_split=2, train_per_class=40,
        )
        by_class: dict[int, list[set]] = {}
        for task in cont.tasks:
            for local, c in enumerate(task.label_set):
                ids = set(task.train_ids[task.train_y == local].tolist())
                by_class.setdefault(c, []).append(ids)
        reused = [c for c, shards in by_class.items() if len(shards) > 1]
        assert reused, "with replacement should reuse at least one class"
        for c in reused:
            shards = by_class[c]
            for i in range(len(shards)):
                for j in range(i + 1, len(shards)):
                    assert not (shards[i] & shards[j])

    def test_fixed_seed_reproducible_attributes(self):
        a = make_synthetic_split_stream(num_classes=20, classes_per_task=2, T=5, seed=8, cv_split=2)
        b = make_synthetic_split_stream(num_classes=20, classes_per_task=2, T=5, seed=8, cv_split=2)
        assert np.array_equal(a.attribute_matrix, b.attribute_matrix)
        for ta, tb in zip(a.tasks, b.tasks):
            assert np.array_equal(ta.descriptor, tb.descriptor)
            assert np.array_equal(ta.train_x, tb.train_x)

    def test_attribute_fidelity_linear_reconstruction(self):
        # class means are an exactly linear image of the attribute vectors
        cont = make_synthetic_split_stream(num_classes=30, classes_per_task=3, T=5, seed=2, cv_split=2)
        reconstructed = cont.attribute_matrix @ cont.attr_to_input
        assert np.allclose(reconstructed, cont.class_means, atol=1e-12)

    def test_descriptor_rows_match_label_set(self):
        cont = make_synthetic_split_stream(num_classes=30, classes_per_task=4, T=5, seed=2, cv_split=2)
        for t in cont.tasks:
            assert t.descriptor.shape == (4, 32)
            assert np.array_equal(t.descriptor, cont.attribute_matrix[list(t.label_set)])


class TestSplitCvEv:
    def test_sizes(self):
        cont = make_synthetic_split_stream(num_classes=100, classes_per_task=5, T=20, seed=0, cv_split=3)
        cv, ev = split_cv_ev(cont)
        assert len(cv) == 3 and len(ev) == 17

    def test_boundary_single_ev_task(self):
        base = synthetic_mnist_base(60, 30, seed=0, dim=12)
        cont = make_permuted_stream(base, T=4, seed=0, cv_split=3)
        cv, ev = split_cv_ev(cont)
        assert len(ev) == 1

    def test_label_multiset_preserved(self):
        cont = make_synthetic_split_stream(num_classes=40, classes_per_task=4, T=8, seed=1, cv_split=3)
        cv, ev = split_cv_ev(cont)
        all_labels = sorted(c for t in cv + ev for c in t.label_set)
        orig = sorted(c for t in cont.tasks for c in t.label_set)
        assert all_labels == orig

    def test_bad_cv_split_rejected(self):
        base = synthetic_mnist_base(60, 30, seed=0, dim=12)
        with pytest.raises(ConfigurationError):
            make_permuted_stream(base, T=3, seed=0, cv_split=3)


class TestMinibatches:
    def make_task(self, n=25, dim=4):
        base = synthetic_mnist_base(n * 3, 30, seed=0, dim=dim)
        cont = make_permuted_stream(base, T=2, seed=0, cv_split=1, train_per_task=n)
        return cont.tasks[0]

    def test_batch_sizes_with_short_tail(self):
        task = self.make_task(25)
        batches = minibatches(task, 10, seed=0)
        assert [len(b) for b in batches] == [10, 10, 5]

    def test_single_epoch_yields_each_example_once(self):
        task = self.make_task(25)
        seen = np.concatenate([b.ids for b in minibatches(task, 4, seed=7)])
        assert sorted(seen.tolist()) == sorted(task.train_ids.tolist())

    def test_sixty_thousand_examples_make_6000_batches(self):
        # same arithmetic as one full-size benchmark task
        from llb.streams import TaskDataset

        n = 60_000
        task = TaskDataset(
            task_id=1,
            train_x=np.zeros((n, 1)),
            train_y=np.zeros(n, dtype=np.int64),
            test_x=np.zeros((1, 1)),
            test_y=np.zeros(1, dtype=np.int64),
            descriptor=1,
            label_set=(0,),
        )
        assert len(minibatches(task, 10, seed=0)) == 6000

    def test_multi_epoch_repeats(self):
        task = self.make_task(12)
        batches = minibatches(task, 5, seed=1, epochs=3)
        ids = np.concatenate([b.ids for b in batches])
        counts = {}
        for i in ids:
            counts[int(i)] = counts.get(int(i), 0) + 1
        assert set(counts.values()) == {3}

    def test_epoch_orders_differ(self):
        task = self.make_task(20)
        batches = minibatches(task, 20, seed=1, epochs=2)
        assert not np.array_equal(batches[0].ids, batches[1].ids)


def eager_inputs(base, task, seed, split="train"):
    """A permuted task's inputs as the eager copy ``base.x[rows][:, perm]``.

    Rows come back from the task's sample ids and the permutation is drawn
    again from its substream, so nothing is read from the lazy view.
    """
    k = task.task_id
    dim = base.train_x.shape[1]
    perm = np.arange(dim) if k == 1 else substream(seed, "permute", str(k)).permutation(dim)
    if split == "train":
        return base.train_x[task.train_ids - k * 2**32][:, perm]
    return base.test_x[-task.test_ids - 1 - k * 2**32][:, perm]


class TestLazyRows:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_reads_equal_eager_copies(self, seed):
        base = synthetic_mnist_base(300, 120, seed=seed, dim=20)
        cont = make_permuted_stream(base, T=4, seed=seed, cv_split=1,
                                    train_per_task=90, test_per_task=50)
        for task in cont.tasks:
            train = eager_inputs(base, task, seed)
            test = eager_inputs(base, task, seed, "test")
            assert np.array_equal(task.train_x[:], train)
            assert np.array_equal(np.asarray(task.test_x), test)
            assert np.array_equal(np.array(list(task.train_x)), train)
            assert task.train_x.shape == train.shape and len(task.test_x) == len(test)
            assert task.train_x[7, 3] == train[7, 3]
            assert np.array_equal(task.train_x[-1], train[-1])
            assert np.array_equal(task.test_x[5:9, 2:4], test[5:9, 2:4])
            pos = {int(i): r for r, i in enumerate(task.train_ids)}
            for batch in minibatches(task, 8, seed):
                assert np.array_equal(batch.inputs, train[[pos[int(i)] for i in batch.ids]])
            buf = update_eps_mem(EpisodicMemory(25), task, task.task_id, seed).per_task[task.task_id]
            assert np.array_equal(buf.x, train[[pos[int(i)] for i in buf.ids]])

    @pytest.mark.parametrize("seed", [0, 5])
    def test_fisher_sample_equals_eager_rows(self, seed):
        from llb import nn
        from llb.learners import LearnerState, ewc_consolidate, per_example_squared_grads

        base = synthetic_mnist_base(200, 40, seed=seed, dim=12)
        cont = make_permuted_stream(base, T=3, seed=seed, cv_split=1, train_per_task=60)
        task = cont.tasks[2]
        arch = nn.Architecture(12, (7,), tuple((t.task_id, 10) for t in cont.tasks))
        state = LearnerState(model=nn.init_model(arch, seed),
                             descriptors={t.task_id: t.descriptor for t in cont.tasks})
        ewc_consolidate(state, task, 25, 1.0, seed)
        idx = substream(seed, "fisher", str(task.task_id)).choice(60, size=25, replace=False)
        eager = nn.Batch(eager_inputs(base, task, seed)[idx], task.train_y[idx], task.task_id)
        fisher = per_example_squared_grads(state.model, eager, state.descriptors) / 25
        assert np.array_equal(state.ewc_anchors[0].fisher, fisher)

    def test_tasks_hold_index_arrays_not_copies(self):
        base = synthetic_mnist_base(400, 100, seed=0, dim=30)
        cont = make_permuted_stream(base, T=6, seed=2, cv_split=2,
                                    train_per_task=150, test_per_task=40)
        assert cont.attribute_matrix is None and cont.class_means is None
        for task in cont.tasks:
            for x, src, n in ((task.train_x, base.train_x, 150), (task.test_x, base.test_x, 40)):
                assert x.base is src and np.shares_memory(x.base, src)
                assert isinstance(x, Rows)
                held = (x.rows, x.perm)
                assert all(v.dtype.kind == "i" and v.ndim == 1 for v in held)
                assert sum(v.nbytes for v in held) == (n + 30) * 8

    def test_building_a_stream_allocates_no_task_inputs(self):
        import tracemalloc

        base = synthetic_mnist_base(2000, 500, seed=0, dim=200)
        tracemalloc.start()
        make_permuted_stream(base, T=20, seed=0, cv_split=3)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # one eager task would copy the whole base (4 MB); 20 tasks of
        # indices, labels and sample ids are well under 2 MB
        assert peak < 0.5 * (base.train_x.nbytes + base.test_x.nbytes)

    def test_hand_built_task_from_plain_arrays(self):
        from llb import nn
        from llb.protocol import eval_accuracy

        rng = np.random.default_rng(4)
        train_x, test_x = rng.normal(size=(30, 5)), rng.normal(size=(12, 5))
        task = TaskDataset(
            task_id=1, train_x=train_x, train_y=rng.integers(0, 3, size=30),
            test_x=test_x, test_y=rng.integers(0, 3, size=12),
            descriptor=1, label_set=(0, 1, 2),
        )
        assert isinstance(task.train_x, Rows) and task.train_x.perm is None
        assert task.train_x.base is train_x and task.test_x.base is test_x
        assert np.array_equal(task.train_x[:], train_x)
        assert np.array_equal(np.asarray(task.test_x), test_x)
        assert np.array_equal(task.train_x[[4, 0, 9]], train_x[[4, 0, 9]])
        assert task.train_x[3, 2] == train_x[3, 2] and task.train_x.shape == (30, 5)
        assert np.array_equal(np.array(list(task.test_x)), test_x)
        seen = np.concatenate([b.ids for b in minibatches(task, 7, 0)])
        assert sorted(seen.tolist()) == list(range(30))
        for batch in minibatches(task, 7, 0):
            assert np.array_equal(batch.inputs, train_x[batch.ids])
        buf = update_eps_mem(EpisodicMemory(10), task, 1, 0).per_task[1]
        assert np.array_equal(buf.x, train_x[buf.ids])
        model = nn.init_model(nn.mlp(5, (4,), [3], task_ids=[1]), 0)
        preds = nn.predict(model, test_x, 1)
        assert eval_accuracy(model, task) == float(np.mean(preds == task.test_y))

    def test_rejects_inputs_that_are_not_2d(self):
        with pytest.raises(ConfigurationError):
            Rows(np.zeros(5))


class TestLazyMinibatches:
    def make_task(self, n=23, dim=6, seed=1):
        base = synthetic_mnist_base(3 * n, 10, seed=0, dim=dim)
        return make_permuted_stream(base, T=3, seed=seed, cv_split=1, train_per_task=n).tasks[1]

    def test_same_batches_as_eager_loop(self):
        task = self.make_task()
        lazy = minibatches(task, 5, seed=4, epochs=2)
        x = task.train_x[:]
        eager = []
        for epoch in range(2):
            order = substream(4, "shuffle", str(task.task_id), str(epoch)).permutation(23)
            for start in range(0, 23, 5):
                idx = order[start : start + 5]
                eager.append((x[idx], task.train_y[idx], task.train_ids[idx]))
        assert len(lazy) == len(eager) == 10
        for batch, (bx, by, bids) in zip(lazy, eager):
            assert np.array_equal(batch.inputs, bx)
            assert np.array_equal(batch.labels, by)
            assert np.array_equal(batch.ids, bids)
            assert batch.task == task.task_id
        assert np.array_equal(lazy[-1].ids, eager[-1][2])
        assert [len(b) for b in lazy[3:6]] == [5, 3, 5]
        assert isinstance(lazy[3:6], Minibatches) and len(lazy[::2]) == 5
        with pytest.raises(IndexError):
            lazy[10]

    def test_batches_are_gathered_on_access(self):
        import tracemalloc

        n, dim = 20_000, 100
        task = TaskDataset(
            task_id=1, train_x=np.zeros((n, dim)), train_y=np.zeros(n, dtype=np.int64),
            test_x=np.zeros((1, dim)), test_y=np.zeros(1, dtype=np.int64),
            descriptor=1, label_set=(0,),
        )
        tracemalloc.start()
        batches = minibatches(task, 10, seed=0)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(batches) == 2000
        # the shuffle order (160 kB), not the 16 MB of gathered inputs
        assert peak < 1_000_000


def one_shot_base(n_train, n_test, seed, dim, noise=0.3, class_std=0.2,
                  active_frac=0.4, ink=0.75, background=0.05):
    """The synthetic base drawn with one normal draw per split."""
    rng = substream(seed, "synthetic-mnist")
    profile = np.full(dim, background)
    profile[rng.choice(dim, size=int(active_frac * dim), replace=False)] = ink
    deltas = rng.normal(0.0, class_std, size=(10, dim)) * (profile > background)
    means = np.clip(profile + deltas, 0.0, 1.0)
    out = []
    for n in (n_train, n_test):
        y = rng.integers(0, 10, size=n)
        out += [np.clip(means[y] + rng.normal(0.0, noise, size=(n, dim)), 0.0, 1.0), y]
    return out


class TestSyntheticBaseChunks:
    @pytest.mark.parametrize("n_train,n_test,seed,dim", [
        (2 * SYNTHETIC_CHUNK_ROWS + 37, 10, 0, 784),
        (SYNTHETIC_CHUNK_ROWS, SYNTHETIC_CHUNK_ROWS + 1, 3, 30),
        (7, 3 * SYNTHETIC_CHUNK_ROWS - 1, 11, 12),
        (0, 5, 2, 8),
    ])
    def test_equals_one_shot_draw(self, n_train, n_test, seed, dim):
        base = synthetic_mnist_base(n_train, n_test, seed=seed, dim=dim)
        expected = one_shot_base(n_train, n_test, seed, dim)
        for got, want in zip((base.train_x, base.train_y, base.test_x, base.test_y), expected):
            assert got.shape == want.shape and np.array_equal(got, want)
