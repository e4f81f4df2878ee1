import numpy as np
import pytest

from llb import nn
from llb.embedding import je_loss_and_grad, je_predict, zero_shot_eval
from llb.errors import ConfigurationError
from llb.oracles import finite_diff_grad, naive_matmul, naive_mlp_forward
from llb.streams import make_synthetic_split_stream, split_cv_ev


def je_arch(input_dim=6, hidden=(8, 5), A=4):
    return nn.Architecture(input_dim, hidden, head_mode=nn.JOINT_EMBEDDING, attr_count=A)


def random_batch(rng, input_dim=6, classes=3, n=7):
    return nn.Batch(rng.normal(size=(n, input_dim)), rng.integers(0, classes, size=n), tasks=1)


def class_embeddings(descriptor, table):
    """Head(...).E of a joint-embedding model whose attribute table is ``table``."""
    A, D = table.shape
    arch = je_arch(hidden=(8, D), A=A)
    model = nn.init_model(arch, 0)
    model.theta[nn.layout(arch).table] = table.ravel()
    return nn.Head(model, 1, descriptor).E


def table_logits(model, inputs, descriptor):
    _, posts = nn.trunk_forward(model, inputs)
    return nn.Head(model, 1, descriptor).logits(posts[-1])


class TestEmbedTask:
    def test_one_hot_rows_select_table_rows(self):
        rng = np.random.default_rng(0)
        table = rng.normal(size=(4, 5))
        descriptor = np.eye(4)[[2, 0]]
        emb = class_embeddings(descriptor, table)
        assert np.array_equal(emb, table[[2, 0]])

    def test_zero_descriptor_zero_embedding(self):
        table = np.random.default_rng(0).normal(size=(4, 5))
        assert np.all(class_embeddings(np.zeros((3, 4)), table) == 0.0)

    def test_matches_naive_matmul(self):
        rng = np.random.default_rng(1)
        table = rng.normal(size=(6, 7))
        descriptor = rng.normal(size=(4, 6))
        assert np.allclose(
            class_embeddings(descriptor, table), naive_matmul(descriptor, table), atol=1e-12
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            class_embeddings(np.zeros((2, 3)), np.zeros((4, 5)))


class TestJeForward:
    """The joint-embedding forward pass, as ``je_predict`` runs it."""

    def test_per_task_model_rejected(self):
        model = nn.init_model(nn.mlp(6, (8, 5), [3]), 0)
        with pytest.raises(ConfigurationError, match="joint-embedding"):
            je_predict(model, np.zeros((2, 6)), np.zeros((3, 4)))

    def test_predictions_match_naive_forward(self):
        rng = np.random.default_rng(9)
        arch = je_arch()
        model = nn.init_model(arch, 7)
        lay = nn.layout(arch)
        weights = [model.theta[w].reshape(fi, fo) for w, b, fi, fo in lay.trunk]
        biases = [model.theta[b] for w, b, _, _ in lay.trunk]
        table = model.theta[lay.table].reshape(arch.attr_count, arch.trunk_dim)
        desc = rng.normal(size=(5, arch.attr_count))
        x = rng.normal(size=(40, arch.input_dim))
        h = naive_mlp_forward(weights, biases, x, relu_last=True)
        expected = naive_matmul(h, naive_matmul(desc, table).T).argmax(axis=1)
        assert np.array_equal(je_predict(model, x, desc), expected)


class TestJeLossAndGrad:
    def test_finite_difference_both_blocks(self):
        rng = np.random.default_rng(5)
        arch = je_arch()
        model = nn.init_model(arch, 3)
        desc = rng.integers(0, 2, size=(3, 4)).astype(float)
        desc[0, 0] = 1.0  # make sure attribute 0 is present
        batch = random_batch(rng)
        _, grad = je_loss_and_grad(model, batch, desc)
        lay = nn.layout(arch)
        trunk_coords = rng.choice(lay.table.start, 60, replace=False)
        table_coords = np.arange(lay.table.start, lay.table.stop)
        coords = np.concatenate([trunk_coords, table_coords])

        def loss_fn(theta):
            return je_loss_and_grad(nn.Model(arch, theta), batch, desc)[0]

        fd = finite_diff_grad(loss_fn, model.theta, coords)
        rel = np.linalg.norm(grad[coords] - fd) / np.linalg.norm(fd)
        assert rel < 1e-6

    def test_absent_attribute_gets_zero_gradient(self):
        rng = np.random.default_rng(6)
        arch = je_arch(A=5)
        model = nn.init_model(arch, 4)
        desc = rng.integers(0, 2, size=(3, 5)).astype(float)
        desc[:, 2] = 0.0  # attribute 2 absent from every class
        _, grad = je_loss_and_grad(model, random_batch(rng), desc)
        lay = nn.layout(arch)
        table_grad = grad[lay.table].reshape(5, arch.trunk_dim)
        assert np.all(table_grad[2] == 0.0)
        assert np.any(table_grad[np.flatnonzero(desc.any(axis=0))] != 0.0)

    def test_duplicated_batch_same_grad(self):
        rng = np.random.default_rng(7)
        model = nn.init_model(je_arch(), 5)
        desc = rng.integers(0, 2, size=(3, 4)).astype(float)
        batch = random_batch(rng)
        doubled = nn.Batch(
            np.vstack([batch.x, batch.x]),
            np.concatenate([batch.y, batch.y]),
            1,
        )
        l1, g1 = je_loss_and_grad(model, batch, desc)
        l2, g2 = je_loss_and_grad(model, doubled, desc)
        assert l1 == pytest.approx(l2, abs=1e-12)
        assert np.allclose(g1, g2, atol=1e-12)


class TestZeroShot:
    def stream(self, seed=0):
        return make_synthetic_split_stream(
            num_classes=30, classes_per_task=5, T=5, A=16, seed=seed,
            cv_split=2, input_dim=12, train_per_class=30, test_per_class=30,
        )

    def test_untrained_model_is_chance_level(self):
        cont = self.stream()
        arch = nn.Architecture(12, (10, 8), head_mode=nn.JOINT_EMBEDDING, attr_count=16)
        accs = [zero_shot_eval(nn.init_model(arch, s), cont.tasks[0]) for s in range(30)]
        # 150 test points, 5 classes: binomial 3 sigma around 0.2
        assert abs(np.mean(accs) - 0.2) < 3 * np.sqrt(0.2 * 0.8 / (150 * 30))

    def test_trained_task_beats_chance(self):
        from llb.learners import LearnerState, vanilla_step
        from llb.streams import minibatches

        cont = self.stream(seed=1)
        task = cont.tasks[0]
        arch = nn.Architecture(12, (10, 8), head_mode=nn.JOINT_EMBEDDING, attr_count=16)
        state = LearnerState(model=nn.init_model(arch, 0))
        state.descriptors[task.task_id] = task.descriptor
        for _ in range(3):
            for batch in minibatches(task, 10, 0, epochs=1):
                vanilla_step(state, batch, 0.1)
        assert zero_shot_eval(state.model, task) > 0.4

    def test_integer_descriptor_rejected(self):
        from llb.streams import make_permuted_stream, synthetic_mnist_base

        base = synthetic_mnist_base(60, 40, seed=0, dim=12)
        cont = make_permuted_stream(base, T=2, seed=0, cv_split=1)
        arch = nn.Architecture(12, (10, 8), head_mode=nn.JOINT_EMBEDDING, attr_count=16)
        with pytest.raises(ConfigurationError, match="integer descriptor"):
            zero_shot_eval(nn.init_model(arch, 0), cont.tasks[0])


class TestSharedTableCoupling:
    def test_zero_shot_logits_move_iff_descriptors_share_attributes(self):
        # with a frozen trunk, a table-only update from task j moves task k's
        # zero-shot logits exactly when their descriptors share a nonzero
        # attribute column
        rng = np.random.default_rng(8)
        arch = je_arch(input_dim=6, hidden=(8, 5), A=6)
        model = nn.init_model(arch, 6)
        lay = nn.layout(arch)
        desc_j = np.array([[1, 1, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0]], dtype=float)
        desc_shared = np.array([[0, 0, 1, 1, 0, 0]], dtype=float)      # shares attr 2
        desc_disjoint = np.array([[0, 0, 0, 0, 1, 1]], dtype=float)    # shares nothing
        batch_j = nn.Batch(rng.normal(size=(6, 6)), rng.integers(0, 2, 6), 1)
        _, grad = je_loss_and_grad(model, batch_j, desc_j)
        grad_table_only = np.zeros_like(grad)
        grad_table_only[lay.table] = grad[lay.table]
        moved = model.copy()
        nn.apply_update(moved, grad_table_only, 0.5)

        probe = rng.normal(size=(4, 6))
        before_shared = table_logits(model, probe, desc_shared)
        after_shared = table_logits(moved, probe, desc_shared)
        before_disj = table_logits(model, probe, desc_disjoint)
        after_disj = table_logits(moved, probe, desc_disjoint)
        assert not np.allclose(before_shared, after_shared, atol=1e-12)
        assert np.allclose(before_disj, after_disj, atol=1e-15)
