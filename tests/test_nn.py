import numpy as np
import pytest

from llb import nn
from llb.errors import ConfigurationError, MissingHeadError, NumericError
from llb.oracles import finite_diff_grad, naive_mlp_forward


def small_arch():
    return nn.mlp(5, (7, 6), [3, 4])


def random_batch(arch, rng, task=1, n=9):
    classes = dict(arch.heads)[task]
    return nn.Batch(rng.normal(size=(n, arch.input_dim)), rng.integers(0, classes, size=n), task)


class TestParamCount:
    def test_mnist_mlp_closed_form(self):
        arch = nn.mlp(784, (256, 256), [10])
        assert arch.param_count == 784 * 256 + 256 + 256 * 256 + 256 + 256 * 10 + 10
        assert arch.param_count == 269_322

    def test_slices_disjoint_and_cover(self):
        arch = nn.mlp(5, (7, 6), [3, 4, 2])
        lay = nn.layout(arch)
        seen = np.zeros(lay.size, dtype=int)
        for w, b, _, _ in lay.trunk:
            seen[w] += 1
            seen[b] += 1
        for w, b, _ in lay.heads.values():
            seen[w] += 1
            seen[b] += 1
        assert np.all(seen == 1)

    def test_head_slices_live_in_head_region(self):
        arch = nn.mlp(5, (7,), [3, 4])
        lay = nn.layout(arch)
        model = nn.init_model(arch, 0)
        for task in (1, 2):
            sl = model.head_slice(task)
            assert lay.head_region.start <= sl.start < sl.stop <= lay.head_region.stop


class TestInit:
    def test_deterministic(self):
        arch = small_arch()
        a = nn.init_model(arch, 7).theta
        b = nn.init_model(arch, 7).theta
        assert np.array_equal(a, b)

    def test_seed_sensitivity(self):
        arch = small_arch()
        assert not np.array_equal(nn.init_model(arch, 7).theta, nn.init_model(arch, 8).theta)

    def test_biases_zero(self):
        arch = small_arch()
        lay = nn.layout(arch)
        theta = nn.init_model(arch, 3).theta
        for _, b, _, _ in lay.trunk:
            assert np.all(theta[b] == 0.0)

    def test_bad_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            nn.Architecture(0, (4,), ((1, 2),))
        with pytest.raises(ConfigurationError):
            nn.mlp(4, (), [2])

    def test_dimension_overflow_rejected(self):
        with pytest.raises(ConfigurationError, match="too large"):
            nn.mlp(2**20, (2**12,), [10]).param_count


def logits(model, batch):
    """The forward pass: the task's ``Head.logits`` over the trunk output."""
    head = nn.Head(model, batch.tasks)
    _, posts = nn.trunk_forward(model, batch.x)
    return head.logits(posts[-1])


class TestForward:
    def test_zero_params_zero_logits(self):
        arch = small_arch()
        model = nn.Model(arch, np.zeros(arch.param_count))
        batch = nn.Batch(np.ones((4, 5)), np.zeros(4, dtype=int), 1)
        assert np.all(logits(model, batch) == 0.0)

    def test_bias_only_net_passes_bias_through(self):
        # zero weights leave only the head bias pattern in the logits
        arch = nn.mlp(3, (4,), [3])
        theta = np.zeros(arch.param_count)
        model = nn.Model(arch, theta)
        w, b, _ = nn.layout(arch).heads[1]
        theta[b] = [0.5, -1.0, 2.0]
        out = logits(model, nn.Batch(np.ones((2, 3)), np.zeros(2, dtype=int), 1))
        assert np.allclose(out, [[0.5, -1.0, 2.0]] * 2)

    def test_matches_naive_triple_loop(self):
        rng = np.random.default_rng(5)
        arch = small_arch()
        model = nn.init_model(arch, 11)
        lay = nn.layout(arch)
        batch = random_batch(arch, rng, task=2, n=6)
        weights = [model.theta[w].reshape(fi, fo) for w, b, fi, fo in lay.trunk]
        biases = [model.theta[b] for w, b, _, _ in lay.trunk]
        hw, hb, classes = lay.heads[2]
        weights.append(model.theta[hw].reshape(arch.trunk_dim, classes))
        biases.append(model.theta[hb])
        # hidden layers ReLU, output linear
        expected = naive_mlp_forward(weights[:-1], biases[:-1], batch.x, relu_last=True)
        expected = expected @ weights[-1] + biases[-1]
        assert np.allclose(logits(model, batch), expected, atol=1e-12)
        assert np.array_equal(
            nn.predict(model, batch.x, 2), logits(model, batch).argmax(axis=1)
        )

    def test_unknown_task_raises(self):
        model = nn.init_model(small_arch(), 0)
        batch = nn.Batch(np.ones((2, 5)), np.zeros(2, dtype=int), tasks=9)
        with pytest.raises(MissingHeadError):
            logits(model, batch)
        with pytest.raises(MissingHeadError):
            nn.predict(model, batch.x, 9)


class TestLossAndGrad:
    def test_uniform_logits_ln_c(self):
        arch = small_arch()
        model = nn.Model(arch, np.zeros(arch.param_count))
        batch = nn.Batch(np.ones((6, 5)), np.array([0, 1, 2, 0, 1, 2]), 1)
        loss, _ = nn.loss_and_grad(model, batch)
        assert loss == pytest.approx(np.log(3), abs=1e-12)

    def test_duplicated_batch_invariance(self):
        rng = np.random.default_rng(1)
        arch = small_arch()
        model = nn.init_model(arch, 2)
        batch = random_batch(arch, rng)
        doubled = nn.Batch(
            np.vstack([batch.x, batch.x]),
            np.concatenate([batch.y, batch.y]),
            batch.tasks,
        )
        l1, g1 = nn.loss_and_grad(model, batch)
        l2, g2 = nn.loss_and_grad(model, doubled)
        assert l1 == pytest.approx(l2, abs=1e-12)
        assert np.allclose(g1, g2, atol=1e-12)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(42)
        arch = small_arch()
        model = nn.init_model(arch, 4)
        batch = random_batch(arch, rng)
        _, grad = nn.loss_and_grad(model, batch)
        coords = rng.choice(arch.param_count, size=min(200, arch.param_count), replace=False)
        fd = finite_diff_grad(
            lambda t: nn.loss_and_grad(nn.Model(arch, t), batch)[0], model.theta, coords
        )
        rel = np.linalg.norm(grad[coords] - fd) / np.linalg.norm(fd)
        assert rel < 1e-6

    def test_head_isolation(self):
        rng = np.random.default_rng(3)
        arch = nn.mlp(5, (7, 6), [3, 4, 5])
        model = nn.init_model(arch, 4)
        _, grad = nn.loss_and_grad(model, random_batch(arch, rng, task=2))
        assert np.all(grad[model.head_slice(1)] == 0.0)
        assert np.all(grad[model.head_slice(3)] == 0.0)
        assert np.any(grad[model.head_slice(2)] != 0.0)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(8)
        arch = small_arch()
        for seed in range(5):
            model = nn.init_model(arch, seed)
            loss, _ = nn.loss_and_grad(model, random_batch(arch, rng))
            assert loss >= 0.0

    def test_empty_batch_rejected(self):
        model = nn.init_model(small_arch(), 0)
        with pytest.raises(ConfigurationError):
            nn.loss_and_grad(model, nn.Batch(np.zeros((0, 5)), np.zeros(0, dtype=int), 1))

    def test_nonfinite_input_names_layer(self):
        model = nn.init_model(small_arch(), 0)
        bad = nn.Batch(np.full((2, 5), np.inf), np.zeros(2, dtype=int), 1)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="layer 0"):
                nn.loss_and_grad(model, bad)


class TestBatch:
    """One record for every batch of rows: ``tasks`` is one id or one per row."""

    def test_one_id_or_one_per_row(self):
        x, y = np.ones((4, 5)), np.zeros(4, dtype=int)
        assert nn.Batch(x, y, 2).tasks == 2
        assert len(nn.Batch(x, y, np.array([1, 2, 1, 2]), ids=np.arange(4))) == 4

    @pytest.mark.parametrize("tasks", [np.array([1, 1, 1]), np.ones(5, dtype=int),
                                       np.ones((4, 1), dtype=int)])
    def test_tasks_without_one_entry_per_row_rejected(self, tasks):
        with pytest.raises(ConfigurationError, match="tasks"):
            nn.Batch(np.ones((4, 5)), np.zeros(4, dtype=int), tasks=tasks)

    @pytest.mark.parametrize("ids", [np.arange(3), np.arange(5), np.int64(3)])
    def test_ids_without_one_entry_per_row_rejected(self, ids):
        with pytest.raises(ConfigurationError, match="ids"):
            nn.Batch(np.ones((4, 5)), np.zeros(4, dtype=int), tasks=1, ids=ids)

    def test_short_tasks_never_reach_the_kernel(self):
        # the grouped kernel would fail on it with a bare numpy error
        model = nn.init_model(small_arch(), 0)
        with pytest.raises(ConfigurationError, match="tasks"):
            nn.loss_and_grad(model, nn.Batch(np.ones((4, 5)), np.zeros(4, dtype=int),
                                             tasks=np.array([1, 2, 1])))


class TestApplyUpdate:
    def test_zero_grad_no_change(self):
        model = nn.init_model(small_arch(), 1)
        before = model.theta.copy()
        nn.apply_update(model, np.zeros_like(model.theta), 0.5)
        assert np.array_equal(model.theta, before)

    def test_lr_one_grad_theta_zeroes(self):
        model = nn.init_model(small_arch(), 1)
        nn.apply_update(model, model.theta.copy(), 1.0)
        assert np.all(model.theta == 0.0)

    def test_two_steps_equal_summed_grad(self):
        rng = np.random.default_rng(0)
        model = nn.init_model(small_arch(), 1)
        g1 = rng.normal(size=model.theta.shape)
        g2 = rng.normal(size=model.theta.shape)
        stepped, combined = model.copy(), model.copy()
        nn.apply_update(stepped, g1, 0.1)
        nn.apply_update(stepped, g2, 0.1)
        nn.apply_update(combined, g1 + g2, 0.1)
        assert np.allclose(stepped.theta, combined.theta, atol=1e-15)

    def test_nan_grad_raises(self):
        model = nn.init_model(small_arch(), 1)
        before = model.theta.copy()
        bad = np.zeros_like(model.theta)
        bad[3] = np.nan
        with pytest.raises(NumericError):
            nn.apply_update(model, bad, 0.1)
        assert np.array_equal(model.theta, before)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_inf_grad_raises(self, value):
        model = nn.init_model(small_arch(), 1)
        before = model.theta.copy()
        bad = np.zeros_like(model.theta)
        bad[3] = value
        with pytest.raises(NumericError):
            nn.apply_update(model, bad, 0.1)
        assert np.array_equal(model.theta, before)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_a_late_block_leaves_theta(self, value):
        # the bad value sits in the last block: nothing of the earlier
        # blocks may have been written when the update is refused
        model = nn.init_model(nn.mlp(400, (100,), [7]), 1)
        assert model.theta.size > 2 * nn.BLOCK
        before = model.theta.copy()
        bad = np.ones_like(model.theta)
        bad[-2] = value
        with pytest.raises(NumericError):
            nn.apply_update(model, bad, 0.1)
        assert np.array_equal(model.theta, before)

    @pytest.mark.parametrize("lr", [0.0, -0.1, np.nan, np.inf])
    def test_bad_lr_raises_and_leaves_theta(self, lr):
        model = nn.init_model(small_arch(), 1)
        before = model.theta.copy()
        with pytest.raises(ConfigurationError, match="learning rate"):
            nn.apply_update(model, np.ones_like(model.theta), lr)
        assert np.array_equal(model.theta, before)

    def test_wrong_length_raises_and_leaves_theta(self):
        model = nn.init_model(small_arch(), 1)
        before = model.theta.copy()
        with pytest.raises(ConfigurationError, match="gradient length"):
            nn.apply_update(model, np.ones(model.theta.size + 1), 0.1)
        assert np.array_equal(model.theta, before)

    @pytest.mark.parametrize("hidden", [(4,), (100,)])
    def test_in_place_and_bitwise_the_two_rounding_expression(self, hidden):
        # one block and three (the last one partial)
        rng = np.random.default_rng(2)
        model = nn.init_model(nn.mlp(400, hidden, [7]), 3)
        grad = rng.normal(size=model.theta.shape) * 10.0 ** rng.integers(-8, 8, model.theta.size)
        theta = model.theta
        expected = theta - 0.037 * grad
        nn.apply_update(model, grad, 0.037)
        assert model.theta is theta
        assert np.array_equal(theta, expected)

    def test_gradient_may_be_theta_itself(self):
        model = nn.init_model(nn.mlp(400, (100,), [7]), 4)
        expected = model.theta - 0.25 * model.theta
        nn.apply_update(model, model.theta, 0.25)
        assert np.array_equal(model.theta, expected)
