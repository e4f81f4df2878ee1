import functools
import inspect
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llb import learners, nn
from llb.learners import (
    LEARNERS,
    EwcAnchor,
    LearnerState,
    agem_project,
    agem_step,
    batch_loss_and_grad,
    certified_positive,
    ewc_consolidate,
    ewc_penalty_and_grad,
    ewc_step,
    factors_pay,
    gem_step,
    make_learner,
    mixed_loss_and_grad,
    multitask_train,
    per_example_squared_grads,
    sgem_step,
    vanilla_step,
)
from llb.memory import EpisodicMemory, sample_ref_batch, update_eps_mem
from llb.oracles import finite_diff_grad, halfspace_projection_nnls
from llb.protocol import HyperParams
from llb.qp import DualProblem
from llb.rng import substream
from llb.streams import make_permuted_stream, minibatches, synthetic_mnist_base


def small_stream(T=3, n=60, dim=8, seed=0):
    base = synthetic_mnist_base(4 * n, 60, seed=seed, dim=dim)
    return make_permuted_stream(base, T=T, seed=seed, cv_split=1, train_per_task=n, test_per_task=30)


def fresh_state(stream, hidden=(10, 9), seed=0, memory=None):
    heads = tuple((t.task_id, t.num_classes) for t in stream.tasks)
    arch = nn.Architecture(stream.tasks[0].train_x.shape[1], hidden, heads)
    state = LearnerState(model=nn.init_model(arch, seed), memory=memory)
    for t in stream.tasks:
        state.descriptors[t.task_id] = t.descriptor
    return state


def first_batch(task, B=10, seed=0):
    return minibatches(task, B, seed)[0]


class TestVanilla:
    def test_definitional(self):
        stream = small_stream()
        state = fresh_state(stream)
        batch = first_batch(stream.tasks[0])
        _, grad = batch_loss_and_grad(state.model, batch, state.descriptors)
        expected = state.model.copy()
        nn.apply_update(expected, grad, 0.05)
        vanilla_step(state, batch, 0.05)
        assert np.array_equal(state.model.theta, expected.theta)

    def test_zero_gradient_batch_no_change(self):
        # a single-class head has identically zero loss and gradient
        stream = small_stream()
        arch = nn.mlp(8, (6,), [1])
        state = LearnerState(model=nn.init_model(arch, 0))
        batch = nn.Batch(np.ones((4, 8)), np.zeros(4, dtype=int), 1)
        before = state.model.theta.copy()
        vanilla_step(state, batch, 0.1)
        assert np.array_equal(state.model.theta, before)
        del stream

    def test_violation_count_stays_zero(self):
        stream = small_stream()
        state = fresh_state(stream)
        for batch in minibatches(stream.tasks[0], 10, 0):
            vanilla_step(state, batch, 0.05)
        assert state.violation_count == 0


class TestProjection:
    def test_satisfied_passes_through(self):
        proj = agem_project(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert not proj.violated
        assert np.array_equal(proj.g_tilde, [1.0, 1.0])

    def test_violated_projects_to_half_space_boundary(self):
        proj = agem_project(np.array([1.0, 0.0]), np.array([-1.0, 1.0]))
        assert proj.violated
        assert np.allclose(proj.g_tilde, [0.5, 0.5])

    def test_antiparallel_projects_to_zero(self):
        proj = agem_project(np.array([-2.0, 0.0]), np.array([1.0, 0.0]))
        assert proj.violated
        assert np.allclose(proj.g_tilde, [0.0, 0.0])

    def test_degenerate_reference_passes_through(self):
        g = np.array([1.0, 2.0])
        proj = agem_project(g, np.zeros(2))
        assert not proj.violated
        assert proj.g_tilde is g

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000))
    def test_orthogonality_after_projection(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 64))
        g, g_ref = rng.normal(size=p), rng.normal(size=p)
        proj = agem_project(g, g_ref)
        if proj.violated:
            bound = 1e-9 * np.linalg.norm(g) * np.linalg.norm(g_ref)
            assert abs(proj.g_tilde @ g_ref) <= bound

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_minimality_vs_numerical_solver(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 64))
        g, g_ref = rng.normal(size=p), rng.normal(size=p)
        proj = agem_project(g, g_ref)
        z = halfspace_projection_nnls(g, g_ref)
        assert np.linalg.norm(g - proj.g_tilde) <= np.linalg.norm(g - z) + 1e-6

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_projection_into_the_reference_buffer(self, seed):
        # the same two roundings as the allocating form, bit for bit
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 64))
        g, g_ref = rng.normal(size=p), rng.normal(size=p)
        fresh = agem_project(g, g_ref)
        buffer = g_ref.copy()
        proj = agem_project(g, buffer, out=buffer)
        assert proj.violated == fresh.violated
        assert np.array_equal(proj.g_tilde, fresh.g_tilde)
        if proj.violated:
            assert proj.g_tilde is buffer
        else:
            assert proj.g_tilde is g and np.array_equal(buffer, g_ref)


def factor_case(seed, dims, rows, ref_rows, tilt):
    """A gradient g and a reference g_ref whose trunk weight blocks are
    input.T @ delta of random factors, with g . g_ref moved to about
    ``tilt`` |g| |g_ref| through one head entry of g_ref.

    Returns the model, g, the whole g_ref, the factors, and a copy of g_ref
    whose trunk weight blocks are NaN, as a deferred gradient leaves them.
    """
    rng = np.random.default_rng(seed)
    arch = nn.Architecture(dims[0], tuple(dims[1:]), ((1, 3), (2, 4)))
    lay = nn.layout(arch)

    def side(n):
        factors = [(w, rng.normal(size=(n, fan_in)), rng.normal(size=(n, fan_out)))
                   for w, _, fan_in, fan_out in lay.trunk]
        vector = rng.normal(size=lay.size)
        nn.finish_trunk_weights(vector, factors)
        return vector, factors

    g, batch_factors = side(rows)
    g_ref, ref_factors = side(ref_rows)
    k = lay.head_region.start
    target = tilt * np.linalg.norm(g) * np.linalg.norm(g_ref)
    g_ref[k] += (target - float(g @ g_ref)) / g[k]
    deferred = g_ref.copy()
    for w, _, _, _ in lay.trunk:
        deferred[w] = np.nan
    return nn.init_model(arch, 0), g, g_ref, batch_factors, ref_factors, deferred


class TestCertifiedConstraint:
    """``certified_positive`` may say "satisfied" only when the dot that
    ``agem_project`` computes from the whole vectors is > 0."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        dims=st.lists(st.integers(32, 40), min_size=2, max_size=3),
        rows=st.integers(1, 2),
        ref_rows=st.integers(1, 12),
        tilt=st.one_of(
            st.sampled_from([-0.3, -1e-9, -1e-13, -1e-15, 0.0, 1e-15, 1e-13, 1e-11, 1e-9, 0.3]),
            st.floats(-1e-6, 1e-6),
        ),
    )
    def test_satisfied_only_when_the_exact_dot_is_positive(self, seed, dims, rows, ref_rows, tilt):
        model, g, g_ref, fb, fr, deferred = factor_case(seed, dims, rows, ref_rows, tilt)
        assert factors_pay(model, rows)    # 32 * 32 >= 8 * 2 * (32 + 32)
        certified = certified_positive(model, g, deferred, fb, fr)
        if certified:
            assert float(g @ g_ref) > 0.0
            assert not agem_project(g, g_ref).violated
        if tilt >= 1e-6:    # far from the round-off bound: the check must see it
            assert certified

    @pytest.mark.parametrize("tilt", [0.0, -1e-15, 1e-15, -1e-9])
    def test_near_orthogonal_falls_back(self, tilt):
        for seed in range(20):
            model, g, _, fb, fr, deferred = factor_case(seed, (40, 40, 40), 2, 30, tilt)
            assert not certified_positive(model, g, deferred, fb, fr), seed

    @pytest.mark.parametrize("bad", ["nan", "inf", "huge", "zero"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_or_extreme_factors_fall_back(self, bad, side):
        model, g, _, fb, fr, deferred = factor_case(3, (40, 40, 40), 2, 30, 0.3)
        assert certified_positive(model, g, deferred, fb, fr)
        _, h, d = (fb, fr)[side][1]
        if bad == "nan":
            h[0, 0] = np.nan
        elif bad == "inf":
            d[-1, -1] = np.inf
        elif bad == "huge":
            h *= 2.0**260
        else:
            d[:] = 0.0
        assert not certified_positive(model, g, deferred, fb, fr)

    def test_pays_only_for_wide_layers(self):
        wide = nn.Architecture(784, (256, 256), ((1, 10),))
        narrow = nn.Architecture(64, (64, 64), head_mode=nn.JOINT_EMBEDDING, attr_count=32)
        assert factors_pay(nn.Model(wide, np.zeros(wide.param_count)), 10)
        assert not factors_pay(nn.Model(wide, np.zeros(wide.param_count)), 80)
        assert not factors_pay(nn.Model(narrow, np.zeros(narrow.param_count)), 10)

    @pytest.mark.parametrize("head_mode", [nn.PER_TASK, nn.JOINT_EMBEDDING])
    @pytest.mark.parametrize("tasks", [[2, 5, 2, 8, 5, 2], [5, 5, 5]])
    def test_deferred_blocks_finish_bit_for_bit(self, head_mode, tasks):
        model, classes_of, descriptors, rng = mixed_setup(head_mode, [3, 4, 3], 2)
        mixed = mixed_batch(rng, classes_of, tasks)
        if len(set(tasks)) == 1:    # one task: the ungrouped kernel
            mixed = nn.Batch(mixed.x, mixed.y, tasks[0])
            grad = functools.partial(batch_loss_and_grad, model, mixed, descriptors)
        else:
            grad = functools.partial(mixed_loss_and_grad, model, mixed, descriptors)
        _, whole = grad()
        factors = []
        out = np.full_like(model.theta, np.nan)
        grad(out, factors)
        weights = [w for w, _, _, _ in nn.layout(model.arch).trunk]
        assert [w for w, _, _ in factors] == weights[::-1]
        assert all(np.isnan(out[w]).all() for w in weights)
        nn.finish_trunk_weights(out, factors)
        assert np.array_equal(out, whole)


class TestAGemStep:
    def test_empty_memory_equals_vanilla(self):
        stream = small_stream()
        sa = fresh_state(stream, memory=EpisodicMemory(20))
        sv = fresh_state(stream)
        batch = first_batch(stream.tasks[0])
        agem_step(sa, batch, 0.05, 16, substream(0, "ref-batch"))
        vanilla_step(sv, batch, 0.05)
        assert np.array_equal(sa.model.theta, sv.model.theta)
        assert sa.violation_count == 0

    def test_satisfied_constraint_equals_vanilla(self):
        stream = small_stream()
        mem = EpisodicMemory(30)
        update_eps_mem(mem, stream.tasks[0], seed=0)
        state = fresh_state(stream, memory=mem)
        batch = first_batch(stream.tasks[0])  # same task: gradients aligned
        ref = sample_ref_batch(mem, 30, substream(5, "ref-batch"))
        _, g = batch_loss_and_grad(state.model, batch, state.descriptors)
        _, g_ref = mixed_loss_and_grad(state.model, ref, state.descriptors)
        expected_vanilla = g @ g_ref >= 0
        twin = fresh_state(stream)
        agem_step(state, batch, 0.05, 30, substream(5, "ref-batch"))
        vanilla_step(twin, batch, 0.05)
        if expected_vanilla:
            assert np.array_equal(state.model.theta, twin.model.theta)
            assert state.violation_count == 0
        else:
            assert state.violation_count == 1

    def test_projection_gives_nonincreasing_memory_loss_direction(self):
        # after a violated projection, the directional derivative of the
        # memory loss along the applied update is <= 0 (first order)
        stream = small_stream(T=3, n=80)
        mem = EpisodicMemory(40)
        update_eps_mem(mem, stream.tasks[0], seed=0)
        update_eps_mem(mem, stream.tasks[1], seed=0)
        state = fresh_state(stream, memory=mem, seed=3)
        found = 0
        for batch in minibatches(stream.tasks[2], 5, 1):
            ref = sample_ref_batch(mem, 64, substream(7, "ref-batch"))
            _, g = batch_loss_and_grad(state.model, batch, state.descriptors)
            _, g_ref = mixed_loss_and_grad(state.model, ref, state.descriptors)
            proj = agem_project(g, g_ref)
            if proj.violated:
                found += 1
                eps = 1e-6

                def mem_loss(theta):
                    return mixed_loss_and_grad(
                        nn.Model(state.model.arch, theta), ref, state.descriptors
                    )[0]

                drop = mem_loss(state.model.theta - eps * proj.g_tilde) - mem_loss(
                    state.model.theta
                )
                assert drop / eps <= 1e-6
            vanilla_step(state, batch, 0.05)
        assert found > 0

    @pytest.mark.parametrize("hidden, rows, pays", [((6,), 4, False), ((64, 64), 2, True)])
    def test_zero_reference_gradient_equals_vanilla(self, hidden, rows, pays, monkeypatch):
        # a one-class head has exactly zero loss gradient, so a memory of a
        # one-class task makes g_ref zero and agem_project passes g through;
        # where factors pay, the certificate declines (zero factor norms) first
        arch = nn.Architecture(64, hidden, ((1, 1), (2, 3)))
        rng = np.random.default_rng(0)
        mem = EpisodicMemory(8)
        mem.add(nn.Batch(rng.normal(size=(8, 64)), np.zeros(8, dtype=int), 1, np.arange(8)))
        state = LearnerState(model=nn.init_model(arch, 0), memory=mem)
        twin = LearnerState(model=nn.init_model(arch, 0))
        batch = nn.Batch(rng.normal(size=(rows, 64)), rng.integers(0, 3, size=rows), 2)
        assert factors_pay(state.model, rows) is pays
        results = {}

        def spy(fn):
            def wrapped(*args, **kwargs):
                results[fn.__name__] = fn(*args, **kwargs)
                return results[fn.__name__]
            return wrapped

        monkeypatch.setattr(learners, "certified_positive", spy(certified_positive))
        monkeypatch.setattr(learners, "agem_project", spy(agem_project))
        agem_step(state, batch, 0.05, 8, substream(0, "ref-batch"))
        vanilla_step(twin, batch, 0.05)
        assert not np.any(state.g_ref)
        assert results.pop("agem_project").violated is False
        assert results == ({"certified_positive": False} if pays else {})
        assert np.array_equal(state.model.theta, twin.model.theta)
        assert state.violation_count == 0


def per_task_loop_loss_and_grad(model, mixed, descriptors):
    """Reference for the grouped head: one softmax and head pass per task."""
    n = len(mixed)
    lay = nn.layout(model.arch)
    pres, posts = nn.trunk_forward(model, mixed.x)
    phi = posts[-1]
    grad = np.zeros_like(model.theta)
    d_hidden = np.zeros_like(phi)
    total = 0.0
    table = None
    if model.arch.head_mode == nn.JOINT_EMBEDDING:
        table = model.theta[lay.table].reshape(model.arch.attr_count, model.arch.trunk_dim)
        table_grad = grad[lay.table].reshape(table.shape)
    for t in np.unique(mixed.tasks):
        rows = np.flatnonzero(mixed.tasks == t)
        labels = mixed.y[rows]
        if table is None:
            w, b, classes = model._head(int(t))
            W_head = model.theta[w].reshape(model.arch.trunk_dim, classes)
            logits = phi[rows] @ W_head + model.theta[b]
            loss_t, dlogits = nn.softmax_cross_entropy(logits, labels)
            dlogits *= len(rows) / n
            grad[w] = (phi[rows].T @ dlogits).ravel()
            grad[b] = dlogits.sum(axis=0)
            d_hidden[rows] = dlogits @ W_head.T
        else:
            desc = np.asarray(descriptors[int(t)], dtype=np.float64)
            class_emb = desc @ table
            logits = phi[rows] @ class_emb.T
            loss_t, dlogits = nn.softmax_cross_entropy(logits, labels)
            dlogits *= len(rows) / n
            table_grad += desc.T @ (dlogits.T @ phi[rows])
            d_hidden[rows] = dlogits @ class_emb
        total += (len(rows) / n) * loss_t
    if table is not None:
        grad[lay.table] = table_grad.ravel()
    nn._backprop_trunk(model, pres, posts, d_hidden, grad)
    return total, grad


def mixed_setup(head_mode, class_counts, seed, dim=7, hidden=(11, 10), attrs=13):
    """A model with one head (or descriptor) per entry of ``class_counts``."""
    rng = np.random.default_rng(seed)
    task_ids = [3 * k + 2 for k in range(len(class_counts))]   # not 0..T-1
    if head_mode == nn.PER_TASK:
        arch = nn.Architecture(dim, hidden, tuple(zip(task_ids, class_counts)))
        descriptors = dict(zip(task_ids, task_ids))
    else:
        arch = nn.Architecture(dim, hidden, head_mode=nn.JOINT_EMBEDDING, attr_count=attrs)
        descriptors = {t: rng.integers(0, 2, size=(c, attrs)).astype(float) * rng.random((c, attrs))
                       for t, c in zip(task_ids, class_counts)}
    model = nn.init_model(arch, seed)
    region = nn.layout(arch).head_region        # random heads: no zero or tied logits
    model.theta[region] = rng.normal(size=region.stop - region.start)
    return model, dict(zip(task_ids, class_counts)), descriptors, rng


def mixed_batch(rng, classes_of, tasks, dim=7):
    tasks = np.asarray(tasks, dtype=np.int64)
    y = np.array([rng.integers(0, classes_of[int(t)]) for t in tasks], dtype=np.int64)
    return nn.Batch(rng.normal(size=(len(tasks), dim)), y, tasks)


HEAD_MODES = (nn.PER_TASK, nn.JOINT_EMBEDDING)


class TestGroupedMixedHead:
    """The grouped head against the per-task loop: equal bits, not a tolerance."""

    def assert_exact(self, model, batch, descriptors):
        loss, grad = mixed_loss_and_grad(model, batch, descriptors)
        ref_loss, ref_grad = per_task_loop_loss_and_grad(model, batch, descriptors)
        assert np.array_equal(loss, ref_loss)
        assert np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("head_mode", HEAD_MODES)
    @pytest.mark.parametrize("seed", range(6))
    def test_interleaved_unsorted_tasks(self, head_mode, seed):
        model, classes_of, descriptors, rng = mixed_setup(head_mode, [5, 5, 5, 5, 5], seed)
        tasks = rng.choice(list(classes_of), size=int(rng.integers(20, 140)))
        self.assert_exact(model, mixed_batch(rng, classes_of, tasks), descriptors)

    @pytest.mark.parametrize("head_mode", HEAD_MODES)
    def test_single_row_groups(self, head_mode):
        model, classes_of, descriptors, rng = mixed_setup(head_mode, [4, 2, 9, 4, 1, 7], 1)
        ids = list(classes_of)
        for tasks in (ids[::-1], [ids[2], ids[0]], [ids[3]], ids[:3] + ids[4:] * 5):
            self.assert_exact(model, mixed_batch(rng, classes_of, tasks), descriptors)

    @pytest.mark.parametrize("head_mode", HEAD_MODES)
    @pytest.mark.parametrize("rows", [1, 7, 8, 9, 64])
    def test_one_task(self, head_mode, rows):
        model, classes_of, descriptors, rng = mixed_setup(head_mode, [3, 10], 2)
        batch = mixed_batch(rng, classes_of, [2] * rows)
        self.assert_exact(model, batch, descriptors)
        # nn.loss_and_grad or je_loss_and_grad: the kernel's one-task path
        loss, grad = batch_loss_and_grad(model, nn.Batch(batch.x, batch.y, 2), descriptors)
        ref_loss, ref_grad = per_task_loop_loss_and_grad(model, batch, descriptors)
        assert np.array_equal(loss, ref_loss)
        assert np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("head_mode", HEAD_MODES)
    @pytest.mark.parametrize("seed", range(6))
    def test_unequal_class_counts(self, head_mode, seed):
        # 1-class heads, and widths on both sides of numpy's 8-wide pairwise block
        counts = [1, 3, 7, 8, 9, 12, 3, 1, 16]
        model, classes_of, descriptors, rng = mixed_setup(head_mode, counts, seed)
        tasks = rng.choice(list(classes_of), size=int(rng.integers(30, 200)))
        self.assert_exact(model, mixed_batch(rng, classes_of, tasks), descriptors)

    @pytest.mark.parametrize("head_mode", HEAD_MODES)
    @pytest.mark.parametrize("label", [-1, 5, 6])
    def test_out_of_range_label_names_task(self, head_mode, label):
        from llb.errors import ConfigurationError

        model, classes_of, descriptors, rng = mixed_setup(head_mode, [9, 5, 9], 3)
        batch = mixed_batch(rng, classes_of, [2, 8, 5, 5, 2, 8])
        batch.y[3] = label     # task 5 has 5 classes
        with pytest.raises(ConfigurationError, match="labels out of range for task 5"):
            mixed_loss_and_grad(model, batch, descriptors)

    def test_non_finite_logits_name_task(self):
        from llb.errors import NumericError

        model, classes_of, descriptors, rng = mixed_setup(nn.PER_TASK, [9, 5, 9], 3)
        _, b, _ = model._head(5)
        model.theta[b] = np.inf
        batch = mixed_batch(rng, classes_of, [2, 8, 5, 5, 2, 8])
        with pytest.raises(NumericError, match="non-finite logits for task 5"):
            mixed_loss_and_grad(model, batch, descriptors)


class TestGemStep:
    def test_no_stored_tasks_is_vanilla(self):
        stream = small_stream()
        sg = fresh_state(stream, memory=EpisodicMemory(20))
        sv = fresh_state(stream)
        batch = first_batch(stream.tasks[0])
        gem_step(sg, batch, 0.05)
        vanilla_step(sv, batch, 0.05)
        assert np.array_equal(sg.model.theta, sv.model.theta)

    def test_zero_memory_gradients_is_vanilla(self):
        # single-class tasks stored in memory give identically zero rows
        arch = nn.mlp(4, (5,), [1, 1, 3], task_ids=[1, 2, 3])
        mem = EpisodicMemory(10)
        rng = np.random.default_rng(0)
        for t in (1, 2):
            from llb.streams import TaskDataset

            ds = TaskDataset(
                task_id=t,
                train_x=rng.normal(size=(8, 4)),
                train_y=np.zeros(8, dtype=np.int64),
                test_x=rng.normal(size=(2, 4)),
                test_y=np.zeros(2, dtype=np.int64),
                descriptor=t,
                label_set=(0,),
            )
            update_eps_mem(mem, ds, seed=t)
        state = LearnerState(model=nn.init_model(arch, 1), memory=mem)
        twin = LearnerState(model=nn.init_model(arch, 1))
        batch = nn.Batch(rng.normal(size=(6, 4)), rng.integers(0, 3, 6), 3)
        gem_step(state, batch, 0.1)
        vanilla_step(twin, batch, 0.1)
        assert np.array_equal(state.model.theta, twin.model.theta)
        assert state.violation_count == 0

    def test_single_stored_task_matches_agem(self):
        # one stored task and a reference batch covering the whole buffer
        # make the two updates identical
        stream = small_stream(T=2, n=50)
        mem = EpisodicMemory(50)
        update_eps_mem(mem, stream.tasks[0], seed=0)
        sg = fresh_state(stream, memory=mem, seed=2)
        sa = fresh_state(stream, memory=mem.copy(), seed=2)
        for batch in minibatches(stream.tasks[1], 5, 3):
            gem_step(sg, batch, 0.05)
            agem_step(sa, batch, 0.05, ref_size=50, rng=substream(0, "ref-batch"))
        assert sg.violation_count == sa.violation_count
        assert np.allclose(sg.model.theta, sa.model.theta, atol=1e-9)

    def test_projected_update_satisfies_stored_constraints(self):
        stream = small_stream(T=3, n=60)
        mem = EpisodicMemory(30)
        update_eps_mem(mem, stream.tasks[0], seed=0)
        update_eps_mem(mem, stream.tasks[1], seed=0)
        state = fresh_state(stream, memory=mem, seed=4)
        from llb.learners import _memory_gradient_rows

        for batch in minibatches(stream.tasks[2], 5, 5)[:10]:
            theta_before = state.model.theta.copy()
            gem_step(state, batch, 0.05)
            applied = (theta_before - state.model.theta) / 0.05
            before = nn.Model(state.model.arch, theta_before)
            rows = _memory_gradient_rows(
                LearnerState(model=before, memory=mem, descriptors=state.descriptors)
            )
            assert np.min(rows @ applied) >= -1e-6


    def test_no_solver_knobs(self):
        assert list(inspect.signature(gem_step).parameters) == ["state", "batch", "lr"]
        stream = small_stream()
        state = fresh_state(stream, memory=EpisodicMemory(20))
        batch = first_batch(stream.tasks[0])
        for knob in ({"tol": 1e-7}, {"max_iter": 10_000}):
            with pytest.raises(TypeError):
                gem_step(state, batch, 0.05, **knob)

    def test_unsettled_dual_raises(self, monkeypatch):
        import llb.learners as learners
        from llb.errors import NumericError

        class NegatedGram(DualProblem):
            # -G G^T is not PSD: the active set cycles until the solve cap
            @classmethod
            def from_gradients(cls, G, g, linear=None):
                dual = DualProblem.from_gradients(G, g, linear)
                return DualProblem(-dual.gram, dual.linear)

        monkeypatch.setattr(learners, "DualProblem", NegatedGram)
        stream = small_stream(T=3, n=60)
        mem = EpisodicMemory(30)
        update_eps_mem(mem, stream.tasks[0], seed=0)
        update_eps_mem(mem, stream.tasks[1], seed=0)
        state = fresh_state(stream, memory=mem, seed=4)
        theta = None
        with pytest.raises(NumericError, match="not settled"):
            for batch in minibatches(stream.tasks[2], 5, 5):
                theta = state.model.theta.copy()
                gem_step(state, batch, 0.05)
        # the first violated step raised and left theta as it was
        assert state.violation_count == 1
        assert np.array_equal(state.model.theta, theta)


class TestTrunkRowsPerStep:
    """Rows through the trunk in one step, counted at ``nn.trunk_forward``:
    a deterministic companion to acceptance test 07's wall-clock ratio."""

    B, M, REF = 10, 12, 30

    def rows_per_step(self, monkeypatch, step):
        stream = small_stream(T=5, n=40)
        rows, forward = [], nn.trunk_forward
        monkeypatch.setattr(nn, "trunk_forward",
                            lambda model, inputs: rows.append(len(inputs)) or forward(model, inputs))
        counts = []
        for t in range(1, 5):
            mem = EpisodicMemory(self.M)
            for task in stream.tasks[:t]:
                update_eps_mem(mem, task, seed=0)
            state = fresh_state(stream, memory=mem)
            rows.clear()
            step(state, first_batch(stream.tasks[t], B=self.B))
            counts.append(sum(rows))
        return counts

    def test_gem_grows_with_stored_tasks(self, monkeypatch):
        counts = self.rows_per_step(monkeypatch, lambda state, batch: gem_step(state, batch, 0.05))
        assert counts == [self.B + t * self.M for t in range(1, 5)]

    def test_agem_flat_once_memory_exceeds_reference(self, monkeypatch):
        counts = self.rows_per_step(
            monkeypatch,
            lambda state, batch: agem_step(state, batch, 0.05, self.REF, substream(0, "ref-batch")),
        )
        assert counts == [self.B + min(self.REF, t * self.M) for t in range(1, 5)]
        assert counts[2] == counts[3]     # t * m >= ref from t = 3 on


class TestTrunkWeightGemmsPerStep:
    """Trunk weight-gradient GEMMs in one step, counted at
    ``nn.finish_trunk_weights``.  A-GEM forms the batch gradient's blocks on
    every step and the reference gradient's only on steps that project;
    GEM forms the batch's blocks and one set per stored task."""

    def gemms_per_step(self, monkeypatch, B):
        stream = small_stream(T=3, n=60, dim=96)
        heads = tuple((t.task_id, t.num_classes) for t in stream.tasks)
        arch = nn.Architecture(96, (96, 96), heads)
        hp = HyperParams(lr=0.05, memory_per_task=30, ref_batch_size=40)
        learner = make_learner("agem", nn.init_model(arch, 1), hp, 1)
        for task in stream.tasks[:2]:
            learner.register_task(task)
            learner.end_task(task)
        learner.register_task(stream.tasks[2])
        state = learner.state
        gemms, projected = {"g": 0, "g_ref": 0}, [0]
        finish, project = nn.finish_trunk_weights, learners.agem_project

        def counted_finish(grad, factors):
            gemms["g" if grad is state.g else "g_ref"] += len(factors)
            return finish(grad, factors)

        monkeypatch.setattr(nn, "finish_trunk_weights", counted_finish)
        monkeypatch.setattr(learners, "agem_project",
                            lambda *a, **k: projected.__setitem__(0, 1) or project(*a, **k))
        counts = []
        for batch in minibatches(stream.tasks[2], B, 0)[:12]:
            gemms.update(g=0, g_ref=0)
            projected[0] = 0
            learner.step(batch)
            counts.append((gemms["g"], gemms["g_ref"], projected[0]))
        return counts

    def test_reference_blocks_only_on_projecting_steps(self, monkeypatch):
        counts = self.gemms_per_step(monkeypatch, B=5)    # 96 * 96 >= 8 * 5 * 192
        assert all(g == 2 and g_ref == 2 * projected for g, g_ref, projected in counts)
        assert sum(projected for *_, projected in counts) < len(counts)    # some skipped

    def test_every_step_forms_both_where_the_check_does_not_pay(self, monkeypatch):
        counts = self.gemms_per_step(monkeypatch, B=10)   # 96 * 96 < 8 * 10 * 192
        assert counts == [(2, 2, 1)] * len(counts)

    def test_gem_forms_two_blocks_per_stored_task(self, monkeypatch):
        stream = small_stream(T=5, n=40)
        blocks, finish = [0], nn.finish_trunk_weights

        def counted_finish(grad, factors):
            blocks[0] += len(factors)
            return finish(grad, factors)

        monkeypatch.setattr(nn, "finish_trunk_weights", counted_finish)
        counts = []
        for t in range(1, 5):
            mem = EpisodicMemory(12)
            for task in stream.tasks[:t]:
                update_eps_mem(mem, task, seed=0)
            state = fresh_state(stream, memory=mem)     # a two-layer trunk
            blocks[0] = 0
            gem_step(state, first_batch(stream.tasks[t]), 0.05)
            counts.append(blocks[0])
        assert counts == [2 + 2 * t for t in range(1, 5)]


class TestGroupedMemoryRows:
    """GEM's rows against one batch_loss_and_grad call per stored task, on a
    batch built anew from the buffer's rows: equal bit for bit."""

    @staticmethod
    def per_task_rows(state):
        rows = []
        for task in sorted(state.memory.per_task):
            buf = state.memory.per_task[task]
            _, g = batch_loss_and_grad(state.model, nn.Batch(buf.x, buf.y, task), state.descriptors)
            rows.append(g)
        return [g for g in rows if np.any(g != 0.0)]

    def assert_rows_match(self, state):
        from llb.learners import _memory_gradient_rows

        G = _memory_gradient_rows(state)
        expected = self.per_task_rows(state)
        assert G.shape == (len(expected), len(state.model.theta))
        for row, ref in zip(G, expected):
            assert np.array_equal(row, ref)

    def memory_state(self, stream, tasks, capacity=25, hidden=(10, 9)):
        mem = EpisodicMemory(capacity)
        for t in tasks:
            update_eps_mem(mem, t, seed=0)
        return fresh_state(stream, hidden=hidden, seed=3, memory=mem)

    def test_per_task_heads(self):
        stream = small_stream(T=4, n=40)
        self.assert_rows_match(self.memory_state(stream, stream.tasks[:3]))

    def test_one_stored_task(self):
        stream = small_stream(T=2, n=40)
        self.assert_rows_match(self.memory_state(stream, stream.tasks[:1]))

    def test_joint_embedding_table(self):
        from llb.protocol import arch_for_stream
        from llb.streams import make_synthetic_split_stream

        cont = make_synthetic_split_stream(
            num_classes=20, classes_per_task=3, T=5, A=6, seed=1, cv_split=1,
            input_dim=8, train_per_class=10, test_per_class=4,
        )
        mem = EpisodicMemory(12)
        for t in cont.tasks[:4]:
            update_eps_mem(mem, t, seed=0)
        arch = arch_for_stream(cont, (10, 9), True)
        state = LearnerState(model=nn.init_model(arch, 2), memory=mem)
        for t in cont.tasks:
            state.descriptors[t.task_id] = t.descriptor
        self.assert_rows_match(state)

    def test_one_class_memory_task_row_dropped(self):
        rng = np.random.default_rng(4)
        arch = nn.Architecture(8, (10, 9), ((1, 10), (2, 1), (3, 10)))
        mem = EpisodicMemory(6)
        for task, classes in ((1, 10), (2, 1), (3, 10)):
            mem.add(nn.Batch(
                rng.normal(size=(6, 8)), rng.integers(0, classes, 6), task, np.arange(6) + 10 * task
            ))
        state = LearnerState(model=nn.init_model(arch, 0), memory=mem,
                             descriptors={1: 1, 2: 2, 3: 3})
        self.assert_rows_match(state)
        from llb.learners import _memory_gradient_rows

        assert len(_memory_gradient_rows(state)) == 2

    def test_non_finite_logits_raise(self):
        from llb.errors import NumericError
        from llb.learners import _memory_gradient_rows

        stream = small_stream(T=3, n=40)
        state = self.memory_state(stream, stream.tasks[:2])
        _, b, _ = state.model._head(2)
        state.model.theta[b] = np.inf
        with pytest.raises(NumericError, match="non-finite logits"):
            _memory_gradient_rows(state)


class TestSGem:
    def test_empty_memory_is_vanilla(self):
        stream = small_stream()
        ss = fresh_state(stream, memory=EpisodicMemory(20))
        sv = fresh_state(stream)
        batch = first_batch(stream.tasks[0])
        sgem_step(ss, batch, 0.05, substream(0, "sgem-constraint"))
        vanilla_step(sv, batch, 0.05)
        assert np.array_equal(ss.model.theta, sv.model.theta)

    def test_one_stored_task_matches_gem(self):
        stream = small_stream(T=2, n=40)
        mem = EpisodicMemory(40)
        update_eps_mem(mem, stream.tasks[0], seed=0)
        ss = fresh_state(stream, memory=mem, seed=1)
        sg = fresh_state(stream, memory=mem.copy(), seed=1)
        for batch in minibatches(stream.tasks[1], 5, 2):
            sgem_step(ss, batch, 0.05, substream(9, "sgem-constraint"))
            gem_step(sg, batch, 0.05)
        assert np.allclose(ss.model.theta, sg.model.theta, atol=1e-9)

    def test_reproducible_trajectory(self):
        stream = small_stream(T=3, n=40)
        thetas = []
        for _ in range(2):
            mem = EpisodicMemory(20)
            update_eps_mem(mem, stream.tasks[0], seed=0)
            update_eps_mem(mem, stream.tasks[1], seed=0)
            state = fresh_state(stream, memory=mem, seed=5)
            rng = substream(11, "sgem-constraint")
            for batch in minibatches(stream.tasks[2], 5, 1):
                sgem_step(state, batch, 0.05, rng)
            thetas.append(state.model.theta)
        assert np.array_equal(thetas[0], thetas[1])


class TestOneRecord:
    """Every batch of rows a learner reads is an ``nn.Batch``; S-GEM's
    reference is the sampled task's ``per_task`` buffer itself."""

    def memory(self, stream, tasks):
        mem = EpisodicMemory(20)
        for t in tasks:
            update_eps_mem(mem, t, seed=0)
        return mem

    def test_minibatches_and_reference_batches(self):
        stream = small_stream(T=3, n=40)
        assert all(isinstance(b, nn.Batch) for b in minibatches(stream.tasks[0], 7, 0))
        mem = self.memory(stream, stream.tasks[:2])
        ref = sample_ref_batch(mem, 16, substream(0, "ref-batch"))
        assert isinstance(ref, nn.Batch)
        assert len(ref.tasks) == 16

    def test_sgem_reference_is_the_sampled_buffer(self, monkeypatch):
        stream = small_stream(T=3, n=40)
        state = fresh_state(stream, memory=self.memory(stream, stream.tasks[:2]))
        refs = []
        original = learners._reference_step

        def capture(state, batch, lr, ref):
            refs.append(ref)
            return original(state, batch, lr, ref)

        monkeypatch.setattr(learners, "_reference_step", capture)
        rng = substream(3, "sgem-constraint")
        for batch in minibatches(stream.tasks[2], 5, 1):
            sgem_step(state, batch, 0.05, rng)
        buffers = list(state.memory.per_task.values())
        assert refs and all(any(ref is buf for buf in buffers) for ref in refs)
        assert {id(ref) for ref in refs} == {id(buf) for buf in buffers}


class TestEwc:
    def test_constant_loss_zero_fisher(self):
        arch = nn.mlp(4, (5,), [1])
        state = LearnerState(model=nn.init_model(arch, 0))
        from llb.streams import TaskDataset

        ds = TaskDataset(
            task_id=1,
            train_x=np.random.default_rng(0).normal(size=(20, 4)),
            train_y=np.zeros(20, dtype=np.int64),
            test_x=np.zeros((2, 4)),
            test_y=np.zeros(2, dtype=np.int64),
            descriptor=1,
            label_set=(0,),
        )
        ewc_consolidate(state, ds, fisher_samples=20, lam=10.0, seed=0)
        assert np.all(state.ewc_anchors[0].fisher == 0.0)
        _, pgrad = ewc_penalty_and_grad(state)
        assert np.all(pgrad == 0.0)

    def test_two_anchors_additive(self):
        # consolidating two tasks into one state penalizes like two states
        # that each consolidated one of them
        stream = small_stream(T=3, n=40)
        state, one = fresh_state(stream), fresh_state(stream)
        ewc_consolidate(state, stream.tasks[0], 30, 2.0, seed=0)
        ewc_consolidate(one, stream.tasks[0], 30, 2.0, seed=0)
        vanilla_step(state, first_batch(stream.tasks[1]), 0.1)
        two = LearnerState(model=state.model.copy(), descriptors=state.descriptors)
        ewc_consolidate(state, stream.tasks[1], 30, 3.0, seed=1)
        ewc_consolidate(two, stream.tasks[1], 30, 3.0, seed=1)
        assert len(state.ewc_anchors) == 1
        vanilla_step(state, first_batch(stream.tasks[2]), 0.1)
        one.model = two.model = state.model
        p_both, g_both = ewc_penalty_and_grad(state)
        p1, g1 = ewc_penalty_and_grad(one)
        p2, g2 = ewc_penalty_and_grad(two)
        assert p1 > 0.0 and p2 > 0.0
        assert p_both == pytest.approx(p1 + p2, abs=1e-12)
        assert np.allclose(g_both, g1 + g2, atol=1e-12)

    @pytest.mark.parametrize("count", range(1, 7))
    def test_merged_anchor_matches_per_anchor_loop(self, count, monkeypatch):
        import llb.learners as learners

        stream = small_stream(T=2, n=40)
        state = fresh_state(stream)
        P = len(state.model.theta)
        rng = np.random.default_rng(count)
        anchors = []
        for k in range(count):
            lam = float(rng.uniform(0.0, 5.0))
            fisher = rng.exponential(size=P) * (rng.random(P) < 0.6)
            fisher[:7] = 0.0       # zero in every consolidation
            theta_star = rng.normal(size=P)
            anchors.append((lam, fisher, theta_star))
            state.model = nn.Model(state.model.arch, theta_star.copy())
            # ewc_consolidate divides the summed squares by the sample count
            monkeypatch.setattr(
                learners, "per_example_squared_grads", lambda *a, f=fisher: f * 30
            )
            ewc_consolidate(state, stream.tasks[0], 30, lam, seed=k)
        assert len(state.ewc_anchors) == 1
        theta = rng.normal(size=P)
        state.model = nn.Model(state.model.arch, theta)
        penalty, grad = ewc_penalty_and_grad(state)
        ref_penalty = sum(lam * float(f @ (theta - ts) ** 2) for lam, f, ts in anchors)
        ref_grad = sum(2.0 * lam * f * (theta - ts) for lam, f, ts in anchors)
        assert abs(penalty - ref_penalty) <= 1e-9 * ref_penalty
        assert np.linalg.norm(grad - ref_grad) <= 1e-9 * np.linalg.norm(ref_grad)

    def test_penalty_gradient_matches_finite_differences(self):
        stream = small_stream(T=2, n=40)
        state = fresh_state(stream)
        ewc_consolidate(state, stream.tasks[0], 40, 5.0, seed=0)
        vanilla_step(state, first_batch(stream.tasks[1]), 0.2)
        _, pgrad = ewc_penalty_and_grad(state)
        anchor = state.ewc_anchors[0]
        coords = np.random.default_rng(0).choice(len(pgrad), 60, replace=False)

        def penalty(theta):
            diff = theta - anchor.theta_star
            return float(anchor.fisher @ diff**2) + anchor.offset

        fd = finite_diff_grad(penalty, state.model.theta, coords, h=1e-6)
        assert np.max(np.abs(pgrad[coords] - fd)) < 1e-8

    def test_no_anchors_or_zero_lambda_is_vanilla(self):
        stream = small_stream()
        batch = first_batch(stream.tasks[0])
        s1, s2 = fresh_state(stream), fresh_state(stream)
        ewc_step(s1, batch, 0.05)
        vanilla_step(s2, batch, 0.05)
        assert np.array_equal(s1.model.theta, s2.model.theta)
        s3, s4 = fresh_state(stream), fresh_state(stream)
        ewc_consolidate(s3, stream.tasks[0], 20, 0.0, seed=0)
        ewc_step(s3, batch, 0.05)
        vanilla_step(s4, batch, 0.05)
        assert np.allclose(s3.model.theta, s4.model.theta, atol=1e-15)

    def test_large_lambda_pins_parameters(self):
        # lr small enough that the stiffest penalty (lam=1000) stays stable
        stream = small_stream(T=2, n=40)
        batch = first_batch(stream.tasks[1])
        dists = []
        for lam in (0.0, 10.0, 1000.0):
            state = fresh_state(stream)
            ewc_consolidate(state, stream.tasks[0], 40, lam, seed=0)
            anchor_theta = state.ewc_anchors[0].theta_star
            for _ in range(50):
                ewc_step(state, batch, 1e-4)
            dists.append(np.linalg.norm(state.model.theta - anchor_theta))
        assert dists[0] > dists[1] > dists[2]

    def test_per_example_squared_grads_match_loop(self):
        stream = small_stream(T=2, n=30)
        state = fresh_state(stream, seed=6)
        task = stream.tasks[0]
        batch = nn.Batch(task.train_x[:12], task.train_y[:12], task.task_id)
        fast = per_example_squared_grads(state.model, batch, state.descriptors)
        slow = np.zeros_like(fast)
        for i in range(12):
            single = nn.Batch(batch.x[i : i + 1], batch.y[i : i + 1], batch.tasks)
            _, g = batch_loss_and_grad(state.model, single, state.descriptors)
            slow += g**2
        assert np.allclose(fast, slow, atol=1e-10)


    def test_per_example_squared_grads_match_loop_attribute_table(self):
        from llb.embedding import je_loss_and_grad

        model, classes_of, descriptors, rng = mixed_setup(nn.JOINT_EMBEDDING, [4, 6], 7)
        batch = mixed_batch(rng, classes_of, [5] * 12)
        fast = per_example_squared_grads(model, nn.Batch(batch.x, batch.y, 5), descriptors)
        slow = np.zeros_like(fast)
        for i in range(12):
            single = nn.Batch(batch.x[i : i + 1], batch.y[i : i + 1], 5)
            _, g = je_loss_and_grad(model, single, descriptors[5])
            slow += g**2
        table = nn.layout(model.arch).table
        assert np.any(fast[table] != 0.0)
        assert np.allclose(fast, slow, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("head_mode", HEAD_MODES)
    @pytest.mark.parametrize("label", [-1, 6, 7])
    def test_per_example_squared_grads_label_out_of_range(self, head_mode, label):
        from llb.errors import ConfigurationError

        model, classes_of, descriptors, rng = mixed_setup(head_mode, [9, 6], 8)
        batch = mixed_batch(rng, classes_of, [5] * 6)
        batch.y[2] = label     # task 5 has 6 classes
        with pytest.raises(ConfigurationError, match="labels out of range for task 5"):
            per_example_squared_grads(model, nn.Batch(batch.x, batch.y, 5), descriptors)

    @pytest.mark.parametrize("descriptor", [np.ones((6, 12)), np.ones(13), 5, None, [[1.0] * 13, [1.0]]])
    def test_per_example_squared_grads_malformed_descriptor(self, descriptor):
        from llb.errors import ConfigurationError

        model, classes_of, descriptors, rng = mixed_setup(nn.JOINT_EMBEDDING, [9, 6], 8)
        batch = mixed_batch(rng, classes_of, [5] * 6)
        descriptors[5] = descriptor     # the table has 13 attributes
        with pytest.raises(ConfigurationError, match="descriptor of task 5"):
            per_example_squared_grads(model, nn.Batch(batch.x, batch.y, 5), descriptors)


class TestMultitask:
    def test_single_task_stream_is_vanilla_pass(self):
        stream = small_stream(T=2, n=40)
        hp = HyperParams(lr=0.05, batch_size=10)
        tasks = [stream.tasks[0]]
        heads = tuple((t.task_id, t.num_classes) for t in stream.tasks)
        arch = nn.Architecture(8, (10, 9), heads)
        model, visits = multitask_train(nn.init_model(arch, 0), tasks, hp, seed=0)
        assert np.array_equal(np.sort(visits), np.sort(tasks[0].train_ids))
        # reference: plain SGD over the same shuffled order
        order = substream(0, "shuffle", "multitask").permutation(len(tasks[0].train_y))
        twin = nn.init_model(arch, 0)
        x, y = tasks[0].train_x, tasks[0].train_y
        for start in range(0, len(order), 10):
            idx = order[start : start + 10]
            _, g = batch_loss_and_grad(twin, nn.Batch(x[idx], y[idx], 1), {})
            nn.apply_update(twin, g, 0.05)
        assert np.allclose(model.theta, twin.theta, atol=1e-12)

    def test_each_example_visited_once(self):
        stream = small_stream(T=3, n=30)
        hp = HyperParams(lr=0.05, batch_size=7)
        heads = tuple((t.task_id, t.num_classes) for t in stream.tasks)
        arch = nn.Architecture(8, (10, 9), heads)
        _, visits = multitask_train(nn.init_model(arch, 0), stream.tasks, hp, seed=1)
        expected = np.concatenate([t.train_ids for t in stream.tasks])
        assert visits.dtype == np.int64
        assert np.array_equal(np.sort(visits), np.sort(expected))

    def test_each_example_visited_once_per_epoch(self):
        stream = small_stream(T=3, n=30)
        hp = HyperParams(lr=0.05, batch_size=7, epochs=3)
        heads = tuple((t.task_id, t.num_classes) for t in stream.tasks)
        arch = nn.Architecture(8, (10, 9), heads)
        _, visits = multitask_train(nn.init_model(arch, 0), stream.tasks, hp, seed=1)
        expected = np.concatenate([t.train_ids for t in stream.tasks])
        assert len(visits) == 3 * len(expected)
        for epoch in np.split(visits, 3):     # each epoch is one whole pass
            assert np.array_equal(np.sort(epoch), np.sort(expected))

    def test_leaves_numpy_ma_unloaded(self):
        # numpy imports numpy.ma on the first np.unique call; a fresh
        # interpreter shows whether the per-batch gather makes that call
        code = (
            "import sys\n"
            "from llb import HyperParams, multitask_train, nn\n"
            "from llb.streams import make_permuted_stream, synthetic_mnist_base\n"
            "base = synthetic_mnist_base(120, 60, seed=0, dim=8)\n"
            "stream = make_permuted_stream(base, T=3, seed=0, cv_split=1,"
            " train_per_task=30, test_per_task=30)\n"
            "heads = tuple((t.task_id, t.num_classes) for t in stream.tasks)\n"
            "arch = nn.Architecture(8, (10, 9), heads)\n"
            "assert 'numpy.ma' not in sys.modules\n"
            "_, visits = multitask_train(nn.init_model(arch, 0), stream.tasks,"
            " HyperParams(lr=0.05, batch_size=7), 0)\n"
            "assert len(visits) == 90\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
        )
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("seed", [0, 4])
    def test_per_batch_gather_equals_pooled_copy(self, seed):
        # reference: the pooled loop that concatenates every task's inputs
        stream = small_stream(T=3, n=35, seed=seed)
        hp = HyperParams(lr=0.05, batch_size=6)
        heads = tuple((t.task_id, t.num_classes) for t in stream.tasks)
        arch = nn.Architecture(8, (10, 9), heads)
        model, _ = multitask_train(nn.init_model(arch, seed), stream.tasks, hp, seed)
        tasks = stream.tasks
        x = np.concatenate([t.train_x[:] for t in tasks])
        y = np.concatenate([t.train_y for t in tasks])
        task_of = np.concatenate([np.full(len(t.train_y), t.task_id) for t in tasks])
        descriptors = {t.task_id: t.descriptor for t in tasks}
        twin = nn.init_model(arch, seed)
        order = substream(seed, "shuffle", "multitask").permutation(len(y))
        for start in range(0, len(order), 6):
            idx = order[start : start + 6]
            _, g = mixed_loss_and_grad(twin, nn.Batch(x[idx], y[idx], task_of[idx]), descriptors)
            nn.apply_update(twin, g, 0.05)
        assert np.array_equal(model.theta, twin.theta)


class TestLearnerObjects:
    @pytest.mark.parametrize("name", sorted(LEARNERS))
    def test_end_task_hook(self, name):
        # one hook fills memory for every memory learner; EWC consolidates
        stream = small_stream(T=2, n=40)
        task = stream.tasks[0]
        hp = HyperParams(memory_per_task=15, fisher_samples=20)
        learner = make_learner(name, fresh_state(stream).model, hp, 4)
        learner.register_task(task)
        learner.end_task(task)
        state = learner.state
        if LEARNERS[name].uses_memory:
            want = update_eps_mem(EpisodicMemory(15), task, seed=4)
            assert list(state.memory.per_task) == [task.task_id]
            for got, exp in ((state.memory.x, want.x), (state.memory.y, want.y),
                             (state.memory.ids, want.ids)):
                assert np.array_equal(got, exp)
            assert len(set(state.memory.ids.tolist())) == 15
            assert set(state.memory.ids.tolist()) <= set(task.train_ids.tolist())
        else:
            assert state.memory is None
        if name == "ewc":
            (anchor,) = state.ewc_anchors
            assert np.array_equal(anchor.theta_star, state.model.theta)
        else:
            assert state.ewc_anchors == []

    def test_factory_rejects_unknown(self):
        from llb.errors import ConfigurationError

        stream = small_stream()
        state = fresh_state(stream)
        with pytest.raises(ConfigurationError, match="unknown learner"):
            make_learner("nope", state.model, HyperParams(), 0)

    def test_descent_safety_small_lr(self):
        # at tiny lr no learner's applied update increases its own
        # (regularized) batch objective
        stream = small_stream(T=3, n=40)
        hp = HyperParams(lr=1e-6, memory_per_task=20, ref_batch_size=16, batch_size=10)
        heads = tuple((t.task_id, t.num_classes) for t in stream.tasks)
        arch = nn.Architecture(8, (10, 9), heads)
        for name in ("vanilla", "ewc", "agem", "gem", "sgem"):
            learner = make_learner(name, nn.init_model(arch, 3), hp, 3)
            for t in stream.tasks[:2]:
                learner.register_task(t)
                learner.end_task(t)
            learner.register_task(stream.tasks[2])
            batch = first_batch(stream.tasks[2])

            def objective(state):
                loss, _ = batch_loss_and_grad(state.model, batch, state.descriptors)
                if state.ewc_anchors:
                    loss += ewc_penalty_and_grad(state)[0]
                return loss

            before = objective(learner.state)
            learner.step(batch)
            after = objective(learner.state)
            assert after <= before + 1e-12, name


def unbuffered_step(learner, batch):
    """One step of ``learner`` through the same kernels as ``Learner.step``,
    each called without a buffer, so every gradient is a fresh vector."""
    from llb.learners import _memory_gradient_rows
    from llb.qp import reconstruct, solve_nonneg_qp

    state, hp, name = learner.state, learner.hp, learner.name
    _, g = batch_loss_and_grad(state.model, batch, state.descriptors)
    if name == "ewc" and state.ewc_anchors:
        g = g + ewc_penalty_and_grad(state)[1]
    elif name == "agem" and state.memory:
        ref = sample_ref_batch(state.memory, hp.ref_batch_size, learner._ref_rng)
        _, g_ref = mixed_loss_and_grad(state.model, ref, state.descriptors)
        g = agem_project(g, g_ref).g_tilde
    elif name == "sgem" and state.memory:
        stored = sorted(state.memory.per_task)
        task = stored[int(learner._constraint_rng.integers(0, len(stored)))]
        buf = state.memory.per_task[task]
        _, g_k = batch_loss_and_grad(state.model, nn.Batch(buf.x, buf.y, task), state.descriptors)
        g = agem_project(g, g_k).g_tilde
    elif name == "gem" and state.memory:
        G = _memory_gradient_rows(state)
        if not np.all(G @ g >= 0.0):
            g = reconstruct(g, G, solve_nonneg_qp(DualProblem.from_gradients(G, g)).v)
    nn.apply_update(state.model, g, hp.lr)


def workspace_setup(je: bool, wide: bool = False):
    """A three-task stream and an architecture for it: per-task heads or the
    attribute table.  ``wide`` layers (96-96-96) are wide enough for batches
    of 5 that A-GEM and S-GEM check their constraint from factors."""
    if not je:
        dim, hidden = (96, (96, 96)) if wide else (8, (10, 9))
        stream = small_stream(T=3, n=50, dim=dim)
        heads = tuple((t.task_id, t.num_classes) for t in stream.tasks)
        return stream, nn.Architecture(dim, hidden, heads)
    from llb.streams import make_synthetic_split_stream

    stream = make_synthetic_split_stream(
        20, 5, 3, A=16, seed=0, cv_split=1, input_dim=12, train_per_class=10, test_per_class=2
    )
    return stream, nn.Architecture(12, (10, 9), head_mode=nn.JOINT_EMBEDDING, attr_count=16)


class TestWorkspaces:
    """Each learner writes its gradients into two vectors made once."""

    @pytest.mark.parametrize("name", [
        "vanilla", "ewc", "agem", "sgem", "gem", "agem-je", "agem-wide", "sgem-wide",
    ])
    def test_dirty_workspaces_match_fresh_gradients(self, name, monkeypatch):
        # NaN-filled workspaces, then 30 steps over three tasks: a head slice
        # or table block that a step does not rewrite leaves NaN or an older
        # step's values behind, and theta then departs from the twin's.  At
        # the wide shapes, satisfied steps skip g_ref's trunk weight blocks
        base, je, wide = name.split("-")[0], name.endswith("-je"), name.endswith("-wide")
        stream, arch = workspace_setup(je, wide)
        hp = HyperParams(lr=0.05, memory_per_task=15, ref_batch_size=12, fisher_samples=20)
        learner = make_learner(base, nn.init_model(arch, 5), hp, 5)
        twin = make_learner(base, nn.init_model(arch, 5), hp, 5)
        learner.state.g[:] = np.nan
        learner.state.g_ref[:] = np.nan
        projections = []     # the learner's calls only: the twin calls its own import
        project = learners.agem_project
        monkeypatch.setattr(learners, "agem_project",
                            lambda *a, **k: projections.append(1) or project(*a, **k))
        steps = 0
        for task in stream.tasks:
            for one in (learner, twin):
                one.register_task(task)
            for batch in minibatches(task, 5, 0)[:10]:
                learner.step(batch)
                unbuffered_step(twin, batch)
                steps += 1
                assert np.array_equal(learner.model.theta, twin.model.theta), steps
            for one in (learner, twin):
                one.end_task(task)
        assert steps == 30
        # the constrained path ran too, not only plain steps
        assert (learner.state.violation_count > 0) == (base not in ("vanilla", "ewc"))
        if base in ("agem", "sgem"):
            # 20 steps with stored tasks: at the wide shapes some are certified
            # without agem_project, elsewhere every one projects
            assert (len(projections) < 20) if wide else (len(projections) == 20)

    @pytest.mark.parametrize("name,stored,m,bound", [
        ("vanilla", 2, 50, 1), ("ewc", 2, 50, 1), ("agem", 2, 50, 1.5), ("sgem", 2, 50, 1),
        ("gem", 2, 50, 2 + 2), ("gem", 6, 100, 6 + 2),
    ], ids=["vanilla-1", "ewc-1", "agem-1.5", "sgem-1", "gem-4", "gem-6x100-8"])
    def test_step_allocates_under_a_few_parameter_vectors(self, name, stored, m, bound):
        # permuted MNIST, 784-64-64, one head per task: P = 57,650 with five
        # heads; reference batch 32, B = 10; traced after 3 warm-up steps
        # with ``stored`` tasks of m memory rows each.  GEM's bound is t + 2
        # vectors: its constraint rows G (t of them) are made anew at every
        # step, one task's activations at a time; those of all 600 rows of
        # the second GEM case would take several vectors more.  A-GEM and
        # S-GEM project into their reference workspace.
        import tracemalloc

        base = synthetic_mnist_base(300, 20, seed=0, dim=784)
        stream = make_permuted_stream(base, T=max(5, stored + 1), seed=0, cv_split=1,
                                      train_per_task=max(60, m), test_per_task=10)
        heads = tuple((t.task_id, t.num_classes) for t in stream.tasks)
        arch = nn.Architecture(784, (64, 64), heads)
        P = arch.param_count
        assert P == 57_650 + 650 * (len(heads) - 5)
        hp = HyperParams(lr=0.03, memory_per_task=m, ref_batch_size=32, batch_size=10,
                         fisher_samples=50)
        learner = make_learner(name, nn.init_model(arch, 0), hp, 0)
        for task in stream.tasks[:stored]:
            learner.register_task(task)
            learner.end_task(task)
        task = stream.tasks[stored]
        learner.register_task(task)
        batches = minibatches(task, 10, 0)
        for batch in batches[:3]:
            learner.step(batch)
        batch = batches[3]
        tracemalloc.start()
        try:
            learner.step(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * P * 8, peak / (P * 8)
