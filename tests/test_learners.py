import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llb import nn
from llb.learners import (
    LEARNERS,
    EwcAnchor,
    LearnerState,
    agem_project,
    agem_step,
    batch_loss_and_grad,
    ewc_consolidate,
    ewc_penalty_and_grad,
    ewc_step,
    gem_step,
    make_learner,
    mixed_loss_and_grad,
    multitask_train,
    per_example_squared_grads,
    sgem_step,
    vanilla_step,
)
from llb.memory import EpisodicMemory, MixedBatch, sample_ref_batch, update_eps_mem
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
        _, grad = nn.loss_and_grad(state.model, batch)
        expected = nn.apply_update(state.model, grad, 0.05).theta
        vanilla_step(state, batch, 0.05)
        assert np.array_equal(state.model.theta, expected)

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

    def test_degenerate_reference_flag(self):
        g = np.array([1.0, 2.0])
        proj = agem_project(g, np.zeros(2))
        assert proj.degenerate and not proj.violated
        assert np.array_equal(proj.g_tilde, g)

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
        update_eps_mem(mem, stream.tasks[0], 1, seed=0)
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
        update_eps_mem(mem, stream.tasks[0], 1, seed=0)
        update_eps_mem(mem, stream.tasks[1], 2, seed=0)
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
    return MixedBatch(rng.normal(size=(len(tasks), dim)), y, tasks)


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
            update_eps_mem(mem, ds, t, seed=t)
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
        update_eps_mem(mem, stream.tasks[0], 1, seed=0)
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
        update_eps_mem(mem, stream.tasks[0], 1, seed=0)
        update_eps_mem(mem, stream.tasks[1], 2, seed=0)
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
        update_eps_mem(mem, stream.tasks[0], 1, seed=0)
        update_eps_mem(mem, stream.tasks[1], 2, seed=0)
        state = fresh_state(stream, memory=mem, seed=4)
        theta = None
        with pytest.raises(NumericError, match="not settled"):
            for batch in minibatches(stream.tasks[2], 5, 5):
                theta = state.model.theta.copy()
                gem_step(state, batch, 0.05)
        # the first violated step raised and left theta as it was
        assert state.violation_count == 1
        assert np.array_equal(state.model.theta, theta)


class TestGroupedMemoryRows:
    """The grouped pass against one batch_loss_and_grad call per stored task."""

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
            assert np.linalg.norm(row - ref) <= 1e-12 * np.linalg.norm(ref)

    def memory_state(self, stream, tasks, capacity=25, hidden=(10, 9)):
        mem = EpisodicMemory(capacity)
        for t in tasks:
            update_eps_mem(mem, t, t.task_id, seed=0)
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
            update_eps_mem(mem, t, t.task_id, seed=0)
        arch = arch_for_stream(cont, (10, 9), True)
        state = LearnerState(model=nn.init_model(arch, 2), memory=mem)
        for t in cont.tasks:
            state.descriptors[t.task_id] = t.descriptor
        self.assert_rows_match(state)

    def test_one_class_memory_task_row_dropped(self):
        from llb.memory import TaskBuffer

        rng = np.random.default_rng(4)
        arch = nn.Architecture(8, (10, 9), ((1, 10), (2, 1), (3, 10)))
        mem = EpisodicMemory(6)
        for task, classes in ((1, 10), (2, 1), (3, 10)):
            mem.add(task, TaskBuffer(
                rng.normal(size=(6, 8)), rng.integers(0, classes, 6), np.arange(6) + 10 * task
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
        update_eps_mem(mem, stream.tasks[0], 1, seed=0)
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
            update_eps_mem(mem, stream.tasks[0], 1, seed=0)
            update_eps_mem(mem, stream.tasks[1], 2, seed=0)
            state = fresh_state(stream, memory=mem, seed=5)
            rng = substream(11, "sgem-constraint")
            for batch in minibatches(stream.tasks[2], 5, 1):
                sgem_step(state, batch, 0.05, rng)
            thetas.append(state.model.theta)
        assert np.array_equal(thetas[0], thetas[1])


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
            single = nn.Batch(batch.inputs[i : i + 1], batch.labels[i : i + 1], batch.task)
            _, g = nn.loss_and_grad(state.model, single)
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
        assert set(visits.values()) == {1}
        # reference: plain SGD over the same shuffled order
        order = substream(0, "shuffle", "multitask").permutation(len(tasks[0].train_y))
        twin = nn.init_model(arch, 0)
        x, y = tasks[0].train_x, tasks[0].train_y
        for start in range(0, len(order), 10):
            idx = order[start : start + 10]
            _, g = nn.loss_and_grad(twin, nn.Batch(x[idx], y[idx], 1))
            twin = nn.apply_update(twin, g, 0.05)
        assert np.allclose(model.theta, twin.theta, atol=1e-12)

    def test_each_example_visited_once(self):
        stream = small_stream(T=3, n=30)
        hp = HyperParams(lr=0.05, batch_size=7)
        heads = tuple((t.task_id, t.num_classes) for t in stream.tasks)
        arch = nn.Architecture(8, (10, 9), heads)
        _, visits = multitask_train(nn.init_model(arch, 0), stream.tasks, hp, seed=1)
        expected = {int(i) for t in stream.tasks for i in t.train_ids}
        assert set(visits) == expected
        assert set(visits.values()) == {1}

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
            _, g = mixed_loss_and_grad(twin, MixedBatch(x[idx], y[idx], task_of[idx]), descriptors)
            twin = nn.apply_update(twin, g, 0.05)
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
            want = update_eps_mem(EpisodicMemory(15), task, task.task_id, seed=4)
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
