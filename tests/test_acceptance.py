"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  The trend criteria run the full
protocol at desk scale on the deterministic synthetic streams with fixed
seeds (0, 1, 2); aggregate clauses compare 3-seed means, per-boundary
clauses hold for every seed, as stated per criterion.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from llb import nn
from llb.embedding import je_loss_and_grad, zero_shot_eval
from llb.errors import ConfigurationError, ProtocolError
from llb.learners import agem_project, make_learner
from llb.memory import EpisodicMemory, update_eps_mem
from llb.metrics import (
    AccuracyTensor,
    avg_accuracy,
    forgetting,
    lca,
    record,
    worst_case_forgetting,
    zero_shot_series,
)
from llb.oracles import (
    brute_force_metrics,
    finite_diff_grad,
    halfspace_projection_nnls,
    nonneg_qp_enumeration,
)
from llb.protocol import (
    HyperParams,
    arch_for_stream,
    audit_isolation,
    audit_reset,
    audit_single_pass,
    build_stream,
    cross_validate,
    eval_all,
    run_single_pass,
    split_cv_ev,
)
from llb.qp import DualProblem, reconstruct, solve_nonneg_qp
from llb.rng import substream
from llb.streams import make_synthetic_split_stream, minibatches
from llb.learners import multitask_train

SEEDS = (0, 1, 2)

DESK_STREAM = {
    "kind": "permuted-mnist",
    "tasks": 8,          # 3 cross-validation + 5 evaluation tasks
    "cv_split": 3,
    "train_per_task": 1000,
    "test_per_task": 500,
}
DESK_HP = HyperParams(lr=0.03, memory_per_task=250, ref_batch_size=256,
                      batch_size=10, beta=10)
DESK_GRID = [replace(DESK_HP, lr=v) for v in (0.1, 0.03, 0.01)]

EFFICIENCY_STREAM = {
    "kind": "permuted-mnist",
    "tasks": 11,         # 8 evaluation tasks so 5+ stored tasks occur
    "cv_split": 3,
    "train_per_task": 300,
    "test_per_task": 200,
}
EFFICIENCY_HP = replace(DESK_HP, beta=5)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: projection correctness


def test_01_projection_correctness():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst_ortho = worst_gap = 0.0
    for _ in range(10_000):
        p = int(rng.integers(2, 513))
        g = rng.normal(size=p)
        g_ref = rng.normal(size=p)
        proj = agem_project(g, g_ref)
        if g @ g_ref >= 0.0:
            assert not proj.violated and proj.g_tilde is g
            continue
        assert proj.violated
        rel = abs(proj.g_tilde @ g_ref) / (np.linalg.norm(g) * np.linalg.norm(g_ref))
        worst_ortho = max(worst_ortho, rel)
        z = halfspace_projection_nnls(g, g_ref)
        gap = abs(np.linalg.norm(g - proj.g_tilde) - np.linalg.norm(g - z))
        worst_gap = max(worst_gap, gap)
    elapsed = time.perf_counter() - start
    ok = worst_ortho <= 1e-9 and worst_gap <= 1e-6 and elapsed < 10.0
    report(1, ok, f"10000 pairs, orthogonality {worst_ortho:.2e}, "
                  f"solver gap {worst_gap:.2e}, {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# criterion 2: GEM dual soundness


def test_02_dual_qp_soundness():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst_obj = worst_feas = 0.0
    for _ in range(1000):
        t = int(rng.integers(1, 6))
        p = int(rng.integers(max(t, 2), 21))
        G = rng.normal(size=(t, p))
        g = rng.normal(size=p)
        problem = DualProblem.from_gradients(G, g)
        sol = solve_nonneg_qp(problem)
        v_star = nonneg_qp_enumeration(problem)
        worst_obj = max(worst_obj, problem.objective(sol.v) - problem.objective(v_star))
        slack = float(np.min(G @ reconstruct(g, G, sol.v)))
        worst_feas = max(worst_feas, max(0.0, -slack))
    elapsed = time.perf_counter() - start
    ok = worst_obj <= 1e-6 and worst_feas <= 1e-6 and elapsed < 30.0
    report(2, ok, f"1000 instances, objective gap {worst_obj:.2e}, "
                  f"infeasibility {worst_feas:.2e}, {elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# criterion 3: single-constraint equivalence


def test_03_single_constraint_equivalence():
    stream = build_stream(
        {"kind": "permuted-mnist", "tasks": 2, "cv_split": 1,
         "train_per_task": 1000, "test_per_task": 100, "input_dim": 64,
         "base_train": 2500, "base_test": 300},
        seed=0,
    )
    arch = arch_for_stream(stream, (32, 32), False)
    hp = replace(DESK_HP, memory_per_task=128, ref_batch_size=128)
    mem = EpisodicMemory(hp.memory_per_task)
    update_eps_mem(mem, stream.tasks[0], stream.tasks[0].task_id, seed=0)

    gem = make_learner("gem", nn.init_model(arch, 0), hp, 0)
    agem = make_learner("agem", nn.init_model(arch, 0), hp, 0)
    gem.state.memory = mem
    agem.state.memory = mem.copy()
    for learner in (gem, agem):
        for t in stream.tasks:
            learner.register_task(t)

    batches = minibatches(stream.tasks[1], hp.batch_size, seed=0)[:100]
    worst = 0.0
    for batch in batches:
        gem.step(batch)
        agem.step(batch)
        worst = max(worst, float(np.max(np.abs(gem.model.theta - agem.model.theta))))
    ok = worst <= 1e-9 and len(batches) == 100
    report(3, ok, f"100 steps, max |theta| divergence {worst:.2e} (<= 1e-9), "
                  f"violations {gem.state.violation_count}/{agem.state.violation_count}")


# ---------------------------------------------------------------------------
# criterion 4: gradient exactness


def test_04_gradient_exactness():
    rng = np.random.default_rng(13)
    worst = 0.0
    for i in range(20):
        je = i % 2 == 1
        if je:
            arch = nn.Architecture(
                int(rng.integers(4, 9)), (int(rng.integers(6, 12)), int(rng.integers(4, 9))),
                head_mode=nn.JOINT_EMBEDDING, attr_count=int(rng.integers(3, 7)),
            )
        else:
            arch = nn.mlp(
                int(rng.integers(4, 9)), (int(rng.integers(6, 12)), int(rng.integers(4, 9))),
                [int(rng.integers(2, 5)), int(rng.integers(2, 5))],
            )
        model = nn.init_model(arch, seed=int(rng.integers(1 << 30)))
        n = int(rng.integers(3, 9))
        x = rng.normal(size=(n, arch.input_dim))
        if je:
            classes = int(rng.integers(2, 5))
            desc = rng.integers(0, 2, size=(classes, arch.attr_count)).astype(float)
            y = rng.integers(0, classes, size=n)
            batch = nn.Batch(x, y, task=1)
            _, grad = je_loss_and_grad(model, batch, desc)

            def loss_fn(theta, b=batch, d=desc, a=arch):
                return je_loss_and_grad(nn.Model(a, theta), b, d)[0]

        else:
            y = rng.integers(0, dict(arch.heads)[1], size=n)
            batch = nn.Batch(x, y, task=1)
            _, grad = nn.loss_and_grad(model, batch)

            def loss_fn(theta, b=batch, a=arch):
                return nn.loss_and_grad(nn.Model(a, theta), b)[0]

        coords = rng.choice(len(model.theta), size=min(500, len(model.theta)), replace=False)
        fd = finite_diff_grad(loss_fn, model.theta, coords)
        rel = np.linalg.norm(grad[coords] - fd) / max(np.linalg.norm(fd), 1e-300)
        worst = max(worst, rel)
    ok = worst < 1e-6
    report(4, ok, f"20 models (10 per-task, 10 joint-embedding), "
                  f"worst relative error {worst:.2e} (< 1e-6)")


# ---------------------------------------------------------------------------
# criterion 5: metrics oracle


def _random_dense_tensor(rng):
    T = int(rng.integers(2, 7))
    beta = int(rng.integers(0, 4))
    tensor = AccuracyTensor(order=list(range(1, T + 1)))
    for k in tensor.order:
        bk = int(rng.integers(beta + 1, beta + 5))
        tensor.batch_counts[k] = bk
        for b in range(beta + 1):
            record(tensor, k, b, k, float(rng.random()))
        for j in tensor.order:
            record(tensor, k, bk, j, float(rng.random()))
    return tensor, beta


def test_05_metrics_oracle():
    rng = np.random.default_rng(99)
    exact = True
    for _ in range(500):
        tensor, beta = _random_dense_tensor(rng)
        ref = brute_force_metrics(tensor, beta)
        for k in tensor.order:
            exact &= avg_accuracy(tensor, k) == ref["A"][k]
            if k in ref["F"]:
                f_k, per = forgetting(tensor, k)
                exact &= f_k == ref["F"][k] and per == ref["f"][k]
                exact &= worst_case_forgetting(tensor, k) == ref["F_wst"][k]
        curve, area = lca(tensor, beta)
        exact &= curve == ref["Z"] and area == ref["LCA"]
        exact &= zero_shot_series(tensor) == ref["zero_shot"]

    hand = AccuracyTensor(order=[1, 2], batch_counts={1: 4, 2: 4})
    record(hand, 2, 4, 1, 0.6)
    record(hand, 2, 4, 2, 0.8)
    a2 = avg_accuracy(hand, 2)
    record(hand, 1, 4, 1, 0.9)
    hand.entries[(2, 4, 1)] = 0.7
    f2, _ = forgetting(hand, 2)
    lca_t = AccuracyTensor(order=[1], batch_counts={1: 5})
    record(lca_t, 1, 0, 1, 0.4)
    record(lca_t, 1, 1, 1, 0.6)
    _, lca1 = lca(lca_t, 1)
    hands = (a2 == 0.7, abs(f2 - 0.2) < 1e-15, lca1 == 0.5)
    ok = exact and all(hands)
    report(5, ok, f"500 random logs bit-exact={exact}; hand examples "
                  f"A_2=0.7:{hands[0]} F_2=0.2:{hands[1]} LCA_1=0.5:{hands[2]}")


# ---------------------------------------------------------------------------
# criteria 6 and 10: desk-scale trend and protocol hygiene


def _desk_protocol_run(learner_name: str, seed: int):
    """Full protocol on the desk stream; returns (A_T, F_T, trace, arch)."""
    continuum = build_stream(DESK_STREAM, seed)
    arch = arch_for_stream(continuum, (256, 256), False)
    cv_tasks, ev_tasks = split_cv_ev(continuum)
    cv = cross_validate(learner_name, cv_tasks, arch, DESK_GRID, seed)
    if learner_name == "multitask":
        model = nn.init_model(arch, seed)
        model, visits = multitask_train(model, ev_tasks, cv.best, seed)
        audit_single_pass(visits, ev_tasks, 1)
        audit_isolation(cv_tasks, ev_tasks, set(), set(visits))
        return float(np.mean(eval_all(model, ev_tasks))), None, None, arch
    learner = make_learner(learner_name, nn.init_model(arch, seed), cv.best, seed)
    audit_reset(learner, arch, seed)
    _, trace = run_single_pass(learner, ev_tasks, cv.best, seed)
    audit_isolation(cv_tasks, ev_tasks, set(), set(trace.visit_counts))
    last = ev_tasks[-1].task_id
    tensor = trace.tensor
    return avg_accuracy(tensor, last), forgetting(tensor, last)[0], trace, arch


@pytest.fixture(scope="module")
def desk_runs():
    start = time.perf_counter()
    out = {
        name: [_desk_protocol_run(name, seed) for seed in SEEDS]
        for name in ("vanilla", "agem", "ewc", "multitask")
    }
    out["elapsed"] = time.perf_counter() - start
    return out


def test_06_desk_scale_permuted_trend(desk_runs):
    mean_a = {
        name: float(np.mean([r[0] for r in desk_runs[name]]))
        for name in ("vanilla", "agem", "ewc", "multitask")
    }
    mean_f = {
        name: float(np.mean([r[1] for r in desk_runs[name]]))
        for name in ("vanilla", "agem")
    }
    gap = mean_a["agem"] - mean_a["vanilla"]
    mt_ok = all(mean_a["multitask"] >= mean_a[n] for n in ("vanilla", "agem", "ewc"))
    ok = gap >= 0.05 and mean_f["agem"] < mean_f["vanilla"] and mt_ok and (
        desk_runs["elapsed"] < 600.0
    )
    report(6, ok,
           f"A_T means van={mean_a['vanilla']:.3f} agem={mean_a['agem']:.3f} "
           f"ewc={mean_a['ewc']:.3f} multitask={mean_a['multitask']:.3f}; "
           f"gap={gap:+.3f} (>= +0.05), F agem {mean_f['agem']:.3f} < "
           f"van {mean_f['vanilla']:.3f}: {mean_f['agem'] < mean_f['vanilla']}, "
           f"multitask upper bound: {mt_ok}, {desk_runs['elapsed']:.0f}s (< 600s)")


def test_10_protocol_hygiene(desk_runs):
    # the desk runs above already passed the built-in audits; verify the
    # audits themselves reject violations
    continuum = build_stream(DESK_STREAM, 0)
    cv_tasks, ev_tasks = split_cv_ev(continuum)
    arch = arch_for_stream(continuum, (256, 256), False)
    hygiene = True

    visits = {int(i): 1 for t in ev_tasks for i in t.train_ids}
    audit_single_pass(visits, ev_tasks, 1)  # passes when complete
    bad = dict(visits)
    bad[next(iter(bad))] = 2
    try:
        audit_single_pass(bad, ev_tasks, 1)
        hygiene = False
    except ProtocolError:
        pass

    cv_ids = {int(i) for t in cv_tasks for i in t.train_ids}
    ev_ids = {int(i) for t in ev_tasks for i in t.train_ids}
    hygiene &= not (cv_ids & ev_ids)
    try:
        audit_isolation(cv_tasks, ev_tasks, set(), ev_ids | {next(iter(cv_ids))})
        hygiene = False
    except ProtocolError:
        pass

    learner = make_learner("agem", nn.init_model(arch, 0), DESK_HP, 0)
    audit_reset(learner, arch, 0)
    learner.state.model.theta[0] += 1e-9
    try:
        audit_reset(learner, arch, 0)
        hygiene = False
    except ProtocolError:
        pass

    report(10, hygiene, "visit-count, CV/EV isolation, and reset audits "
                        "pass on end-to-end runs and reject violations")


# ---------------------------------------------------------------------------
# criteria 7 and 8: efficiency and violation trends


@pytest.fixture(scope="module")
def efficiency_runs():
    out = {}
    for name in ("agem", "gem"):
        out[name] = []
        for seed in SEEDS:
            continuum = build_stream(EFFICIENCY_STREAM, seed)
            _, ev_tasks = split_cv_ev(continuum)
            arch = arch_for_stream(continuum, (256, 256), False)
            learner = make_learner(name, nn.init_model(arch, seed), EFFICIENCY_HP, seed)
            out[name].append(run_single_pass(learner, ev_tasks, EFFICIENCY_HP, seed)[1])
    return out


def test_07_efficiency_trend(efficiency_runs):
    ratios, growth_ok, flat_ok = [], True, True
    for agem_trace, gem_trace in zip(efficiency_runs["agem"], efficiency_runs["gem"]):
        agem_secs = dict(agem_trace.step_seconds_by_task)
        gem_secs = dict(gem_trace.step_seconds_by_task)
        tasks = sorted(agem_secs)
        # stored-task count during task at index i (0-based) is i
        heavy = [t for i, t in enumerate(tasks) if i >= 5]
        for t in heavy:
            ratios.append(agem_secs[t] / gem_secs[t])
        # monotone growth of the per-step cost with stored tasks, measured
        # from first constrained task onward, tolerating timer jitter
        constrained = tasks[1:]
        gem_curve = [gem_secs[t] for t in constrained]
        growth_ok &= gem_curve[-1] > 2.0 * gem_curve[0]
        growth_ok &= all(
            gem_curve[i + 2] > gem_curve[i] for i in range(len(gem_curve) - 2)
        )
        first_constrained = agem_secs[constrained[0]]
        flat_ok &= max(agem_secs[t] for t in constrained) <= 2.0 * first_constrained
    worst_ratio = max(ratios)
    ok = worst_ratio <= 0.5 and growth_ok and flat_ok
    report(7, ok, f"per-step cost with 5+ stored tasks: worst A-GEM/GEM ratio "
                  f"{worst_ratio:.2f} (<= 0.5); GEM cost grows: {growth_ok}; "
                  f"A-GEM within 2x of first constrained task: {flat_ok}")


def test_08_violation_trend(efficiency_runs):
    ok = True
    detail = []
    for seed, (agem_trace, gem_trace) in enumerate(
        zip(efficiency_runs["agem"], efficiency_runs["gem"])
    ):
        agem_v = dict(agem_trace.violations_by_task)
        gem_v = dict(gem_trace.violations_by_task)
        per_seed = all(gem_v[t] >= agem_v[t] for t in agem_v)
        ok &= per_seed
        detail.append(f"seed {SEEDS[seed]}: gem {max(gem_v.values())} >= "
                      f"agem {max(agem_v.values())} at every boundary: {per_seed}")
    report(8, ok, "; ".join(detail))


# ---------------------------------------------------------------------------
# criterion 9: zero-shot transfer


def test_09_zero_shot_transfer():
    hp = HyperParams(lr=0.1, memory_per_task=100, ref_batch_size=128,
                     batch_size=10, beta=10)
    lines, ok = [], True
    for seed in SEEDS:
        continuum = make_synthetic_split_stream(
            num_classes=80, classes_per_task=5, T=13, A=32,
            with_replacement=False, seed=seed, cv_split=3,
            input_dim=64, train_per_class=100, test_per_class=40,
        )
        _, ev_tasks = split_cv_ev(continuum)
        arch = arch_for_stream(continuum, (64, 64), True)
        learner = make_learner("agem", nn.init_model(arch, seed), hp, seed)
        series = zero_shot_series(run_single_pass(learner, ev_tasks, hp, seed)[1].tensor)
        first = series[0][1]
        last5 = float(np.mean([v for _, v in series[-5:]]))
        chance = 1.0 / 5.0
        seed_ok = last5 >= chance + 0.10 and last5 > first
        ok &= seed_ok
        lines.append(f"seed {seed}: last-5 zero-shot {last5:.3f} "
                     f"(chance {chance:.2f}, first {first:.3f}): {seed_ok}")

    # integer-descriptor learners have no zero-shot path
    integer_stream = build_stream({"kind": "permuted-mnist", "tasks": 2, "cv_split": 1,
                                   "train_per_task": 20, "test_per_task": 10,
                                   "base_train": 100, "base_test": 50}, 0)
    je_arch = nn.Architecture(784, (8,), head_mode=nn.JOINT_EMBEDDING, attr_count=4)
    try:
        zero_shot_eval(nn.init_model(je_arch, 0), integer_stream.tasks[0])
        guard = False
    except ConfigurationError:
        guard = True
    ok &= guard
    report(9, ok, "; ".join(lines) + f"; integer-descriptor guard: {guard}")
