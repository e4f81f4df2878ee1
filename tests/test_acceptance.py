"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Criteria 1, 2, 4 and 5 are the
oracle suites of ``llb selftest`` at full size.  The trend criteria run
the full protocol at desk scale on the deterministic synthetic streams
with fixed seeds (0, 1, 2); aggregate clauses compare 3-seed means,
per-boundary clauses hold for every seed, as stated per criterion.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from llb import nn
from llb.embedding import zero_shot_eval
from llb.errors import ConfigurationError, ProtocolError
from llb.learners import make_learner
from llb.memory import EpisodicMemory, update_eps_mem
from llb.metrics import AccuracyTensor, avg_accuracy, forgetting, lca, record, zero_shot_series
from llb.protocol import (
    ExperimentConfig,
    HyperParams,
    arch_for_stream,
    audit_isolation,
    audit_reset,
    audit_single_pass,
    build_stream,
    run_seed,
    run_single_pass,
    split_cv_ev,
)
from llb.selftest import SUITES, check_dual_qp, check_gradients, check_metrics, check_projection
from llb.streams import make_synthetic_split_stream, minibatches

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
DESK_CONFIG = ExperimentConfig(stream=DESK_STREAM, hidden=(256, 256), base=DESK_HP,
                               grid={"lr": [0.1, 0.03, 0.01]}, seeds=SEEDS)

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
# criteria 1, 2, 4 and 5: the oracle suites of ``llb selftest`` at full size


def run_suite(check):
    """One ``llb.selftest`` suite at its full size: (ok, detail, seconds)."""
    size = next(full for _, fn, full, _ in SUITES if fn is check)
    start = time.perf_counter()
    ok, detail = check(size)
    return ok, detail, time.perf_counter() - start


def test_01_projection_correctness():
    ok, detail, secs = run_suite(check_projection)
    report(1, ok and secs < 10.0, f"{detail}, {secs:.1f}s (< 10s)")


def test_02_dual_qp_soundness():
    ok, detail, secs = run_suite(check_dual_qp)
    report(2, ok and secs < 30.0, f"{detail}, {secs:.1f}s (< 30s)")


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
    update_eps_mem(mem, stream.tasks[0], seed=0)

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
# criterion 4: gradient exactness, and 5: metrics oracle


def test_04_gradient_exactness():
    ok, detail, _ = run_suite(check_gradients)
    report(4, ok, detail)


def test_05_metrics_oracle():
    ok, detail, _ = run_suite(check_metrics)
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
    report(5, ok and all(hands), f"{detail}; hand examples "
                                 f"A_2=0.7:{hands[0]} F_2=0.2:{hands[1]} LCA_1=0.5:{hands[2]}")


# ---------------------------------------------------------------------------
# criteria 6 and 10: desk-scale trend and protocol hygiene


@pytest.fixture(scope="module")
def desk_runs():
    """Each learner's seed reports from ``run_seed``: selection over the lr
    grid, the reset audit, the single pass and the isolation audit."""
    start = time.perf_counter()
    out = {
        name: [run_seed(replace(DESK_CONFIG, learner=name), seed).report for seed in SEEDS]
        for name in ("vanilla", "agem", "ewc", "multitask")
    }
    out["elapsed"] = time.perf_counter() - start
    return out


def test_06_desk_scale_permuted_trend(desk_runs):
    mean_a = {
        name: float(np.mean([r.avg_accuracy for r in desk_runs[name]]))
        for name in ("vanilla", "agem", "ewc", "multitask")
    }
    mean_f = {
        name: float(np.mean([r.forgetting for r in desk_runs[name]]))
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
        audit_isolation(cv_tasks, ev_tasks, ev_ids | {next(iter(cv_ids))})
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
