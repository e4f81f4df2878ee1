"""In-process oracle property suites behind the ``selftest`` subcommand.

Each suite checks a fast code path against an independent reference
implementation and prints one PASS/FAIL line.
"""

from __future__ import annotations

import numpy as np

from . import nn
from .learners import agem_project
from .metrics import AccuracyTensor, avg_accuracy, forgetting, lca, worst_case_forgetting
from .oracles import (
    brute_force_metrics,
    finite_diff_grad,
    halfspace_projection_nnls,
    nonneg_qp_enumeration,
)
from .qp import DualProblem, reconstruct, solve_nonneg_qp


def check_projection(pairs: int) -> tuple[bool, str]:
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(pairs):
        p = int(rng.integers(2, 513))
        g = rng.normal(size=p)
        g_ref = rng.normal(size=p)
        proj = agem_project(g, g_ref)
        dot = g @ g_ref
        if dot >= 0 and proj.violated:
            return False, "flagged a satisfied constraint as violated"
        if dot < 0:
            if not proj.violated:
                return False, "missed a violated constraint"
            ortho = abs(proj.g_tilde @ g_ref) / (
                np.linalg.norm(g) * np.linalg.norm(g_ref)
            )
            worst = max(worst, ortho)
            if ortho > 1e-9:
                return False, f"projection not orthogonal (rel {ortho:.2e})"
        z = halfspace_projection_nnls(g, g_ref)
        gap = abs(np.linalg.norm(g - proj.g_tilde) - np.linalg.norm(g - z))
        worst = max(worst, gap)
        if gap > 1e-6:
            return False, f"distance differs from NNLS oracle by {gap:.2e}"
    return True, f"{pairs} pairs, worst deviation {worst:.2e}"


def check_dual_qp(instances: int) -> tuple[bool, str]:
    """The dual QP against enumeration, cycling through full-rank G and G
    with a duplicated or a negated row (rank-deficient Gram matrices)."""
    rng = np.random.default_rng(7)
    worst_obj = worst_feas = 0.0
    for i in range(instances):
        t = int(rng.integers(1, 6))
        p = int(rng.integers(max(t, 2), 21))
        G = rng.normal(size=(t, p))
        g = rng.normal(size=p)
        if i % 3:
            row = G[int(rng.integers(0, t))]
            G = np.vstack([G, row if i % 3 == 1 else -row])
        problem = DualProblem.from_gradients(G, g)
        sol = solve_nonneg_qp(problem)
        v_star = nonneg_qp_enumeration(problem)
        gap = problem.objective(sol.v) - problem.objective(v_star)
        worst_obj = max(worst_obj, gap)
        if gap > 1e-6:
            return False, f"objective {gap:.2e} above enumeration optimum"
        slack = float(np.min(G @ reconstruct(g, G, sol.v)))
        worst_feas = max(worst_feas, max(0.0, -slack))
        if slack < -1e-6:
            return False, f"reconstructed update violates a constraint by {-slack:.2e}"
    return True, f"{instances} instances, worst gap {worst_obj:.2e}, infeas {worst_feas:.2e}"


def check_gradients(models: int) -> tuple[bool, str]:
    """The loss/gradient kernel against central differences, cycling through
    one-task and mixed multi-task batches with per-task heads and with the
    attribute table; the tasks have unequal class counts, so mixed batches
    run the grouped path with several blocks."""
    rng = np.random.default_rng(13)
    counts = (3, 4, 2)
    worst = 0.0
    for i in range(models):
        je, mixed = i % 2 == 1, i % 4 >= 2
        if je:
            arch = nn.Architecture(6, (8, 5), head_mode=nn.JOINT_EMBEDDING, attr_count=4)
            descriptors = {
                t: rng.integers(0, 2, size=(c, 4)).astype(float) for t, c in enumerate(counts, 1)
            }
        else:
            arch = nn.mlp(6, (8, 5), counts)
            descriptors = {}
        model = nn.init_model(arch, seed=int(rng.integers(1 << 30)))
        tasks = rng.permutation(np.repeat([1, 2, 3], 3)) if mixed else np.ones(7, dtype=np.int64)
        y = np.array([rng.integers(0, counts[t - 1]) for t in tasks])
        x = rng.normal(size=(len(y), 6))
        routed = tasks if mixed else 1      # a single id takes the one-task path

        def loss_and_grad(theta, arch=arch, x=x, y=y, tasks=routed, d=descriptors):
            return nn.head_loss_and_grad(nn.Model(arch, theta), x, y, tasks, d)

        _, grad = loss_and_grad(model.theta)
        coords = rng.choice(len(model.theta), size=min(150, len(model.theta)), replace=False)
        fd = finite_diff_grad(lambda theta: loss_and_grad(theta)[0], model.theta, coords)
        rel = np.linalg.norm(grad[coords] - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
        if rel > 1e-6:
            kind = ("mixed" if mixed else "one-task") + (" table" if je else " per-task")
            return False, f"gradient mismatch {rel:.2e} on model {i} ({kind})"
    return True, f"{models} models, worst relative error {worst:.2e}"


def _random_tensor(rng: np.random.Generator) -> tuple[AccuracyTensor, int]:
    T = int(rng.integers(2, 7))
    order = list(range(1, T + 1))
    tensor = AccuracyTensor(order=order)
    beta = int(rng.integers(0, 4))
    for k in order:
        bk = int(rng.integers(beta + 1, beta + 5))
        tensor.batch_counts[k] = bk
        for b in range(beta + 1):
            tensor.entries[(k, b, k)] = float(rng.random())
        for j in order:
            tensor.entries[(k, bk, j)] = float(rng.random())
    return tensor, beta


def check_metrics(tensors: int) -> tuple[bool, str]:
    rng = np.random.default_rng(99)
    for _ in range(tensors):
        tensor, beta = _random_tensor(rng)
        ref = brute_force_metrics(tensor, beta)
        last = tensor.order[-1]
        for k in tensor.order:
            if avg_accuracy(tensor, k) != ref["A"][k]:
                return False, f"A_{k} differs from brute force"
            if k in ref["F"]:
                f_k, per = forgetting(tensor, k)
                if f_k != ref["F"][k] or per != ref["f"][k]:
                    return False, f"F_{k} differs from brute force"
                if worst_case_forgetting(tensor, k) != ref["F_wst"][k]:
                    return False, f"F_wst at {k} differs from brute force"
        zb, area = lca(tensor, beta)
        if zb != ref["Z"] or area != ref["LCA"]:
            return False, "LCA differs from brute force"
        del last
    return True, f"{tensors} random logs, bit-exact"


def run_all(fast: bool = False) -> int:
    suites = [
        ("projection vs NNLS oracle", check_projection, 1000 if fast else 10_000),
        ("dual QP vs enumeration", check_dual_qp, 100 if fast else 500),
        ("gradients vs finite differences", check_gradients, 4 if fast else 10),
        ("metrics vs brute force", check_metrics, 50 if fast else 200),
    ]
    failures = 0
    for name, fn, size in suites:
        ok, detail = fn(size)
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failures += 0 if ok else 1
    return 1 if failures else 0
