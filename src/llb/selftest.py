"""In-process oracle property suites behind the ``selftest`` subcommand.

Each suite checks a fast code path against an independent reference
implementation and prints one PASS/FAIL line.  At full size the suites are
acceptance criteria 1, 2, 4 and 5 (``tests/test_acceptance.py``).
"""

from __future__ import annotations

import numpy as np

from . import nn
from .errors import NumericError
from .learners import agem_project
from .metrics import (
    AccuracyTensor,
    avg_accuracy,
    forgetting,
    lca,
    record,
    worst_case_forgetting,
    zero_shot_series,
)
from .oracles import (
    brute_force_metrics,
    finite_diff_grad,
    halfspace_projection_nnls,
    nonneg_qp_enumeration,
)
from .qp import DualProblem, reconstruct, solve_nonneg_qp


def check_projection(pairs: int) -> tuple[bool, str]:
    """A-GEM's closed-form projection against generic NNLS; a satisfied
    constraint must pass ``g`` itself through."""
    rng = np.random.default_rng(2024)
    worst_ortho = worst_gap = 0.0
    for _ in range(pairs):
        p = int(rng.integers(2, 513))
        g = rng.normal(size=p)
        g_ref = rng.normal(size=p)
        proj = agem_project(g, g_ref)
        if g @ g_ref >= 0:
            if proj.violated:
                return False, "flagged a satisfied constraint as violated"
            if proj.g_tilde is not g:
                return False, "a satisfied constraint did not pass g itself through"
        else:
            if not proj.violated:
                return False, "missed a violated constraint"
            ortho = abs(proj.g_tilde @ g_ref) / (np.linalg.norm(g) * np.linalg.norm(g_ref))
            worst_ortho = max(worst_ortho, ortho)
            if ortho > 1e-9:
                return False, f"projection not orthogonal (rel {ortho:.2e})"
        z = halfspace_projection_nnls(g, g_ref)
        gap = abs(np.linalg.norm(g - proj.g_tilde) - np.linalg.norm(g - z))
        worst_gap = max(worst_gap, gap)
        if gap > 1e-6:
            return False, f"distance differs from NNLS oracle by {gap:.2e}"
    return True, (f"{pairs} pairs, orthogonality {worst_ortho:.2e} (<= 1e-9), "
                  f"solver gap {worst_gap:.2e} (<= 1e-6)")


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
        try:
            sol = solve_nonneg_qp(problem)
        except NumericError as exc:
            return False, f"instance {i}: {exc}"
        v_star = nonneg_qp_enumeration(problem)
        gap = problem.objective(sol.v) - problem.objective(v_star)
        worst_obj = max(worst_obj, gap)
        if gap > 1e-6:
            return False, f"objective {gap:.2e} above enumeration optimum"
        slack = float(np.min(G @ reconstruct(g, G, sol.v)))
        worst_feas = max(worst_feas, max(0.0, -slack))
        if slack < -1e-6:
            return False, f"reconstructed update violates a constraint by {-slack:.2e}"
    return True, (f"{instances} instances (2 in 3 rank-deficient), objective gap "
                  f"{worst_obj:.2e}, infeasibility {worst_feas:.2e} (<= 1e-6)")


def check_gradients(models: int) -> tuple[bool, str]:
    """The loss/gradient kernel against central differences on random
    architecture shapes, cycling through one-task and mixed multi-task
    batches with per-task heads and with the attribute table.  The three
    tasks have unequal class counts and unequal shares of a mixed batch, so
    mixed batches run the grouped path with several blocks and weigh each
    task by its own share."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for i in range(models):
        je, mixed = i % 2 == 1, i % 4 >= 2
        dim = int(rng.integers(4, 9))
        hidden = (int(rng.integers(6, 12)), int(rng.integers(4, 9)))
        counts = rng.permutation([2, 3, 4]).tolist()
        if je:
            attrs = int(rng.integers(3, 7))
            arch = nn.Architecture(dim, hidden, head_mode=nn.JOINT_EMBEDDING, attr_count=attrs)
            descriptors = {
                t: rng.integers(0, 2, size=(c, attrs)).astype(float) for t, c in enumerate(counts, 1)
            }
        else:
            arch = nn.mlp(dim, hidden, counts)
            descriptors = {}
        # a point near init, off it: init's biases are exactly 0, so a row whose
        # first layer is all dead would sit exactly on a ReLU kink of the next
        # layer, where central differences do not measure the gradient
        theta = nn.init_model(arch, seed=int(rng.integers(1 << 30))).theta
        theta = theta + rng.normal(scale=0.01, size=len(theta))
        if mixed:
            tasks = rng.permutation(np.repeat([1, 2, 3], rng.permutation([2, 3, 4])))
        else:
            tasks = np.ones(int(rng.integers(3, 9)), dtype=np.int64)
        y = np.array([rng.integers(0, counts[t - 1]) for t in tasks])
        x = rng.normal(size=(len(y), dim))
        routed = tasks if mixed else 1      # a single id takes the one-task path

        def loss_and_grad(th, arch=arch, x=x, y=y, tasks=routed, d=descriptors):
            return nn.head_loss_and_grad(nn.Model(arch, th), x, y, tasks, d)

        _, grad = loss_and_grad(theta)
        coords = rng.choice(len(theta), size=min(500, len(theta)), replace=False)
        fd = finite_diff_grad(lambda th: loss_and_grad(th)[0], theta, coords)
        rel = np.linalg.norm(grad[coords] - fd) / max(np.linalg.norm(fd), 1e-300)
        worst = max(worst, rel)
        if rel >= 1e-6:
            kind = ("mixed" if mixed else "one-task") + (" table" if je else " per-task")
            return False, f"gradient mismatch {rel:.2e} on model {i} ({kind})"
    on_mixed = sum(i % 4 >= 2 for i in range(models))
    return True, (f"{models} models ({(models + 1) // 2} per-task, {models // 2} joint-embedding; "
                  f"{on_mixed} on mixed-task batches), worst relative error {worst:.2e} (< 1e-6)")


def _random_log(rng: np.random.Generator) -> tuple[AccuracyTensor, int]:
    """A random accuracy log at the protocol's cadence, filled through ``record``."""
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


def check_metrics(logs: int) -> tuple[bool, str]:
    """Every metric function, zero-shot series included, against brute-force
    recomputation over the log, bit for bit."""
    rng = np.random.default_rng(99)
    for _ in range(logs):
        tensor, beta = _random_log(rng)
        ref = brute_force_metrics(tensor, beta)
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
        if zero_shot_series(tensor) != ref["zero_shot"]:
            return False, "zero-shot series differs from brute force"
    return True, f"{logs} random logs, bit-exact"


# name, check, full size (the acceptance criterion's), --fast size
SUITES = (
    ("projection vs NNLS oracle", check_projection, 10_000, 1000),
    ("dual QP vs enumeration", check_dual_qp, 1000, 100),
    ("gradients vs finite differences", check_gradients, 20, 4),
    ("metrics vs brute force", check_metrics, 500, 50),
)


def run_all(fast: bool = False) -> int:
    failures = 0
    for name, check, full, small in SUITES:
        ok, detail = check(small if fast else full)
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failures += 0 if ok else 1
    return 1 if failures else 0
