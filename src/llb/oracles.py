"""Independent reference implementations used to verify the fast paths.

Everything here recomputes a quantity by a route disjoint from the
library code it checks: finite differences instead of backprop, explicit
triple loops instead of BLAS, exhaustive enumeration of every support and
scipy's NNLS on G^T (``llb.qp`` imports nothing from scipy) instead of the
active-set solve on the Gram matrix, and direct re-summation of the
accuracy log instead of the metric functions.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import nnls as scipy_nnls

from .metrics import AccuracyTensor
from .qp import DualProblem


def finite_diff_grad(loss_fn, theta: np.ndarray, coords, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of loss_fn(theta) at the given coordinates."""
    out = np.zeros(len(coords))
    for n, c in enumerate(coords):
        bumped = theta.copy()
        bumped[c] += h
        up = loss_fn(bumped)
        bumped[c] -= 2 * h
        down = loss_fn(bumped)
        out[n] = (up - down) / (2 * h)
    return out


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop matrix product, no BLAS."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * b[l, j]
            out[i, j] = acc
    return out


def naive_mlp_forward(weights, biases, x: np.ndarray, relu_last: bool = False) -> np.ndarray:
    """Forward pass through dense ReLU layers using the triple-loop product."""
    h = x
    for idx, (W, b) in enumerate(zip(weights, biases)):
        h = naive_matmul(h, W) + b
        if idx < len(weights) - 1 or relu_last:
            h = np.maximum(h, 0.0)
    return h


def halfspace_projection_nnls(g: np.ndarray, g_ref: np.ndarray) -> np.ndarray:
    """Closest vector to g with non-negative inner product against g_ref.

    Solved as a generic non-negative least-squares problem in the single
    dual variable: min_{a>=0} || a * g_ref - (-g) ||, then z = g + a g_ref.
    """
    a, _ = scipy_nnls(g_ref.reshape(-1, 1), -g)
    return g + a[0] * g_ref


def nonneg_qp_enumeration(problem: DualProblem) -> np.ndarray:
    """Exhaustive active-set search for min 1/2 v'Qv + c'v s.t. v >= 0.

    Every sign pattern of the support is tried; any candidate with v >= 0
    is feasible, so the best objective over all candidates is the optimum.
    Exact up to linear-solve round-off; exponential in the problem size.
    """
    q, c = problem.gram, problem.linear
    n = len(c)
    best_v = np.zeros(n)
    best_obj = problem.objective(best_v)
    for r in range(1, n + 1):
        for support in itertools.combinations(range(n), r):
            s = list(support)
            sub = q[np.ix_(s, s)]
            try:
                v_s = np.linalg.lstsq(sub, -c[s], rcond=None)[0]
            except np.linalg.LinAlgError:
                continue
            if np.any(v_s < 0):
                continue
            v = np.zeros(n)
            v[s] = v_s
            obj = problem.objective(v)
            if obj < best_obj:
                best_obj, best_v = obj, v
    return best_v


def nonneg_qp_nnls(problem_G: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The same dual optimum via scipy's NNLS: min_{v>=0} ||G^T v + g||."""
    v, _ = scipy_nnls(problem_G.T, -np.asarray(g, dtype=np.float64))
    return v


def brute_force_metrics(tensor: AccuracyTensor, beta: int | None = None) -> dict:
    """Recompute every metric by direct loops over the accuracy log."""
    order = tensor.order
    ends = {k: tensor.batch_counts[k] for k in order}
    a = tensor.entries

    def pos(t):
        return order.index(t)

    out: dict = {"A": {}, "F": {}, "f": {}, "F_wst": {}}
    for k in order:
        upto = order[: pos(k) + 1]
        out["A"][k] = sum(a[(k, ends[k], j)] for j in upto) / len(upto)
        if len(upto) >= 2:
            drops = {}
            for j in upto[:-1]:
                peak = -np.inf
                for l in upto[:-1]:
                    key = (l, ends[l], j)
                    if key in a and a[key] > peak:
                        peak = a[key]
                drops[j] = peak - a[(k, ends[k], j)]
            out["f"][k] = drops
            out["F"][k] = sum(drops.values()) / len(drops)
            out["F_wst"][k] = max(drops.values())
    if beta is not None:
        zb = []
        for b in range(beta + 1):
            zb.append(sum(a[(k, b, k)] for k in order) / len(order))
        out["Z"] = zb
        out["LCA"] = sum(zb) / (beta + 1)
    out["zero_shot"] = [(k, a[(k, 0, k)]) for k in order]
    return out
