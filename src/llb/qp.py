"""Non-negative dual QP behind multi-constraint gradient projection.

With past-task gradient rows stacked in G and a proposed update g, the
projected update solves

    minimize_v  1/2 v^T (G G^T) v + (G g)^T v   s.t.  v >= 0,

after which the projection is reconstructed as  g~ = G^T v* + g.  The
multipliers v are the Lagrange duals of the primal constraints
<g~, g_k> >= 0, so v* = 0 exactly when no constraint is violated.

Solved by projected gradient descent with step 1/L (L estimated by power
iteration), followed by an active-set polish that solves the linear
system on the support for near-exact complementary slackness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class DualProblem:
    gram: np.ndarray    # (t-1, t-1) = G G^T, PSD
    linear: np.ndarray  # (t-1,)     = G g

    def __post_init__(self):
        q, lin = np.asarray(self.gram), np.asarray(self.linear)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or lin.shape != (q.shape[0],):
            raise ConfigurationError(f"bad dual shapes {q.shape}, {lin.shape}")
        if q.size and not np.allclose(q, q.T, atol=1e-9):
            raise ConfigurationError("Gram matrix is not symmetric within 1e-9")

    @classmethod
    def from_gradients(
        cls, G: np.ndarray, g: np.ndarray, linear: np.ndarray | None = None
    ) -> "DualProblem":
        """The dual for constraint rows G and proposal g.

        ``linear`` is G g when the caller has already formed it.
        """
        G = np.atleast_2d(np.asarray(G, dtype=np.float64))
        gram = G @ G.T
        # round-off can push tiny negative curvature into the Gram matrix
        try:
            np.linalg.cholesky(gram + 0.0)
        except np.linalg.LinAlgError:
            gram = gram + 1e-10 * np.eye(len(gram))
        if linear is None:
            linear = G @ np.asarray(g, dtype=np.float64)
        return cls(gram, linear)

    def objective(self, v: np.ndarray) -> float:
        return float(0.5 * v @ self.gram @ v + self.linear @ v)


@dataclass
class DualSolution:
    v: np.ndarray
    iterations: int
    residual: float
    converged: bool


def _power_iteration_l(gram: np.ndarray, iters: int = 100) -> float:
    n = len(gram)
    x = np.ones(n) / np.sqrt(n)
    lam = 0.0
    for _ in range(iters):
        y = gram @ x
        norm = np.linalg.norm(y)
        if norm < 1e-30:
            return 0.0
        x = y / norm
        lam = float(x @ gram @ x)
    return lam


def _kkt_residual(problem: DualProblem, v: np.ndarray, active_tol: float) -> float:
    grad = problem.gram @ v + problem.linear
    zero = v <= active_tol
    res = 0.0
    if zero.any():
        res = max(res, float(np.max(-grad[zero], initial=0.0)))
    if (~zero).any():
        res = max(res, float(np.max(np.abs(grad[~zero]))))
    return res


def _polish(problem: DualProblem, v: np.ndarray, tol: float) -> np.ndarray:
    """Re-solve on the support of v; keep the result only if it is valid."""
    support = v > tol
    if not support.any():
        return v
    sub = problem.gram[np.ix_(support, support)]
    rhs = -problem.linear[support]
    try:
        u_s = np.linalg.lstsq(sub, rhs, rcond=None)[0]
    except np.linalg.LinAlgError:
        return v
    if np.any(u_s < -tol):
        return v
    u = np.zeros_like(v)
    u[support] = np.maximum(u_s, 0.0)
    if _kkt_residual(problem, u, tol) <= _kkt_residual(problem, v, tol) and (
        problem.objective(u) <= problem.objective(v) + tol
    ):
        return u
    return v


def solve_nonneg_qp(
    problem: DualProblem, tol: float = 1e-7, max_iter: int = 10_000
) -> DualSolution:
    """Projected gradient descent on the dual; KKT residual <= tol on success.

    If max_iter is exhausted the best iterate is returned with
    ``converged=False``.
    """
    n = len(problem.linear)
    if n == 0:
        return DualSolution(np.zeros(0), 0, 0.0, True)
    L = _power_iteration_l(problem.gram)
    if L <= 0.0:
        # zero curvature: objective is linear; v=0 is optimal for linear >= 0
        v = np.zeros(n)
        res = _kkt_residual(problem, v, tol)
        return DualSolution(v, 0, res, res <= tol)
    step = 1.0 / L
    v = np.zeros(n)
    it = 0
    res = _kkt_residual(problem, v, tol)
    while res > tol and it < max_iter:
        v = np.maximum(v - step * (problem.gram @ v + problem.linear), 0.0)
        it += 1
        if it % 25 == 0 or it == max_iter:
            res = _kkt_residual(problem, v, tol)
    v = _polish(problem, v, tol)
    res = _kkt_residual(problem, v, tol)
    return DualSolution(v, it, res, res <= tol)


def reconstruct(g: np.ndarray, G: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Projected gradient g~ = G^T v + g."""
    G = np.atleast_2d(np.asarray(G, dtype=np.float64))
    if G.shape[0] != len(v) or G.shape[1] != len(g):
        raise ConfigurationError(f"shape mismatch: G {G.shape}, v {len(v)}, g {len(g)}")
    return G.T @ v + g


def drop_zero_rows(G: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Remove degenerate (all-zero) constraint gradients before solving.

    Returns G itself, not a copy, when no row is dropped.
    """
    G = np.atleast_2d(np.asarray(G, dtype=np.float64))
    # one BLAS dot per row reads G at full speed; einsum here is several times slower
    keep = np.array([row @ row > eps for row in G], dtype=bool)
    return G if keep.all() else G[keep]
