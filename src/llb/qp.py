"""Non-negative dual QP behind multi-constraint gradient projection.

With past-task gradient rows stacked in G and a proposed update g, the
projected update solves

    minimize_v  1/2 v^T (G G^T) v + (G g)^T v   s.t.  v >= 0,

after which the projection is reconstructed as  g~ = G^T v* + g.  The
multipliers v are the Lagrange duals of the primal constraints
<g~, g_k> >= 0, so v* = 0 exactly when no constraint is violated.

Solved exactly by one algorithm, the Lawson-Hanson active-set method.
With Q = G G^T and c = G g, the variable whose gradient Q v + c is most
negative enters the active set A; each iteration solves Q[A,A] z = -c[A],
and a variable that z would turn negative leaves A (v steps toward z only
until that variable reaches zero).  A variable enters only while its
gradient is below minus a round-off bound.

Rank deficiency: a zero row of G, a multiple of an active row or a linear
combination of active rows has as its gradient the same combination of
the active gradients, zero at round-off, so it never enters A; Q[A,A]
stays nonsingular and no ridge is added to Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError

# A variable enters the active set only while its gradient is below
# -_ROUNDING (t + 1) (max|Q| sum(v) + max|c|): a bound, with margin, on the
# rounding error of the gradient and on the residual of the last solve.
_ROUNDING = 64 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class DualProblem:
    gram: np.ndarray    # (t-1, t-1) = G G^T, PSD
    linear: np.ndarray  # (t-1,)     = G g

    def __post_init__(self):
        q, lin = np.asarray(self.gram), np.asarray(self.linear)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or lin.shape != (q.shape[0],):
            raise ConfigurationError(f"bad dual shapes {q.shape}, {lin.shape}")
        if not (np.isfinite(q).all() and np.isfinite(lin).all()):
            raise NumericError("non-finite entry in the dual QP")
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
        if linear is None:
            linear = G @ np.asarray(g, dtype=np.float64)
        return cls(gram, linear)

    def objective(self, v: np.ndarray) -> float:
        return float(0.5 * v @ self.gram @ v + self.linear @ v)


@dataclass
class DualSolution:
    v: np.ndarray
    iterations: int   # linear solves on the active set
    residual: float   # KKT residual of v
    converged: bool   # always True: an unsettled active set raises


def solve_nonneg_qp(problem: DualProblem) -> DualSolution:
    """The exact dual optimum, by the Lawson-Hanson active-set method.

    ``iterations`` counts the linear solves on the active set.  An active
    set that has not settled within 3t + 1 solves raises NumericError.
    """
    q, c = problem.gram, problem.linear
    n = len(c)
    scale = _ROUNDING * (n + 1)
    q_max, c_max = np.max(np.abs(q), initial=0.0), np.max(np.abs(c), initial=0.0)
    v = np.zeros(n)
    active = np.zeros(n, dtype=bool)
    solves = 0
    while True:
        grad = q @ v + c
        entering = ~active & (grad < -scale * (q_max * v.sum() + c_max))
        if not entering.any():
            break
        active[np.flatnonzero(entering)[np.argmin(grad[entering])]] = True
        while True:
            if solves == 3 * n + 1:
                raise NumericError(f"dual QP active set not settled after {solves} solves (t = {n})")
            solves += 1
            z = np.zeros(n)
            # least squares: a nearly dependent row that got in still gets a bounded z
            z[active] = np.linalg.lstsq(q[np.ix_(active, active)], -c[active], rcond=None)[0]
            blocking = active & (z < 0.0)
            if not blocking.any():
                v = z
                break
            # step from v toward z until the first variable reaches zero; it leaves
            ratio = np.full(n, np.inf)
            ratio[blocking] = v[blocking] / (v[blocking] - z[blocking])
            leaving = int(np.argmin(ratio))
            v = v + ratio[leaving] * (z - v)
            v[leaving] = 0.0
            active &= v > 0.0
            v[~active] = 0.0
    residual = float(np.max(np.where(active, np.abs(grad), -grad), initial=0.0))
    return DualSolution(v, solves, residual, True)


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
