"""Geometry of constrained gradient updates, in two dimensions.

A proposed update g that would increase the reference loss (negative
inner product with g_ref) is replaced by its closest feasible neighbor,
which lies on the boundary <g~, g_ref> = 0.  With several references the
same projection is found through the small non-negative dual QP.
"""

import numpy as np

from llb.learners import agem_project
from llb.qp import DualProblem, reconstruct, solve_nonneg_qp

print("=== single reference (averaged-memory constraint) ===")
cases = [
    (np.array([1.0, 1.0]), np.array([1.0, 0.0])),    # already feasible
    (np.array([1.0, 0.0]), np.array([-1.0, 1.0])),   # violated, projects
    (np.array([-2.0, 0.0]), np.array([1.0, 0.0])),   # antiparallel, zeroed
]
for g, g_ref in cases:
    proj = agem_project(g, g_ref)
    print(f"g={g} g_ref={g_ref} -> g~={np.round(proj.g_tilde, 3)} "
          f"violated={proj.violated} <g~,g_ref>={proj.g_tilde @ g_ref:+.2e}")

print()
print("=== several references (per-task constraints via the dual QP) ===")
rng = np.random.default_rng(0)
g = rng.normal(size=6)
G = rng.normal(size=(3, 6))
print("inner products before:", np.round(G @ g, 3))
problem = DualProblem.from_gradients(G, g)
sol = solve_nonneg_qp(problem)
g_tilde = reconstruct(g, G, sol.v)
print("dual multipliers:     ", np.round(sol.v, 4))
print("inner products after: ", np.round(G @ g_tilde, 10))
print(f"moved by |g - g~| = {np.linalg.norm(g - g_tilde):.4f} "
      f"(exact dual after {sol.iterations} active-set solves)")
