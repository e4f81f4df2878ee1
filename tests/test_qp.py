import ast
import inspect

import numpy as np
import pytest

import llb.qp
from llb.errors import ConfigurationError, NumericError
from llb.learners import agem_project
from llb.oracles import nonneg_qp_enumeration, nonneg_qp_nnls
from llb.qp import DualProblem, drop_zero_rows, reconstruct, solve_nonneg_qp


def random_instance(rng, t_max=5, p_max=20):
    t = int(rng.integers(1, t_max + 1))
    p = int(rng.integers(max(t, 2), p_max + 1))
    G = rng.normal(size=(t, p))
    g = rng.normal(size=p)
    return G, g


def assert_exact(problem, sol, v_star, rel=1e-12):
    """The objective of sol equals the enumeration optimum at round-off."""
    ours, best = problem.objective(sol.v), problem.objective(v_star)
    assert abs(ours - best) <= rel * max(abs(best), 1.0)


class TestSolve:
    def test_all_constraints_satisfied_gives_zero(self):
        # non-negative linear term == no violated constraint
        problem = DualProblem(np.eye(3) * 2.0, np.array([0.5, 1.0, 0.0]))
        sol = solve_nonneg_qp(problem)
        assert sol.converged
        assert np.all(sol.v == 0.0)

    def test_one_dimensional_closed_form(self):
        sol = solve_nonneg_qp(DualProblem(np.array([[2.0]]), np.array([-1.0])))
        assert sol.converged
        assert sol.v == pytest.approx([0.5], abs=1e-9)

    def test_random_instances_match_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            G, g = random_instance(rng)
            problem = DualProblem.from_gradients(G, g)
            sol = solve_nonneg_qp(problem)
            v_star = nonneg_qp_enumeration(problem)
            assert problem.objective(sol.v) <= problem.objective(v_star) + 1e-6
            assert np.all(sol.v >= 0.0)
            assert_exact(problem, sol, v_star)
            assert sol.converged and 0 <= sol.iterations <= 3 * len(problem.linear) + 1

    def test_matches_generic_nnls(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            G, g = random_instance(rng)
            problem = DualProblem.from_gradients(G, g)
            sol = solve_nonneg_qp(problem)
            v_nnls = nonneg_qp_nnls(G, g)
            assert problem.objective(sol.v) <= problem.objective(v_nnls) + 1e-8
            assert_exact(problem, sol, v_nnls)

    def test_complementary_slackness(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            G, g = random_instance(rng)
            problem = DualProblem.from_gradients(G, g)
            sol = solve_nonneg_qp(problem)
            grad = problem.gram @ sol.v + problem.linear
            assert np.all(grad >= -1e-6)              # dual feasibility of the gradient
            assert np.all(np.abs(sol.v * grad) < 1e-6)  # v_i * grad_i == 0
            scale = np.abs(problem.gram).max() * sol.v.sum() + np.abs(problem.linear).max()
            assert sol.residual <= 1e-12 * scale

    def test_empty_problem(self):
        sol = solve_nonneg_qp(DualProblem(np.zeros((0, 0)), np.zeros(0)))
        assert sol.converged and len(sol.v) == 0

    def test_bad_shapes_rejected(self):
        with pytest.raises(ConfigurationError):
            DualProblem(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ConfigurationError):
            DualProblem(np.array([[0.0, 1.0], [0.5, 0.0]]), np.zeros(2))


def assert_feasible(G, g, v, rel=1e-12):
    """Every constraint <g~, G_k> >= 0 holds at round-off."""
    slack = G @ reconstruct(g, G, v)
    assert np.all(slack >= -rel * np.linalg.norm(G, axis=1) * np.linalg.norm(g))


def dependent_rows(kind, G):
    """G with one extra row that is zero or a combination of its rows."""
    extra = {
        "duplicate": G[0],
        "negated": -G[0],
        "scaled": 2.5 * G[0],
        "sum": G[0] + G[1],
        "zero": np.zeros(G.shape[1]),
    }[kind]
    return np.vstack([G, extra])


class TestRankDeficient:
    """A row that depends on other rows never enters the active set."""

    @pytest.mark.parametrize("kind", ["duplicate", "negated", "scaled", "sum", "zero"])
    def test_matches_enumeration(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(100):
            t = int(rng.integers(2, 6))
            G = dependent_rows(kind, rng.normal(size=(t, int(rng.integers(t, 21)))))
            G = G[rng.permutation(len(G))]
            g = rng.normal(size=G.shape[1])
            problem = DualProblem.from_gradients(G, g)
            sol = solve_nonneg_qp(problem)
            assert_exact(problem, sol, nonneg_qp_enumeration(problem))
            assert_feasible(G, g, sol.v)
            support = sol.v > 0.0
            assert np.linalg.matrix_rank(G[support]) == support.sum()

    def test_single_row(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            G = rng.normal(size=(1, int(rng.integers(2, 21))))
            g = rng.normal(size=G.shape[1])
            problem = DualProblem.from_gradients(G, g)
            sol = solve_nonneg_qp(problem)
            assert_exact(problem, sol, nonneg_qp_enumeration(problem))
            assert_feasible(G, g, sol.v)
            assert sol.iterations == (1 if G[0] @ g < 0 else 0)


class TestUnsettledActiveSet:
    def test_cap_raises(self):
        # Q = [[-1]] is no Gram matrix: the entering variable would turn
        # negative at once, so the active set cycles until the cap
        with pytest.raises(NumericError, match=r"after 4 solves \(t = 1\)"):
            solve_nonneg_qp(DualProblem(np.array([[-1.0]]), np.array([-1.0])))

    def test_cap_scales_with_t(self):
        q = -np.eye(3)
        with pytest.raises(NumericError, match=r"after 10 solves \(t = 3\)"):
            solve_nonneg_qp(DualProblem(q, -np.ones(3)))

    def test_non_finite_problem_rejected(self):
        with pytest.raises(NumericError):
            DualProblem(np.array([[1.0]]), np.array([np.nan]))
        with pytest.raises(NumericError):
            DualProblem(np.array([[np.inf]]), np.array([-1.0]))
        with pytest.raises(NumericError):
            DualProblem(np.array([[1.0, np.nan], [np.nan, 1.0]]), np.zeros(2))

    def test_no_solver_knobs(self):
        assert list(inspect.signature(solve_nonneg_qp).parameters) == ["problem"]
        problem = DualProblem(np.array([[2.0]]), np.array([-1.0]))
        with pytest.raises(TypeError):
            solve_nonneg_qp(problem, tol=1e-7)
        with pytest.raises(TypeError):
            solve_nonneg_qp(problem, max_iter=10)


def test_qp_imports_nothing_from_scipy():
    # oracles.nonneg_qp_nnls checks the solver through scipy; that check is
    # only independent while the solver uses no scipy, directly or through
    # another llb module
    tree = ast.parse(inspect.getsource(llb.qp))
    froms = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    absolute = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    absolute += [node.module for node in froms if not node.level]
    assert not [name for name in absolute if name.split(".")[0] == "scipy"]
    assert [node.module for node in froms if node.level] == ["errors"]


class TestReconstruct:
    def test_zero_multipliers_identity(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=10)
        G = rng.normal(size=(3, 10))
        assert np.array_equal(reconstruct(g, G, np.zeros(3)), g)

    def test_single_row_equals_half_space_projection(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = rng.normal(size=30)
            g_ref = rng.normal(size=30)
            if g @ g_ref >= 0:
                g = -g
            G = g_ref.reshape(1, -1)
            sol = solve_nonneg_qp(DualProblem.from_gradients(G, g))
            g_tilde = reconstruct(g, G, sol.v)
            proj = agem_project(g, g_ref)
            assert np.allclose(g_tilde, proj.g_tilde, atol=1e-9)

    def test_feasibility_after_projection(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            G, g = random_instance(rng)
            sol = solve_nonneg_qp(DualProblem.from_gradients(G, g))
            g_tilde = reconstruct(g, G, sol.v)
            assert np.min(G @ g_tilde) >= -1e-6

    def test_minimality_against_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            G, g = random_instance(rng)
            problem = DualProblem.from_gradients(G, g)
            sol = solve_nonneg_qp(problem)
            v_star = nonneg_qp_enumeration(problem)
            ours = np.linalg.norm(g - reconstruct(g, G, sol.v))
            oracle = np.linalg.norm(g - reconstruct(g, G, v_star))
            assert ours <= oracle + 1e-6
            assert_exact(problem, sol, v_star)


def test_drop_zero_rows():
    G = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
    kept = drop_zero_rows(G)
    assert kept.shape == (2, 2)
    assert np.array_equal(kept, np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_drop_zero_rows_returns_input_when_nothing_dropped():
    G = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert drop_zero_rows(G) is G
