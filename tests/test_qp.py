import numpy as np
import pytest

from llb.errors import ConfigurationError
from llb.learners import agem_project
from llb.oracles import nonneg_qp_enumeration, nonneg_qp_nnls
from llb.qp import DualProblem, drop_zero_rows, reconstruct, solve_nonneg_qp


def random_instance(rng, t_max=5, p_max=20):
    t = int(rng.integers(1, t_max + 1))
    p = int(rng.integers(max(t, 2), p_max + 1))
    G = rng.normal(size=(t, p))
    g = rng.normal(size=p)
    return G, g


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

    def test_matches_generic_nnls(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            G, g = random_instance(rng)
            problem = DualProblem.from_gradients(G, g)
            sol = solve_nonneg_qp(problem)
            v_nnls = nonneg_qp_nnls(G, g)
            assert problem.objective(sol.v) <= problem.objective(v_nnls) + 1e-8

    def test_complementary_slackness(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            G, g = random_instance(rng)
            problem = DualProblem.from_gradients(G, g)
            sol = solve_nonneg_qp(problem)
            grad = problem.gram @ sol.v + problem.linear
            assert np.all(grad >= -1e-6)              # dual feasibility of the gradient
            assert np.all(np.abs(sol.v * grad) < 1e-6)  # v_i * grad_i == 0

    def test_empty_problem(self):
        sol = solve_nonneg_qp(DualProblem(np.zeros((0, 0)), np.zeros(0)))
        assert sol.converged and len(sol.v) == 0

    def test_bad_shapes_rejected(self):
        with pytest.raises(ConfigurationError):
            DualProblem(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ConfigurationError):
            DualProblem(np.array([[0.0, 1.0], [0.5, 0.0]]), np.zeros(2))


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


def test_drop_zero_rows():
    G = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
    kept = drop_zero_rows(G)
    assert kept.shape == (2, 2)
    assert np.array_equal(kept, np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_drop_zero_rows_returns_input_when_nothing_dropped():
    G = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert drop_zero_rows(G) is G
