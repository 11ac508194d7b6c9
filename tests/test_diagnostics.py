import math

import numpy as np
import pytest

from lqsolve.core import ProblemInstance, l_max
from lqsolve.diagnostics import (certify_local_min, check_relative_error,
                                 check_stationary, check_update_optimality)
from lqsolve.errors import InvalidInstance, NotStationary
from lqsolve.prox import ProxParams
from lqsolve.solvers import SolverConfig, gaita_run

from conftest import (bisect_root, gaita_update, initial_state, prox_vector_oracle,
                      small_problem)


def unit_fixed_point():
    """Stationary point of the 1-d example A=[1], y=(2), lam=1, q=1/2."""
    return bisect_root(lambda v: v + 0.5 / math.sqrt(v) - 2.0, 1.0, 2.0,
                       tol=1e-14)


def thresholded_gradient_map(p, x, mu):
    """G(x) = prox(x - mu * A^T(Ax - y)); stationary points are its fixed
    points.  Used as an independent oracle for check_stationary."""
    params = ProxParams(c=p.lam * mu, q=p.q)
    z = x - mu * (p.A.T @ (p.A @ x - p.y))
    return prox_vector_oracle(z, x, params)


class TestCheckStationary:
    def test_unit_example_is_stationary(self, unit_problem):
        x = np.array([unit_fixed_point()])
        report = check_stationary(unit_problem, x, mu=1.0, tol=1e-6)
        assert report.is_stationary
        assert report.support == (0,)
        assert report.max_gradient_residual_on_support <= 1e-8

    def test_zero_vector_stationarity_depends_on_correlation(self):
        # at x=0 only condition (c) is active: |A^T y| <= tau/mu
        p = ProblemInstance(A=np.eye(2), y=np.array([0.1, 0.0]),
                            lam=1.0, q=0.5)
        assert check_stationary(p, np.zeros(2), mu=0.9).is_stationary
        p_big = ProblemInstance(A=np.eye(2), y=np.array([5.0, 0.0]),
                                lam=1.0, q=0.5)
        assert not check_stationary(p_big, np.zeros(2), mu=0.9).is_stationary

    def test_small_support_entry_fails(self, unit_problem):
        # eta = 1 here, so a support entry of 0.5 violates the range law
        report = check_stationary(unit_problem, np.array([0.5]), mu=1.0)
        assert not report.is_stationary
        assert report.min_support_magnitude == pytest.approx(0.5)

    def test_solver_endpoints_are_stationary(self):
        for seed in range(3):
            p, _ = small_problem(seed=seed, lam=0.001)
            mu = 0.95 / l_max(p.A)
            state, trace = gaita_run(p, np.zeros(p.n), SolverConfig(mu=mu))
            assert trace.flags["converged"]
            assert check_stationary(p, state.x, mu, tol=1e-6).is_stationary

    def test_agrees_with_fixed_point_oracle_small_instances(self, rng):
        # on N <= 6 instances the verdict must match ||G(x) - x|| <= 1e-8
        for seed in range(6):
            p, _ = small_problem(seed=100 + seed, m=5, n=6, k=2, lam=0.01)
            mu = 0.9 / l_max(p.A)
            state, _ = gaita_run(p, np.zeros(p.n),
                                 SolverConfig(mu=mu, tol=1e-13))
            gap = np.linalg.norm(thresholded_gradient_map(p, state.x, mu)
                                 - state.x)
            verdict = check_stationary(p, state.x, mu, tol=1e-6).is_stationary
            assert verdict == (gap <= 1e-8)
            # a perturbed point must fail both tests
            bad = state.x + rng.normal(0.0, 1e-3, size=p.n)
            bad_gap = np.linalg.norm(thresholded_gradient_map(p, bad, mu) - bad)
            assert bad_gap > 1e-8
            assert not check_stationary(p, bad, mu, tol=1e-6).is_stationary


class TestUpdateOptimality:
    def test_holds_along_solver_updates(self):
        p, _ = small_problem(seed=20, m=10, n=15, k=3)
        mu = 0.9 / l_max(p.A)
        config = SolverConfig(mu=mu)
        state = initial_state(p, np.zeros(p.n))
        for _ in range(2 * p.n):
            i = state.n % p.n
            new = gaita_update(state, p, config)
            assert check_update_optimality(state.x, new.x, p, mu, i, tol=1e-8)
            state = new

    def test_zero_output_is_vacuous(self):
        p, _ = small_problem(seed=21, m=6, n=8, k=2)
        x = np.zeros(p.n)
        assert check_update_optimality(x, x, p, 0.5 / l_max(p.A), 0)

    def test_fabricated_value_fails(self):
        p, _ = small_problem(seed=22, m=6, n=8, k=2)
        mu = 0.9 / l_max(p.A)
        x_prev = np.zeros(p.n)
        x_next = np.zeros(p.n)
        x_next[0] = 3.0  # not the minimizer of the coordinate subproblem
        assert not check_update_optimality(x_prev, x_next, p, mu, 0)

    def test_rejects_multi_coordinate_change(self):
        p, _ = small_problem(seed=23, m=6, n=8, k=2)
        x_prev = np.zeros(p.n)
        x_next = np.zeros(p.n)
        x_next[1] = 1.0
        x_next[2] = 1.0
        with pytest.raises(InvalidInstance):
            check_update_optimality(x_prev, x_next, p, 0.5, 1)


class TestSupportFreeze:
    def test_solver_signs_freeze_before_run_end(self):
        # the sign pattern must stabilize strictly before the step-size
        # stop fires (finite-iteration freeze); short windows may latch
        # onto earlier transient plateaus, so scan from the end
        p, _ = small_problem(seed=24, lam=0.001)
        state, trace = gaita_run(p, np.zeros(p.n),
                                 SolverConfig(mu=0.95 / l_max(p.A),
                                              record_iterates=True))
        signs = trace.sign_history()
        final = signs[-1]
        changed = [i for i, row in enumerate(signs)
                   if not np.array_equal(row, final)]
        freeze = changed[-1] + 1 if changed else 0
        assert freeze < len(signs) - 1
        assert np.array_equal(final, np.sign(state.x).astype(final.dtype))


class TestRelativeError:
    def test_fixed_point_tail_holds_trivially(self, unit_problem):
        # the gradient at the (bisection-accurate) fixed point is ~1e-14,
        # the step is 0, so a tiny slack absorbs the root-finder tolerance
        x = np.array([unit_fixed_point()])
        assert check_relative_error(unit_problem, [x, x.copy()], mu=1.0,
                                    slack=1e-9)

    def test_single_coordinate_bound_explicitly(self, unit_problem):
        # K=1, delta=1: the bound is (1/mu + 1) * |u_next - u_prev|
        x_star = unit_fixed_point()
        u_prev = np.array([x_star + 1e-3])
        u_next = np.array([x_star + 1e-4])
        grad = abs((u_next[0] - 2.0) + 0.5 * u_next[0] ** (-0.5))
        bound = 2.0 * abs(u_next[0] - u_prev[0])
        assert grad <= bound  # hand-computed version of the K=1 inequality
        assert check_relative_error(unit_problem, [u_prev, u_next], mu=1.0,
                                    slack=1e-9)

    def test_converged_tail_of_run(self):
        p, _ = small_problem(seed=25, lam=0.001)
        mu = 0.95 / l_max(p.A)
        config = SolverConfig(mu=mu, record_iterates=True, tol=1e-12)
        _, trace = gaita_run(p, np.zeros(p.n), config)
        tail = trace.iterates[-8:]
        assert check_relative_error(p, tail, mu, slack=1e-9)

    def test_empty_support_tail(self):
        p = ProblemInstance(A=np.eye(2), y=np.array([0.1, 0.0]), lam=1.0, q=0.5)
        assert check_relative_error(p, [np.zeros(2), np.zeros(2)], mu=0.9)

    def test_rejects_changing_support(self):
        p, _ = small_problem(seed=26, m=4, n=6, k=1)
        a = np.zeros(p.n)
        b = np.zeros(p.n)
        b[0] = 1.0
        with pytest.raises(InvalidInstance):
            check_relative_error(p, [a, b], mu=0.5)

    def test_needs_two_iterates(self):
        p, _ = small_problem(seed=26, m=4, n=6, k=1)
        with pytest.raises(InvalidInstance):
            check_relative_error(p, [np.zeros(p.n)], mu=0.5)


class TestCertificate:
    def test_unit_example_curvature_value(self, unit_problem):
        # M = 1 + lam*q*(q-1)*x^(q-2) at the fixed point: about 0.877
        x_star = unit_fixed_point()
        cert = certify_local_min(unit_problem, np.array([x_star]), mu=1.0,
                                 tol=1e-6)
        expected = 1.0 - 0.25 * x_star ** (-1.5)
        assert cert.min_eig_condition == pytest.approx(expected, abs=1e-9)
        assert cert.theorem7_holds
        assert cert.k == 1 and cert.support == (0,)
        assert cert.e_min == pytest.approx(x_star, abs=1e-9)

    def test_perturbations_never_drop_below_certified_minimum(self, unit_problem):
        from lqsolve.core import objective
        x_star = np.array([unit_fixed_point()])
        cert = certify_local_min(unit_problem, x_star, mu=1.0, tol=1e-6)
        assert cert.theorem7_holds
        base = objective(unit_problem, x_star)
        rng = np.random.default_rng(0)
        for _ in range(200):
            h = rng.standard_normal(1)
            h *= 1e-4 / np.linalg.norm(h)
            assert objective(unit_problem, x_star + h) >= base - 1e-12

    def test_orthonormal_columns_satisfy_sufficient_conditions(self):
        # A = I: restricted Gram is the identity, so both shortcut
        # conditions hold for small lam and mid-range mu
        n = 6
        y = np.zeros(n)
        y[1], y[4] = 3.0, -2.0
        p = ProblemInstance(A=np.eye(n), y=y, lam=0.01, q=0.5)
        mu = 0.9
        state, trace = gaita_run(p, np.zeros(n), SolverConfig(mu=mu))
        assert trace.flags["converged"]
        cert = certify_local_min(p, state.x, mu, tol=1e-6)
        assert cert.theorem8b_holds
        assert cert.theorem8a_holds
        assert cert.theorem7_holds

    def test_implication_chain_on_random_endpoints(self):
        for seed in range(5):
            p, _ = small_problem(seed=30 + seed, lam=0.001)
            mu = 0.95 / l_max(p.A)
            state, _ = gaita_run(p, np.zeros(p.n), SolverConfig(mu=mu))
            cert = certify_local_min(p, state.x, mu, tol=1e-6)
            if cert.theorem8b_holds:
                assert cert.theorem8a_holds
            if cert.theorem8a_holds:
                assert cert.theorem7_holds

    def test_zero_stationary_point_certifies_vacuously(self):
        p = ProblemInstance(A=np.eye(2), y=np.array([0.1, 0.0]), lam=1.0, q=0.5)
        cert = certify_local_min(p, np.zeros(2), mu=0.9)
        assert cert.k == 0 and cert.theorem7_holds
        assert not cert.theorem8a_holds and not cert.theorem8b_holds

    def test_non_stationary_point_rejected(self, unit_problem):
        with pytest.raises(NotStationary):
            certify_local_min(unit_problem, np.array([1.2]), mu=1.0)
