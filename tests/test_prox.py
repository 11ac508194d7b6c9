import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqsolve.core import spectral_norm_sq
from lqsolve.errors import DimensionMismatch, InvalidInstance
from lqsolve.harness import InstanceSpec, generate_instance
from lqsolve.prox import ProxParams, prox_scalar, prox_vector

from conftest import (bisect_root, grid_prox_oracle, half_threshold_oracle,
                      prox_objective, prox_oracle, prox_vector_oracle,
                      solve_inverse, two_thirds_threshold_oracle)

qs = st.floats(0.05, 0.95)
cs = st.floats(0.01, 10.0)


class TestThresholds:
    def test_half_exponent_unit_weight(self):
        # q=1/2, c=1: eta = 1^(2/3) = 1, tau = (3/2)/1 * eta = 3/2
        params = ProxParams(c=1.0, q=0.5)
        tau, eta = params.tau, params.eta
        assert eta == pytest.approx(1.0, abs=1e-12)
        assert tau == pytest.approx(1.5, abs=1e-12)

    def test_two_thirds_exponent(self):
        # q=2/3, c=1: eta = (2/3)^(3/4), tau = 2*eta
        params = ProxParams(c=1.0, q=2.0 / 3.0)
        tau, eta = params.tau, params.eta
        assert eta == pytest.approx((2.0 / 3.0) ** 0.75, rel=1e-12)
        assert tau == pytest.approx(2.0 * eta, rel=1e-12)

    def test_scaling_law(self):
        # replacing c by c * 2^(2-q) doubles eta (and hence tau)
        q = 0.3
        base = ProxParams(c=0.7, q=q)
        scaled = ProxParams(c=0.7 * 2.0 ** (2.0 - q), q=q)
        assert scaled.eta == pytest.approx(2.0 * base.eta, rel=1e-12)
        assert scaled.tau == pytest.approx(2.0 * base.tau, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(q=qs, c=cs)
    def test_identities(self, q, c):
        params = ProxParams(c=c, q=q)
        tau, eta = params.tau, params.eta
        assert tau == pytest.approx(eta * (2 - q) / (2 - 2 * q), abs=1e-10)
        # the nonzero branch meets the threshold exactly: g(eta) = tau
        g_eta = eta + c * q * eta ** (q - 1.0)
        assert g_eta == pytest.approx(tau, abs=1e-10)

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidInstance):
            ProxParams(c=-1.0, q=0.5)
        with pytest.raises(InvalidInstance):
            ProxParams(c=1.0, q=1.0)


class TestSolveInverse:
    """The oracle root-finder in conftest.py, against independent checks."""

    def test_boundary_maps_to_eta(self):
        params = ProxParams(c=1.0, q=0.5)
        assert solve_inverse(params.tau, params) == pytest.approx(
            params.eta, abs=1e-10)

    def test_worked_example_against_bisection(self):
        # q=1/2, c=1, z=2: v + 0.5/sqrt(v) = 2
        params = ProxParams(c=1.0, q=0.5)
        expected = bisect_root(lambda v: v + 0.5 / math.sqrt(v) - 2.0, 1.0, 2.0)
        assert solve_inverse(2.0, params) == pytest.approx(expected, abs=1e-10)

    def test_large_input_approaches_identity(self):
        params = ProxParams(c=1.0, q=0.5)
        v = solve_inverse(1e6, params)
        assert v == pytest.approx(1e6, rel=1e-8)
        assert v < 1e6

    def test_below_threshold_rejected(self):
        params = ProxParams(c=1.0, q=0.5)
        with pytest.raises(InvalidInstance):
            solve_inverse(1.0, params)

    @settings(max_examples=100, deadline=None)
    @given(q=qs, c=cs, frac=st.floats(0.0, 5.0))
    def test_root_residual(self, q, c, frac):
        params = ProxParams(c=c, q=q)
        z_abs = params.tau * (1.0 + frac)
        v = solve_inverse(z_abs, params)
        assert params.eta <= v <= z_abs
        assert abs(v + c * q * v ** (q - 1.0) - z_abs) <= 1e-9 * max(1.0, z_abs)


class TestProxScalar:
    def test_dead_zone(self):
        params = ProxParams(c=1.0, q=0.5)
        assert prox_scalar(1.2, 0.0, params) == 0.0
        assert prox_scalar(-1.2, 5.0, params) == 0.0

    def test_tie_break_follows_previous_value(self):
        params = ProxParams(c=1.0, q=0.5)
        assert prox_scalar(1.5, 0.7, params) == pytest.approx(1.0)
        assert prox_scalar(-1.5, 0.7, params) == pytest.approx(-1.0)
        assert prox_scalar(1.5, 0.0, params) == 0.0

    def test_tie_both_branches_minimize(self):
        params = ProxParams(c=1.0, q=0.5)
        at_zero = prox_objective(1.5, 0.0, 1.0, 0.5)
        at_eta = prox_objective(1.5, 1.0, 1.0, 0.5)
        assert at_zero == pytest.approx(at_eta, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(z=st.floats(-8, 8), q=qs, c=cs)
    def test_odd_symmetry(self, z, q, c):
        params = ProxParams(c=c, q=q)
        assert prox_scalar(-z, 0.0, params) == -prox_scalar(z, 0.0, params)

    @settings(max_examples=150, deadline=None)
    @given(z=st.floats(-8, 8), q=qs, c=cs)
    def test_range_law(self, z, q, c):
        # outputs are exactly 0 or at least eta in magnitude
        params = ProxParams(c=c, q=q)
        v = prox_scalar(z, 1.0, params)
        assert v == 0.0 or abs(v) >= params.eta - 1e-9

    @settings(max_examples=50, deadline=None)
    @given(q=qs, c=cs)
    def test_monotone_on_nonzero_branch(self, q, c):
        params = ProxParams(c=c, q=q)
        zs = params.tau * np.linspace(1.0, 4.0, 20)
        vals = [prox_scalar(z, 0.0, params) for z in zs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("z,c,q", [
        (2.0, 1.0, 0.5), (0.3, 0.05, 0.3), (-4.0, 2.0, 0.7),
        (1.51, 1.0, 0.5), (1.49, 1.0, 0.5), (-0.8, 0.1, 0.9),
        (1.3, 0.4, 2.0 / 3.0),
    ])
    def test_matches_grid_oracle(self, z, c, q):
        params = ProxParams(c=c, q=q)
        v = prox_scalar(z, 0.0, params)
        _, best = grid_prox_oracle(z, c, q)
        assert prox_objective(z, v, c, q) <= best + 1e-6


class TestProxVector:
    def test_matches_scalar_componentwise(self, rng):
        params = ProxParams(c=0.4, q=0.6)
        z = rng.uniform(-5, 5, size=50)
        x_prev = rng.uniform(-1, 1, size=50)
        out = prox_vector(z, x_prev, params)
        assert np.array_equal(out, prox_vector_oracle(z, x_prev, params))
        assert out.shape == z.shape

    def test_all_below_threshold(self):
        params = ProxParams(c=1.0, q=0.5)
        assert np.array_equal(prox_vector(np.full(4, 0.5), np.ones(4), params),
                              np.zeros(4))

    def test_tie_vectorized(self):
        params = ProxParams(c=1.0, q=0.5)
        z = np.array([1.5, -1.5, 1.5])
        x_prev = np.array([0.3, 0.3, 0.0])
        assert np.allclose(prox_vector(z, x_prev, params), [1.0, -1.0, 0.0])

    def test_shape_mismatch(self):
        params = ProxParams(c=1.0, q=0.5)
        with pytest.raises(DimensionMismatch):
            prox_vector(np.ones(3), np.ones(4), params)

    def test_range_law_vectorized(self, rng):
        params = ProxParams(c=0.02, q=0.3)
        out = prox_vector(rng.uniform(-3, 3, size=200), np.zeros(200), params)
        nz = out[out != 0.0]
        assert np.all(np.abs(nz) >= params.eta - 1e-9)


@pytest.fixture(scope="module")
def paper_instance():
    return generate_instance(InstanceSpec(250, 500, 15, seed=0))


@pytest.mark.parametrize("q", [0.5, 2.0 / 3.0])
def test_vector_is_scalar_on_jaita_steps(q, paper_instance):
    # jaita's forward steps on the paper instance at its default step size
    p = paper_instance.problem(0.001, q)
    mu = 0.99 / spectral_norm_sq(p.A)
    params = ProxParams(c=p.lam * mu, q=q)
    x = np.zeros(p.n)
    for step in range(25):
        z = x - mu * (p.A.T @ (p.A @ x - p.y))
        out = prox_vector(z, x, params)
        assert np.array_equal(out, prox_vector_oracle(z, x, params)), step
        x = out
    assert np.count_nonzero(x) > 0


@pytest.mark.parametrize("shape", [(), (3, 4), (0,)])
def test_vector_keeps_any_shape(shape):
    params = ProxParams(c=0.4, q=0.6)
    z = np.linspace(-3.0, 3.0, int(np.prod(shape))).reshape(shape)
    out = prox_vector(z.tolist(), np.zeros(shape).tolist(), params)
    assert out.shape == shape and out.dtype == np.float64
    assert np.array_equal(out, prox_vector_oracle(z, np.zeros(shape), params))


def test_vector_takes_strided_input():
    params = ProxParams(c=0.4, q=0.6)
    z = np.linspace(-3.0, 3.0, 40)
    assert np.array_equal(prox_vector(z[::2], np.zeros(40)[::2], params),
                          prox_vector(z[::2].copy(), np.zeros(20), params))


def test_matches_half_threshold_closed_form(rng):
    # q = 1/2 only, where the prox has a closed form sharing no code with
    # the kernel or the oracle
    for _ in range(2000):
        params = ProxParams(c=10.0 ** rng.uniform(-4.0, 1.0), q=0.5)
        z = rng.choice([-1.0, 1.0]) * params.tau * (1.0 + rng.uniform(1e-6, 20.0))
        expected = half_threshold_oracle(z, params.c)
        assert prox_scalar(z, 0.0, params) == pytest.approx(expected, rel=1e-10)
        assert prox_oracle(z, 0.0, params) == pytest.approx(expected, rel=1e-10)


def test_matches_two_thirds_oracle(rng):
    # q = 2/3 only, against bisection on the quartic in s = v^(1/3)
    for _ in range(2000):
        params = ProxParams(c=10.0 ** rng.uniform(-4.0, 1.0), q=2.0 / 3.0)
        z = rng.choice([-1.0, 1.0]) * params.tau * (1.0 + rng.uniform(1e-6, 20.0))
        expected = two_thirds_threshold_oracle(z, params.c)
        assert prox_scalar(z, 0.0, params) == pytest.approx(expected, rel=1e-10)
        assert prox_oracle(z, 0.0, params) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("q", [0.5, 2.0 / 3.0])
def test_closed_form_at_the_jump(q):
    # from |z| = tau to tau * (1 + 1e-12), where rounding could push the
    # closed form out of its domain or below eta, the root stays in [eta, |z|]
    for c in (1e-6, 1e-3, 0.5, 7.0):
        params = ProxParams(c=c, q=q)
        tau = params.tau
        z = np.array([tau, np.nextafter(tau, np.inf), tau * (1.0 + 1e-15),
                      tau * (1.0 + 1e-13), tau * (1.0 + 1e-12)])
        for z_abs in z:
            assert params.eta <= solve_inverse(z_abs, params) <= z_abs
        z = np.concatenate([z, -z])
        out = prox_vector(z, np.ones(z.size), params)  # the tie at tau gives eta
        assert np.all(params.eta <= np.abs(out)) and np.all(np.abs(out) <= np.abs(z))
        assert np.array_equal(np.sign(out), np.sign(z))


@pytest.mark.parametrize("q", [0.5, 2.0 / 3.0, 0.9])
def test_kernel_prox_is_python_prox_bit_for_bit(q, rng):
    # closed forms at q = 1/2 and 2/3, Newton at 0.9, over many decades of c
    # and |z| / tau, both signs and every tie-break value of x_prev
    for _ in range(50):
        params = ProxParams(c=10.0 ** rng.uniform(-8.0, 2.0), q=q)
        z = (rng.choice([-1.0, 1.0], 200) * params.tau
             * (1.0 + 10.0 ** rng.uniform(-16.0, 4.0, 200)))
        z[:3] = params.tau, -params.tau, 0.5 * params.tau
        x_prev = rng.choice([0.0, 1.0, -2.0], 200)
        out = prox_vector(z, x_prev, params)
        assert out.tobytes() == prox_vector_oracle(z, x_prev, params).tobytes(), params


def test_newton_ends_where_one_ulp_exceeds_tol():
    # from |z| >= 8192 an ulp of the root exceeds TOL, and Newton's steps
    # can shrink no further than one; here it once cycled between two
    # adjacent doubles
    params = ProxParams(c=1000.0, q=0.9)
    z = 15584.820641239146
    assert prox_scalar(z, 0.0, params) == 15241.309932890124
    assert solve_inverse(z, params) == 15241.309932890124


def test_kernel_prox_is_python_prox_on_a_wide_newton_grid():
    # every Newton exponent the paper's grids use and the ends of (0, 1),
    # c over 18 decades and |z| log-uniform over 12 decades above tau
    rng = np.random.default_rng(2015)
    for q in (0.01, 0.05, 0.1, 0.3, 0.7, 0.9, 0.99):
        for c in 10.0 ** np.arange(-12.0, 7.0):
            params = ProxParams(c=c, q=q)
            z = (rng.choice([-1.0, 1.0], 2000) * params.tau
                 * 10.0 ** rng.uniform(0.0, 12.0, 2000))
            x_prev = np.zeros(z.size)
            out = prox_vector(z, x_prev, params)
            assert out.tobytes() == prox_vector_oracle(z, x_prev, params).tobytes(), params
