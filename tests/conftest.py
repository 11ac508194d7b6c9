"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library code paths they check:
grid search for the scalar thresholding operator, the closed-form
half-thresholding formula for q = 1/2, cyclic Jacobi rotations for
eigenvalues, and plain bisection for the monotone scalar equation.
"""

import math

import numpy as np
import pytest

from lqsolve.core import ProblemInstance
from lqsolve.harness import InstanceSpec, generate_instance


def grid_prox_oracle(z, c, q, resolution=1e-4):
    """Brute-force minimizer of f(v) = (z-v)^2/2 + c|v|^q over a grid on
    [-2|z|, 2|z|] (plus v=0 exactly).  Returns (argmin, min value)."""
    span = 2.0 * abs(z)
    if span == 0.0:
        return 0.0, 0.0
    grid = np.arange(-span, span + resolution, resolution)
    grid = np.append(grid, 0.0)
    vals = 0.5 * (z - grid) ** 2 + c * np.abs(grid) ** q
    k = int(np.argmin(vals))
    return float(grid[k]), float(vals[k])


def prox_objective(z, v, c, q):
    return 0.5 * (z - v) ** 2 + c * abs(v) ** q if v != 0 else 0.5 * z * z


def half_threshold_oracle(z, c):
    """The q = 1/2 prox above the jump threshold in closed form (Xu, Chang,
    Xu, Zhang, "L1/2 regularization: a thresholding representation theory
    and a fast solver", IEEE TNNLS 2012), with their lambda = 2c:
    h(z) = (2/3) z (1 + cos(2pi/3 - (2/3) arccos((lambda/8) (|z|/3)^(-3/2))))."""
    phi = math.acos(2.0 * c / 8.0 * (abs(z) / 3.0) ** -1.5)
    return 2.0 / 3.0 * z * (1.0 + math.cos(2.0 * math.pi / 3.0 - 2.0 / 3.0 * phi))


def bisect_root(f, lo, hi, tol=1e-12, max_iter=200):
    """Plain bisection for a sign change of f on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    assert flo * fhi <= 0, "no sign change in bracket"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(hi - lo) < tol:
            return mid
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def jacobi_eigenvalues(m, sweeps=100, tol=1e-14):
    """All eigenvalues of a small symmetric matrix via cyclic Jacobi
    rotations; independent of LAPACK."""
    a = np.array(m, dtype=float, copy=True)
    n = a.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q_ in range(p + 1, n):
                off = max(off, abs(a[p, q_]))
                if abs(a[p, q_]) < tol:
                    continue
                theta = 0.5 * math.atan2(2 * a[p, q_], a[q_, q_] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q_, q_] = c
                rot[p, q_] = s
                rot[q_, p] = -s
                a = rot.T @ a @ rot
        if off < tol:
            break
    return np.sort(np.diag(a))


def small_problem(seed=0, m=20, n=40, k=4, lam=0.01, q=0.5, snr_db=None):
    inst = generate_instance(InstanceSpec(m, n, k, snr_db=snr_db, seed=seed))
    return inst.problem(lam, q), inst


# verdict lines appended by the acceptance suite; echoed after the test
# summary so they are visible regardless of output capturing
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def unit_problem():
    """The one-dimensional worked example: A=[1], y=(2), lam=1, q=1/2."""
    return ProblemInstance(A=[[1.0]], y=[2.0], lam=1.0, q=0.5)
