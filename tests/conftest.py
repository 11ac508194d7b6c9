"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library code paths they check:
grid search for the scalar thresholding operator, the closed-form
half-thresholding formula for q = 1/2, bisection on the quartic whose root
gives the q = 2/3 operator, cyclic Jacobi rotations for
eigenvalues, plain bisection for the monotone scalar equation, and a run
loop that computes every sweep.
"""

import math

import numpy as np
import pytest

from lqsolve import solvers
from lqsolve.core import (ProblemInstance, l_max, objective_from_residual,
                          spectral_norm_sq)
from lqsolve.harness import InstanceSpec, generate_instance
from lqsolve.prox import ProxParams, prox_vector


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


def two_thirds_threshold_oracle(z, c):
    """The q = 2/3 prox above the jump threshold.  With v = s^3 the equation
    v + (2c/3) v^(-1/3) = |z| becomes s^4 - |z| s + 2c/3 = 0, and v is the
    cube of its largest real root.  The quartic falls to its minimum at
    s = (|z|/4)^(1/3), where it is negative above the jump threshold, then
    rises to 2c/3 at s = |z|^(1/3); bisection between the two finds the
    root to the last bit."""
    z_abs, k = abs(z), 2.0 * c / 3.0
    lo, hi = (z_abs / 4.0) ** (1.0 / 3.0), z_abs ** (1.0 / 3.0)
    quartic = lambda s: s * s * s * s - z_abs * s + k
    assert quartic(lo) < 0.0 < quartic(hi)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if quartic(mid) > 0.0 else (mid, hi)
    return math.copysign(lo * lo * lo, z)


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


def plain_run(p, x0, config, algorithm):
    """The solvers' run loop with nothing skipped: every sweep runs the
    kernel (gaita: ``solvers._sweep`` with no screening state, so every
    column's dot product is computed; jaita: one thresholded gradient
    step), then r = A x - y, the objective and the RMSE.  Returns
    (x, r, objective, trace) for bit-for-bit comparison with
    gaita_run / jaita_run."""
    params = ProxParams(c=p.lam * config.mu, q=p.q)
    x = np.array(x0, dtype=np.float64)
    r = p.A @ x - p.y
    obj = objective_from_residual(p, x, r)
    ref = config.reference
    rmse = lambda: (float(np.linalg.norm(x - ref) / np.linalg.norm(ref))
                    if ref is not None else math.nan)
    bound = l_max if algorithm == "gaita" else spectral_norm_sq
    per_sweep = p.n if algorithm == "gaita" else 1
    trace = solvers.IterationTrace()
    trace.flags = {"algorithm": algorithm,
                   "mu_warning": bool(config.mu >= 1.0 / bound(p.A)),
                   "converged": False, "diverged": False,
                   "did_not_converge": False, "sweeps": 0}
    guard = 1e6 * obj if obj > 0 else 1e6
    trace.record(0, 0, obj, math.nan, x, rmse(), config.record_iterates)
    x_rec = x.copy()
    sweep = 0
    for sweep in range(1, config.max_sweeps + 1):
        if algorithm == "gaita":
            step = solvers._sweep(p.A, x, r, config.mu, params)
        else:
            x_new = prox_vector(x - config.mu * (p.A.T @ r), x, params)
            step = float(np.linalg.norm(x_new - x))
            x[:] = x_new
        r = p.A @ x - p.y
        obj = objective_from_residual(p, x, r)
        e = rmse()
        diverged = not obj <= guard
        stop = (step <= config.tol if config.stop == "iterate_change"
                else e <= config.tol if config.stop == "rmse"
                else False)
        if (stop or diverged or sweep % config.record_every == 0
                or sweep == config.max_sweeps):
            trace.record(sweep, sweep * per_sweep, obj,
                         float(np.linalg.norm(x - x_rec)), x, e,
                         config.record_iterates)
            x_rec = x.copy()
        if diverged or stop:
            trace.flags["diverged" if diverged else "converged"] = True
            break
    else:
        trace.flags["did_not_converge"] = config.stop != "cap"
    trace.flags["sweeps"] = sweep
    return x, r, obj, trace


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
