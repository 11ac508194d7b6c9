"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library code paths they check:
grid search for the scalar thresholding operator, the closed-form
half-thresholding formula for q = 1/2, bisection on the quartic whose root
gives the q = 2/3 operator, cyclic Jacobi rotations for
eigenvalues, plain bisection for the monotone scalar equation, and a run
loop that computes every sweep.  The Python root-finder, column dot
product, coordinate update, sweep and residual refresh here are the
oracles the C kernel in _sweep.c is checked against bit for bit: the same
operations in the same order, in Python and numpy.
"""

import csv
import hashlib
import math

import numpy as np
import pytest

from lqsolve import solvers
from lqsolve.core import ProblemInstance, l_max, objective_from_rr, spectral_norm_sq
from lqsolve.errors import InvalidInstance
from lqsolve.harness import InstanceSpec, generate_instance
from lqsolve.prox import TOL, ProxParams


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


def _closed_form(z_abs, c, q):
    """The root of g(v) = z_abs (z_abs >= tau) in closed form, with
    lambda = 2c, at q = 1/2 (Xu, Chang, Xu, Zhang, IEEE TNNLS 2012) and
    q = 2/3 (Cao, Sun, Xu, JVCIR 2013); not finite at any other q, or where
    an intermediate overflows.  _sweep.c's closed_form, operation for
    operation."""
    if q == 0.5:
        w = c * (0.75 * math.sqrt(3.0)) / (z_abs * math.sqrt(z_abs))
        phi = math.acos(1.0 if w > 1.0 else w)
        angle = 2.0 * math.pi / 3.0 - 2.0 / 3.0 * phi
        return 2.0 / 3.0 * z_abs * (1.0 + math.cos(angle))
    if q == 2.0 / 3.0:
        s = math.sqrt(2.0 * c)  # lambda^(1/2)
        f = math.sqrt(s)        # lambda^(1/4)
        u = z_abs / (s * f)
        u = 27.0 / 16.0 * u * u
        if u < 1.0:
            u = 1.0
        t = math.cbrt(u + math.sqrt(u - 1.0) * math.sqrt(u + 1.0))
        a = 2.0 / math.sqrt(3.0) * f * math.sqrt((t + 1.0 / t) / 2.0)
        d = 2.0 * z_abs / a - a * a
        if not d >= 0.0:
            return math.nan
        h = (a + math.sqrt(d)) / 2.0
        return h * h * h
    return math.nan


def solve_inverse(z_abs, params):
    """Root of g(v) = v + c*q*v^(q-1) = z_abs on [eta, z_abs].

    At q = 1/2 and q = 2/3 the root is the closed form.  Elsewhere, and
    where the closed form overflows, Newton runs from the right end: g is
    strictly increasing and convex on [eta, z_abs] (g'(eta) = 1 - q/2 > 0),
    so the iteration descends onto the root.  It stops within prox.TOL, or
    at the first step that does not descend, which only rounding, a NaN or
    an infinity can give: an infinite z_abs takes a NaN step at once and
    returns itself.  Either root is kept inside [eta, z_abs] against
    rounding.  Requires z_abs >= tau, i.e. g(eta) <= z_abs.  _sweep.c's
    nonzero_root.
    """
    c, q, eta = params.c, params.q, params.eta
    if z_abs < params.tau:
        raise InvalidInstance(
            f"solve_inverse needs z_abs >= tau ({params.tau:g}), got {z_abs:g}")
    v = _closed_form(z_abs, c, q)
    if not math.isfinite(v):
        v = z_abs
        for _ in range(200):
            g = v + c * q * v ** (q - 1.0) - z_abs
            if abs(g) <= TOL:
                break
            v_new = v - g / (1.0 + c * q * (q - 1.0) * v ** (q - 2.0))
            if abs(v_new - v) <= TOL:
                v = v_new
                break
            if not v_new < v:
                break
            v = v_new
    return min(max(v, eta), z_abs)


def prox_oracle(z, x_prev, params):
    """Single-valued thresholding of z, with x_prev breaking the tie at tau:
    what prox.prox_scalar returns, bit for bit."""
    z_abs = abs(z)
    if z_abs < params.tau:
        return 0.0
    if z_abs > params.tau:
        return math.copysign(solve_inverse(z_abs, params), z)
    if x_prev != 0.0:
        return math.copysign(params.eta, z)
    return 0.0


def prox_vector_oracle(z, x_prev, params):
    """prox_oracle componentwise, as a float64 array of z's shape."""
    z = np.asarray(z, dtype=np.float64)
    return np.array([prox_oracle(zi, xi, params) for zi, xi in
                     zip(z.ravel().tolist(), np.ravel(x_prev).tolist())],
                    dtype=np.float64).reshape(z.shape)


LANES = 32  # the partial sums of _sweep.c's column_dot


def lane_dot(a, r):
    """a . r in the order _sweep.c's column_dot adds it, in numpy: partial
    sum k starts at +0.0 and adds the rounded products a[j] * r[j] with
    j % LANES == k, in order of j; then the partial sums are added
    pairwise, k + w into k, for w = LANES/2, ..., 2, 1.  The products past
    the end are +0.0, which leave every partial sum as it is.  A reduce
    along axis 0 adds the rows one by one, in order, in each column."""
    products = np.zeros(-(-a.shape[0] // LANES) * LANES)
    products[:a.shape[0]] = a * r
    acc = np.add.reduce(products.reshape(-1, LANES), axis=0, initial=0.0)
    w = LANES // 2
    while w:
        acc = acc[:w] + acc[w:2 * w]
        w //= 2
    return float(acc[0])


def refresh_oracle(A, x, y):
    """r = A x - y as _sweep.c's lq_refresh computes it, and r . r: r = -y,
    then r += x_i a_i for each x_i != 0 (NaN included), in column order,
    one column at a time; r . r summed by lane_dot.  Returns (r, r . r)."""
    r = -np.asarray(y, dtype=np.float64)
    for i in np.flatnonzero(x):
        r += x[i] * A[:, i]
    return r, lane_dot(r, r)


def lane_norm(v):
    """||v||, its squares summed by lane_dot, as the run loop's norms are."""
    return math.sqrt(lane_dot(v, v))


def coordinate_step(A, x, r, mu, params, i):
    """Update coordinate i (0-based) in place on x and r.

    The forward step, the threshold and the rank-1 residual update; x[i]
    is assigned only when it changes.
    """
    xi = prox_oracle(x[i] - mu * lane_dot(A[:, i], r), x[i], params)
    d = xi - x[i]
    if d != 0.0:
        r += d * A[:, i]
        x[i] = xi


def gaita_update(state, p, config):
    """One cyclic coordinate update; returns the successor state.  Criterion
    3 and the tests replay single updates with it."""
    x, r = state.x.copy(), state.residual.copy()
    coordinate_step(p.A, x, r, config.mu, ProxParams(c=p.lam * config.mu, q=p.q),
                    state.n % p.n)
    return solvers.SolverState(x=x, n=state.n + 1, residual=r,
                               objective=objective_from_rr(p, x, lane_dot(r, r)))


def sweep_oracle(A, x, r, mu, params):
    """Bind the cyclic sweep to x and r, as solvers._sweep does: returns a
    function of no arguments that runs one sweep in place on them.

    It computes every coordinate: skipping one that screening proves stays
    zero, as the kernel does, gives the same bits.  Floating-point warnings
    are silenced, as in C: a forward step that overflows thresholds to an
    infinite x[i], as in the kernel.
    """
    def sweep():
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(A.shape[1]):
                coordinate_step(A, x, r, mu, params, i)

    return sweep


# (problem, mu, algorithm, x before the step) -> x after it.  With
# r = A x - y refreshed before every step, the oracle step is a function of
# x alone; the tests run one problem under several record and stop
# settings, and each oracle sweep takes milliseconds in Python.
_ORACLE_STEPS = {}


def plain_run(p, x0, config, algorithm):
    """The solvers' run loop with nothing skipped, on the oracles: every
    sweep runs the oracle step (gaita: sweep_oracle, which computes every
    coordinate; jaita: one thresholded gradient step through
    prox_vector_oracle), then its step_norm ||x - x_before||, r = A x - y
    (refresh_oracle), the objective and the RMSE, the norms by lane_norm.
    Returns (x, r, objective, trace) for bit-for-bit comparison with
    gaita_run / jaita_run."""
    params = ProxParams(c=p.lam * config.mu, q=p.q)
    x = np.array(x0, dtype=np.float64)
    r, rr = refresh_oracle(p.A, x, p.y)
    obj = objective_from_rr(p, x, rr)
    ref = config.reference
    rmse = lambda: (lane_norm(x - ref) / lane_norm(ref)
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
    if not (obj <= guard < math.inf):
        trace.flags["diverged"] = True
        return x, r, obj, trace

    key = (hashlib.sha256(p.A.tobytes() + p.y.tobytes()).digest(), p.lam, p.q,
           config.mu, algorithm)

    def step_once():
        k = key + (x.tobytes(),)
        if k not in _ORACLE_STEPS:
            if algorithm == "gaita":
                x_new = x.copy()
                sweep_oracle(p.A, x_new, r.copy(), config.mu, params)()
            else:
                x_new = prox_vector_oracle(x - config.mu * (p.A.T @ r), x, params)
            _ORACLE_STEPS[k] = x_new
        x[:] = _ORACLE_STEPS[k]

    sweep = 0
    for sweep in range(1, config.max_sweeps + 1):
        x_before = x.copy()
        step_once()
        step = lane_norm(x - x_before)
        r[:], rr = refresh_oracle(p.A, x, p.y)
        obj = objective_from_rr(p, x, rr)
        e = rmse()
        diverged = not obj <= guard
        stop = (step <= config.tol if config.stop == "iterate_change"
                else e <= config.tol if config.stop == "rmse"
                else False)
        if (stop or diverged or sweep % config.record_every == 0
                or sweep == config.max_sweeps):
            trace.record(sweep, sweep * per_sweep, obj, step, x, e,
                         config.record_iterates)
        if diverged or stop:
            trace.flags["diverged" if diverged else "converged"] = True
            break
    else:
        trace.flags["did_not_converge"] = config.stop != "cap"
    trace.flags["sweeps"] = sweep
    return x, r, obj, trace


def read_trace_csv(path):
    """The header and rows of a trace.csv, every cell read as a float."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return tuple(header), [[float(v) for v in row] for row in rows]


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
