"""Cyclic (Gauss-Seidel) and full-vector (Jacobi) iterative thresholding.

The cyclic solver updates one coordinate per inner step against a cached
residual r = A x - y (rank-1 updates); the Jacobi baseline takes one
full-gradient step.  One *sweep* means N coordinate updates for the
cyclic solver and one full-vector update for the Jacobi one.  Both run in
one loop, which refreshes the residual once per sweep, applies the stop
rules and one divergence guard, and records traces at sweep granularity.
The C sweep screens: it leaves a zero coordinate alone, without its
column's dot product, while a bound on that product proves the
coordinate would stay zero, which leaves every output unchanged.
"""

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _csweep, core
from .core import format_float, objective_from_residual
from .errors import DimensionMismatch, InvalidInstance
from .prox import DEFAULT_PROX_TOL, ProxParams, prox_scalar, prox_vector, stalled

DIVERGENCE_FACTOR = 1e6


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class IterateChange:
    """Stop once a sweep's step is <= tol.

    The step is measured per solver: for gaita the largest single-coordinate
    change in the sweep, for jaita the 2-norm of the whole update.
    """

    tol: float = 1e-10


@dataclass(frozen=True)
class RmseVsReference:
    """Stop once ||x - reference|| / ||reference|| <= tol (needs ground truth)."""

    tol: float
    reference: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "reference",
                           core.as_vector(self.reference, "reference"))


@dataclass(frozen=True)
class SweepCapOnly:
    """Run until max_sweeps; never stop early."""


@dataclass
class SolverConfig:
    mu: float
    max_sweeps: int = 10_000
    stop_rule: object = field(default_factory=IterateChange)
    record_every: int = 1          # in sweeps; initial state and final sweep always recorded
    prox_tol: float = DEFAULT_PROX_TOL
    trace_reference: np.ndarray | None = None  # RMSE column even without an RMSE stop
    record_iterates: bool = False
    timing: bool = False

    def __post_init__(self):
        if not (self.mu > 0):
            raise InvalidInstance(f"mu must be positive, got {self.mu}")
        if self.max_sweeps < 0 or self.record_every < 1:
            raise InvalidInstance("max_sweeps must be >= 0 and record_every >= 1")

    def reference(self):
        if isinstance(self.stop_rule, RmseVsReference):
            return self.stop_rule.reference
        return self.trace_reference


@dataclass
class SolverState:
    """Iterate x, update counter n, cached residual A x - y, objective value."""

    x: np.ndarray
    n: int
    residual: np.ndarray
    objective: float

    @classmethod
    def initial(cls, p, x0):
        x = core.as_vector(x0, "x0").copy()
        if x.shape[0] != p.n:
            raise DimensionMismatch(f"x0 has length {x.shape[0]}, expected {p.n}")
        r = p.A @ x - p.y
        return cls(x=x, n=0, residual=r, objective=objective_from_residual(p, x, r))


class IterationTrace:
    """Per-sweep records plus run flags and sign history.

    Columns: sweep, n (update counter), objective, step_norm (euclidean
    norm of the change since the previous record), support_size, rmse
    (nan when no reference), elapsed_s (0 when timing is off).
    """

    COLUMNS = ("sweep", "n", "objective", "step_norm",
               "support_size", "rmse", "elapsed_s")

    def __init__(self):
        self.rows = []          # list of 7-tuples, see COLUMNS
        self.signs = []         # int8 arrays, aligned with rows
        self.iterates = []      # optional float arrays, aligned with rows
        self.flags = {}

    def record(self, sweep, n, obj, step_norm, x, rmse, elapsed, keep_iterate):
        self.rows.append((sweep, n, obj, step_norm,
                          int(np.count_nonzero(x)), rmse, elapsed))
        self.signs.append(np.sign(x).astype(np.int8))
        if keep_iterate:
            self.iterates.append(x.copy())

    def column(self, name):
        idx = self.COLUMNS.index(name)
        return np.array([row[idx] for row in self.rows])

    def sign_history(self):
        return np.vstack(self.signs)

    def __len__(self):
        return len(self.rows)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.COLUMNS)
            for sweep, n, obj, step, supp, rmse, elapsed in self.rows:
                writer.writerow([sweep, n, format_float(obj),
                                 format_float(step), supp, format_float(rmse),
                                 format_float(elapsed)])

    @classmethod
    def from_csv(cls, path):
        trace = cls()
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if tuple(header) != cls.COLUMNS:
                raise InvalidInstance(f"unexpected trace header: {header}")
            for row in reader:
                trace.rows.append((int(row[0]), int(row[1]), float(row[2]),
                                   float(row[3]), int(row[4]), float(row[5]),
                                   float(row[6])))
        return trace


# ---------------------------------------------------------------------------
# coordinate updates

def select_index(n, N):
    """Cyclic 1-based coordinate index for update counter n (0-based)."""
    if N < 1 or n < 0:
        raise InvalidInstance("select_index needs N >= 1 and n >= 0")
    r = (n + 1) % N
    return N if r == 0 else r


def coordinate_forward_step(state, p, mu, i):
    """Unregularized descent for coordinate i (0-based): x_i - mu * A_i^T r."""
    return float(state.x[i] - mu * np.dot(p.A[:, i], state.residual))


def gaita_update(state, p, config):
    """One cyclic coordinate update; returns the successor state.

    Reference implementation used by the diagnostics and the tests; the
    run loop below executes the same arithmetic through a compiled sweep
    kernel.
    """
    n_dim = p.n
    i = select_index(state.n, n_dim) - 1
    params = ProxParams(c=p.lam * config.mu, q=p.q)
    z_i = coordinate_forward_step(state, p, config.mu, i)
    x_new = state.x.copy()
    x_new[i] = prox_scalar(z_i, state.x[i], params, config.prox_tol)
    delta = x_new[i] - state.x[i]
    r_new = state.residual.copy()
    if delta != 0.0:
        r_new += delta * p.A[:, i]
    return SolverState(x=x_new, n=state.n + 1, residual=r_new,
                       objective=objective_from_residual(p, x_new, r_new))


def _sweep_python(A, x, r, mu, c, q, tau, eta, tol, screen=None):
    """One cyclic sweep in place on x and r; returns the largest change.

    The oracle for _sweep_c, and the backend where the C kernel cannot load.
    It computes every coordinate, so it ignores ``screen``: skipping a
    coordinate that screening proves stays zero gives the same bits.
    Floating-point warnings are silenced, as in C: a non-finite forward
    step ends in the same ConvergenceFailure on both backends.
    """
    n_dim = A.shape[1]
    params = ProxParams(c=c, q=q)
    max_step = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_dim):
            z = x[i] - mu * np.dot(A[:, i], r)
            xi = prox_scalar(z, x[i], params, tol)
            d = xi - x[i]
            if d != 0.0:
                r += d * A[:, i]
                x[i] = xi
                if abs(d) > max_step:
                    max_step = abs(d)
    return max_step


def new_screen(A):
    """Screening state for one run of the C sweep on A (see _sweep.c)."""
    m, n_dim = A.shape
    state = np.zeros(3 * n_dim + m + 1)
    state[:n_dim] = np.linalg.norm(A, axis=0) * (1.0 + 1e-10)  # rounded up
    state[n_dim:2 * n_dim] = np.inf  # no dot product computed yet
    return state


def _sweep_c(A, x, r, mu, c, q, tau, eta, tol, screen=None):
    """The C kernel in _sweep.c; same arguments and bits as _sweep_python.

    ``screen`` is None, or new_screen(A) carried from sweep to sweep of
    one run, with only the kernel and the refresh of r touching x and r
    in between.
    """
    if A.dtype != np.float64 or A.ndim != 2 or not A.flags.f_contiguous:
        raise InvalidInstance("the C sweep needs a Fortran-ordered float64 matrix")
    for v in (x, r):
        if (v.dtype != np.float64 or v.ndim != 1 or not v.flags.c_contiguous
                or not v.flags.writeable):
            raise InvalidInstance("the C sweep needs writable contiguous float64 vectors")
    m, n_dim = A.shape
    if x.shape[0] != n_dim or r.shape[0] != m:
        raise DimensionMismatch(
            f"x and r have lengths {x.shape[0]} and {r.shape[0]}, "
            f"expected {n_dim} and {m}")
    if screen is not None and (screen.dtype != np.float64 or not screen.flags.c_contiguous
                               or screen.shape != (3 * n_dim + m + 1,)):
        raise InvalidInstance("the screening state does not fit this matrix")
    out = np.empty(2)
    failed = _csweep.lq_sweep(_csweep.ddot, m, n_dim, A.ctypes.data,
                              x.ctypes.data, r.ctypes.data, mu, c, q, tau, eta,
                              tol, out.ctypes.data,
                              None if screen is None else screen.ctypes.data)
    if failed >= 0:
        raise stalled(out[1])
    return float(out[0])


_sweep = _sweep_python if _csweep.lq_sweep is None else _sweep_c


def sweep_backend():
    """Which sweep kernel gaita runs: "c", or "python" and why."""
    if _sweep is _sweep_c:
        return "c"
    reason = _csweep.fallback_reason
    return f"python; {reason}" if reason else "python"


# ---------------------------------------------------------------------------
# run loops

def _rmse_vs(x, ref, ref_norm):
    return float(np.linalg.norm(x - ref) / ref_norm)


def _run(p, x0, config, algorithm, step, mu_bound, updates_per_sweep):
    """The loop both solvers share; returns (final state, trace).

    ``step(x, r)`` does one sweep in place on x and returns the step
    metric that IterateChange compares with its tol.  The loop refreshes
    r = A x - y after every sweep, records, and applies the stop rules.
    ``mu_bound(A)`` is the curvature bound whose inverse the step size
    should stay below.
    """
    state = SolverState.initial(p, x0)
    ref = config.reference()
    ref_norm = np.linalg.norm(ref) if ref is not None else None  # once per run
    trace = IterationTrace()
    trace.flags = {
        "algorithm": algorithm,
        "mu_warning": bool(config.mu >= 1.0 / mu_bound(p.A)),
        "converged": False,
        "diverged": False,
        "did_not_converge": False,
        "sweeps": 0,
    }
    obj0 = state.objective
    guard = DIVERGENCE_FACTOR * obj0 if obj0 > 0 else DIVERGENCE_FACTOR

    t0 = time.perf_counter()
    elapsed = lambda: time.perf_counter() - t0 if config.timing else 0.0
    rmse = _rmse_vs(state.x, ref, ref_norm) if ref is not None else math.nan
    trace.record(0, 0, state.objective, math.nan, state.x, rmse, 0.0,
                 config.record_iterates)

    x, r = state.x, state.residual
    x_prev_rec = x.copy()
    sweep = 0
    for sweep in range(1, config.max_sweeps + 1):
        step_metric = step(x, r)
        r[:] = p.A @ x - p.y  # per-sweep refresh bounds rank-1 drift
        state.objective = objective_from_residual(p, x, r)
        rmse = _rmse_vs(x, ref, ref_norm) if ref is not None else math.nan

        diverged = not (state.objective <= guard)
        stop = False
        if isinstance(config.stop_rule, IterateChange):
            stop = step_metric <= config.stop_rule.tol
        elif isinstance(config.stop_rule, RmseVsReference):
            stop = rmse <= config.stop_rule.tol

        if (stop or diverged or sweep % config.record_every == 0
                or sweep == config.max_sweeps):
            trace.record(sweep, sweep * updates_per_sweep, state.objective,
                         float(np.linalg.norm(x - x_prev_rec)), x, rmse,
                         elapsed(), config.record_iterates)
            x_prev_rec = x.copy()
        if diverged:
            trace.flags["diverged"] = True
            break
        if stop:
            trace.flags["converged"] = True
            break
    else:
        trace.flags["did_not_converge"] = not isinstance(
            config.stop_rule, SweepCapOnly)
    trace.flags["sweeps"] = sweep
    state.n = sweep * updates_per_sweep
    return state, trace


def gaita_run(p, x0, config):
    """Run the cyclic solver from x0; returns (final state, trace).

    Hitting max_sweeps without the stop rule firing is not an error: the
    trace carries flags ``converged`` / ``did_not_converge``.  A
    ``mu_warning`` flag marks mu >= 1/L_max (convergence theory void),
    and the run aborts with a ``diverged`` flag once the objective
    exceeds 1e6 times its initial value.
    """
    params = ProxParams(c=p.lam * config.mu, q=p.q)
    screen = new_screen(p.A)

    def sweep(x, r):
        return _sweep(p.A, x, r, config.mu, params.c, params.q,
                      params.tau, params.eta, config.prox_tol, screen)

    return _run(p, x0, config, "gaita", sweep, core.l_max, p.n)


def _jacobi_x(p, x, r, config, params):
    return prox_vector(x - config.mu * (p.A.T @ r), x, params, config.prox_tol)


def jaita_update(state, p, config):
    """One full-vector thresholded gradient step; returns the successor state."""
    params = ProxParams(c=p.lam * config.mu, q=p.q)
    x_new = _jacobi_x(p, state.x, state.residual, config, params)
    r_new = p.A @ x_new - p.y
    return SolverState(x=x_new, n=state.n + 1, residual=r_new,
                       objective=objective_from_residual(p, x_new, r_new))


def jaita_run(p, x0, config):
    """Run the Jacobi baseline; flags as for gaita_run, with mu_warning
    marking mu >= 1/||A||_2^2."""
    params = ProxParams(c=p.lam * config.mu, q=p.q)

    def step(x, r):
        x_new = _jacobi_x(p, x, r, config, params)
        step_norm = float(np.linalg.norm(x_new - x))
        x[:] = x_new
        return step_norm

    return _run(p, x0, config, "jaita", step, core.spectral_norm_sq, 1)
