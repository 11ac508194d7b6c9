"""Cyclic (Gauss-Seidel) and full-vector (Jacobi) iterative thresholding.

The cyclic solver updates one coordinate per inner step against a cached
residual r = A x - y (rank-1 updates); the Jacobi baseline takes one
full-gradient step.  One *sweep* means N coordinate updates for the
cyclic solver and one full-vector update for the Jacobi one.  Both run in
one loop, which refreshes the residual once per sweep, applies the stop
rule and one divergence guard, and records traces at sweep granularity.
SolverConfig holds a run's settings; its ``stop`` is one of STOP_RULES.
Every recorded value is deterministic: the trace holds no wall times.
The loop binds its solver's step once per run, ``step = bind(A, x, r,
mu, params)``: ``_sweep`` (``_sweep_c``, or ``_sweep_python`` where the C
kernel cannot load) for gaita, ``_jacobi_step`` for jaita.  The C binding
takes its arrays' pointers and owns its screening state, which skips a
zero coordinate's dot product while a bound proves it stays zero, with
every output unchanged.  The prox tolerance is the constant prox.TOL.
default_mu gives each solver's default step size.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import _csweep, core, prox
from .core import format_float, objective_from_residual
from .errors import DimensionMismatch, InvalidInstance
from .prox import ProxParams, prox_scalar, prox_vector, stalled

DIVERGENCE_FACTOR = 1e6


# ---------------------------------------------------------------------------
# configuration

STOP_RULES = ("iterate_change", "rmse", "cap")


@dataclass
class SolverConfig:
    """The settings of one run.

    ``stop`` names the rule that ends a run before ``max_sweeps``:
    "iterate_change" stops once a sweep's step is <= ``tol``, the step
    being the largest single-coordinate change of the sweep for gaita and
    the 2-norm of the whole update for jaita; "rmse" stops once
    ||x - reference|| / ||reference|| <= ``tol``; "cap" runs to
    ``max_sweeps`` and ignores ``tol``.
    """

    mu: float
    max_sweeps: int = 10_000
    stop: str = "iterate_change"
    tol: float = 1e-10
    record_every: int = 1          # in sweeps; initial state and final sweep always recorded
    reference: np.ndarray | None = None  # ground truth of the RMSE column and stop rule
    record_iterates: bool = False

    def __post_init__(self):
        if not (self.mu > 0):
            raise InvalidInstance(f"mu must be positive, got {self.mu}")
        if self.max_sweeps < 0 or self.record_every < 1:
            raise InvalidInstance("max_sweeps must be >= 0 and record_every >= 1")
        if self.stop not in STOP_RULES:
            raise InvalidInstance(f"unknown stop rule {self.stop!r}; "
                                  f"choose from {', '.join(STOP_RULES)}")
        if not (self.tol >= 0):
            raise InvalidInstance(f"tol must be >= 0, got {self.tol}")
        if self.reference is not None:
            self.reference = core.as_vector(self.reference, "reference")
            if np.linalg.norm(self.reference) == 0.0:
                raise InvalidInstance("the RMSE reference is zero")
        elif self.stop == "rmse":
            raise InvalidInstance("the RMSE stop rule needs a nonzero reference "
                                  "(ground truth)")


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
    """Per-sweep records, run flags and, with record_iterates, each iterate.

    Columns: sweep, n (update counter), objective, step_norm (euclidean
    norm of the change since the previous record), support_size, rmse
    (nan when no reference).
    """

    COLUMNS = ("sweep", "n", "objective", "step_norm", "support_size", "rmse")

    def __init__(self):
        self.rows = []          # list of 6-tuples, see COLUMNS
        self.iterates = []      # optional float arrays, aligned with rows
        self.flags = {}

    def record(self, sweep, n, obj, step_norm, x, rmse, keep_iterate):
        self.rows.append((sweep, n, obj, step_norm,
                          int(np.count_nonzero(x)), rmse))
        if keep_iterate:
            self.iterates.append(x.copy())

    @property
    def signs(self):
        """Int8 signs of the kept iterates, derived per read (perfbench counts them)."""
        return [np.sign(x).astype(np.int8) for x in self.iterates]

    def column(self, name):
        idx = self.COLUMNS.index(name)
        return np.array([row[idx] for row in self.rows])

    def sign_history(self):
        """The signs of the kept iterates, one int8 row per record."""
        if not self.iterates:
            raise InvalidInstance("no iterates kept; run with record_iterates=True")
        return np.vstack(self.signs)

    def __len__(self):
        return len(self.rows)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.COLUMNS)
            for sweep, n, obj, step, supp, rmse in self.rows:
                writer.writerow([sweep, n, format_float(obj),
                                 format_float(step), supp, format_float(rmse)])


# ---------------------------------------------------------------------------
# coordinate updates

def _coordinate_step(A, x, r, mu, params, i):
    """Update coordinate i (0-based) in place on x and r; returns the change.

    The forward step, the threshold and the rank-1 residual update; x[i]
    is assigned only when it changes.
    """
    xi = prox_scalar(x[i] - mu * np.dot(A[:, i], r), x[i], params)
    d = xi - x[i]
    if d != 0.0:
        r += d * A[:, i]
        x[i] = xi
    return d


def gaita_update(state, p, config):
    """One cyclic coordinate update; returns the successor state.

    Reference implementation used by acceptance criterion 3 and the tests;
    the run loop below executes the same arithmetic through a compiled
    sweep kernel.
    """
    x, r = state.x.copy(), state.residual.copy()
    _coordinate_step(p.A, x, r, config.mu, ProxParams(c=p.lam * config.mu, q=p.q),
                     state.n % p.n)
    return SolverState(x=x, n=state.n + 1, residual=r,
                       objective=objective_from_residual(p, x, r))


def _sweep_python(A, x, r, mu, params):
    """Bind the cyclic sweep to x and r: returns a function of no arguments
    that runs one sweep in place on them and returns the largest change.

    The oracle for _sweep_c, and the backend where the C kernel cannot load.
    It computes every coordinate: skipping one that screening proves stays
    zero, as _sweep_c does, gives the same bits.  Floating-point warnings
    are silenced, as in C: a non-finite forward step ends in the same
    ConvergenceFailure on both backends.
    """
    def sweep():
        max_step = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(A.shape[1]):
                d = abs(_coordinate_step(A, x, r, mu, params, i))
                if d > max_step:
                    max_step = d
        return max_step

    return sweep


def _sweep_c(A, x, r, mu, params, screen=True):
    """Bind the C kernel in _sweep.c to x and r; same protocol and bits as
    _sweep_python.

    The arguments are checked and the raw pointers taken here, once: the
    returned function always sweeps these very arrays, so a caller must
    change x and r only in place, never replace them with new arrays.
    With ``screen`` the binding owns the kernel's screening state for A,
    which carries from sweep to sweep; ``screen=False`` computes every
    column's dot product.
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
    state = None
    if screen:
        state = np.zeros(3 * n_dim + m + 1)  # layout in _sweep.c
        state[:n_dim] = np.linalg.norm(A, axis=0) * (1.0 + 1e-10)  # rounded up
        state[n_dim:2 * n_dim] = np.inf  # no dot product computed yet
    out = np.empty(2)
    lq_sweep = _csweep.lq_sweep
    args = (_csweep.ddot, m, n_dim, A.ctypes.data, x.ctypes.data, r.ctypes.data,
            mu, params.c, params.q, params.tau, params.eta, prox.TOL,
            out.ctypes.data, None if state is None else state.ctypes.data)

    def sweep():
        if lq_sweep(*args) >= 0:
            raise stalled(out[1])
        return float(out[0])

    sweep.arrays = (A, x, r, state)  # keeps the memory behind the pointers alive
    return sweep


_sweep = _sweep_python if _csweep.lq_sweep is None else _sweep_c


def sweep_backend():
    """Which sweep kernel gaita runs: "c", or "python" and why."""
    if _sweep is _sweep_c:
        return "c"
    reason = _csweep.fallback_reason
    return f"python; {reason}" if reason else "python"


def _jacobi_step(A, x, r, mu, params):
    """Bind jaita's step to x and r: returns a function of no arguments
    that takes one thresholded full-gradient step in place on x and
    returns the 2-norm of the update."""
    def step():
        x_new = prox_vector(x - mu * (A.T @ r), x, params)
        step_norm = _norm(x_new - x)
        x[:] = x_new
        return step_norm

    return step


# ---------------------------------------------------------------------------
# run loops

def _norm(v):
    """np.linalg.norm(v) of a 1-d float64 vector, bit for bit, without
    its dispatch."""
    return math.sqrt(float(v @ v))


def _rmse_vs(x, ref, ref_norm):
    return float(_norm(x - ref) / ref_norm)


def _run(p, x0, config, algorithm, bind, mu_bound, updates_per_sweep):
    """The loop both solvers share; returns (final state, trace).

    ``bind(A, x, r, mu, params)`` is called once, before the first sweep,
    and returns ``step()``, which does one sweep in place on x and r and
    returns the step metric that stop "iterate_change" compares with
    config.tol.  The loop refreshes r = A x - y after every sweep, records,
    and applies the stop rule and the divergence guard.  It changes x and
    r only in place and never rebinds them, so a step may hold their
    memory for the whole run, as the C sweep does.  ``mu_bound(A)`` is
    the curvature bound whose inverse the step size should stay below.
    """
    params = ProxParams(c=p.lam * config.mu, q=p.q)
    state = SolverState.initial(p, x0)
    ref = config.reference
    if ref is not None and ref.shape[0] != p.n:
        raise DimensionMismatch(f"the RMSE reference has length {ref.shape[0]}, "
                                f"expected {p.n}")
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

    rmse = _rmse_vs(state.x, ref, ref_norm) if ref is not None else math.nan
    trace.record(0, 0, state.objective, math.nan, state.x, rmse,
                 config.record_iterates)
    if not (obj0 <= guard < math.inf):  # a NaN, infinite or near-overflow start
        trace.flags["diverged"] = True
        return state, trace

    x, r = state.x, state.residual
    step = bind(p.A, x, r, config.mu, params)
    x_prev_rec = x.copy()
    sweep = 0
    for sweep in range(1, config.max_sweeps + 1):
        step_metric = step()
        r[:] = p.A @ x - p.y  # per-sweep refresh bounds rank-1 drift
        state.objective = objective_from_residual(p, x, r)
        rmse = _rmse_vs(x, ref, ref_norm) if ref is not None else math.nan

        diverged = not (state.objective <= guard)
        stop = config.stop != "cap" and (
            step_metric if config.stop == "iterate_change" else rmse) <= config.tol

        if (stop or diverged or sweep % config.record_every == 0
                or sweep == config.max_sweeps):
            trace.record(sweep, sweep * updates_per_sweep, state.objective,
                         _norm(x - x_prev_rec), x, rmse,
                         config.record_iterates)
            x_prev_rec = x.copy()
        if diverged:
            trace.flags["diverged"] = True
            break
        if stop:
            trace.flags["converged"] = True
            break
    else:
        trace.flags["did_not_converge"] = config.stop != "cap"
    trace.flags["sweeps"] = sweep
    state.n = sweep * updates_per_sweep
    return state, trace


def gaita_run(p, x0, config):
    """Run the cyclic solver from x0; returns (final state, trace).

    Hitting max_sweeps without the stop rule firing is not an error: the
    trace carries flags ``converged`` / ``did_not_converge``.  A
    ``mu_warning`` flag marks mu >= 1/L_max (convergence theory void),
    and the run aborts with a ``diverged`` flag once the objective
    exceeds 1e6 times its initial value (at sweep 0 if that is not finite).
    """
    return _run(p, x0, config, "gaita", _sweep, core.l_max, p.n)


def jaita_run(p, x0, config):
    """Run the Jacobi baseline; flags as for gaita_run, with mu_warning
    marking mu >= 1/||A||_2^2."""
    return _run(p, x0, config, "jaita", _jacobi_step, core.spectral_norm_sq, 1)


def default_mu(algorithm, A):
    """The default step size, just inside each solver's bound: 0.95/L_max
    for gaita, 0.99/||A||_2^2 for jaita."""
    if algorithm == "gaita":
        return 0.95 / core.l_max(A)
    return 0.99 / core.spectral_norm_sq(A)
