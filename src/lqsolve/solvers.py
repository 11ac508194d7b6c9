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
mu, params)``: ``_sweep``, the C kernel's sweep, for gaita, and
``_jacobi_step`` for jaita.  The C binding takes its arrays' pointers and
owns its screening state: the sweep always screens, skipping a zero
coordinate's dot product while a bound proves it stays zero, with every
output unchanged.  The loop binds the kernel's measure
(``core._measure``) the same way, once per run, and calls it once for the
initial state and once after each sweep: one C call refreshes
r = A x - y and gives r . r, the penalty sum, the squared step and
distance to the reference, and the support size.  So the sweep and
everything the trace records are computed in the kernel, and gaita's bits
do not depend on the BLAS; jaita's A^T r and its default step size
(||A||_2^2) use numpy's BLAS, and theirs may.  The prox tolerance is the
constant prox.TOL.  default_mu gives each solver's default step size.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _csweep, core, prox
from .core import _check_kernel_arrays, _measure, _norm, format_float, write_rows
from .errors import DimensionMismatch, InvalidInstance
from .prox import ProxParams, prox_vector

DIVERGENCE_FACTOR = 1e6


# ---------------------------------------------------------------------------
# configuration

STOP_RULES = ("iterate_change", "rmse", "cap")


@dataclass
class SolverConfig:
    """The settings of one run.

    ``stop`` names the rule that ends a run before ``max_sweeps``:
    "iterate_change" stops once ``step_norm``, the 2-norm of the sweep's
    step, the trace column of the same name, is <= ``tol``; "rmse" stops
    once ||x - reference|| / ||reference|| <= ``tol``; "cap" runs to
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
            if _norm(self.reference) == 0.0:  # the rmse divides by it
                raise InvalidInstance("the RMSE reference is zero, or its 2-norm "
                                      "underflows to 0")
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


class IterationTrace:
    """Per-sweep records, run flags and, with record_iterates, each iterate.

    Columns: sweep, n (update counter), objective, step_norm (the 2-norm
    of the row's own sweep's step: the last row of an "iterate_change" run
    shows the step that ended it), support_size, rmse (nan if no reference).
    """

    COLUMNS = ("sweep", "n", "objective", "step_norm", "support_size", "rmse")

    def __init__(self):
        self.rows = []          # list of 6-tuples, see COLUMNS
        self.iterates = []      # optional float arrays, aligned with rows
        self.flags = {}

    def record(self, sweep, n, obj, step_norm, support, rmse, x, keep_iterate):
        self.rows.append((sweep, n, obj, step_norm, support, rmse))
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
        write_rows(path, ",".join(self.COLUMNS), (
            [str(sweep), str(n), format_float(obj), format_float(step), str(supp),
             format_float(rmse)] for sweep, n, obj, step, supp, rmse in self.rows))


# ---------------------------------------------------------------------------
# steps

def _sweep(A, x, r, mu, params):
    """Bind the cyclic sweep, the C kernel in _sweep.c, to x and r: returns
    a function of no arguments that runs one sweep in place on them.

    The arguments are checked and the raw pointers taken here, once: the
    returned function always sweeps these very arrays, so a caller must
    change x and r only in place, never replace them with new arrays.
    The binding owns the kernel's screening state for A, which carries
    from sweep to sweep.  The function returns the number of columns
    that screening skipped.
    """
    _check_kernel_arrays(A, x, r)
    m, n_dim = A.shape
    state = np.zeros(3 * n_dim + m + 1)  # layout in _sweep.c
    state[:n_dim] = np.linalg.norm(A, axis=0) * (1.0 + 1e-10)  # rounded up
    state[n_dim:2 * n_dim] = np.inf  # no dot product computed yet
    lq_sweep = _csweep.lq_sweep
    args = (m, n_dim, A.ctypes.data, x.ctypes.data, r.ctypes.data,
            mu, params.c, params.q, params.tau, params.eta, prox.TOL,
            state.ctypes.data)

    def sweep():
        return lq_sweep(*args)

    sweep.arrays = (A, x, r, state)  # keeps the memory behind the pointers alive
    return sweep


def _jacobi_step(A, x, r, mu, params):
    """Bind jaita's step to x and r: returns a function of no arguments
    that takes one thresholded full-gradient step in place on x."""
    def step():
        x[:] = prox_vector(x - mu * (A.T @ r), x, params)

    return step


# ---------------------------------------------------------------------------
# run loops

@np.errstate(over="ignore", invalid="ignore")
def _run(p, x0, config, algorithm, bind, mu_bound, updates_per_sweep):
    """The loop both solvers share; returns (final state, trace).

    ``bind(A, x, r, mu, params)`` is called once, before the first sweep,
    and returns ``step()``, which does one sweep in place on x and r.  The
    loop copies the checked x0 into x and x_before, and one kernel call
    (_measure) gives the initial state and row 0.  After each sweep one
    more call gives the step_norm ||x - x_before||, the refreshed
    r = A x - y with the objective, the rmse and the support size, and
    moves x_before on to x.  Every decision stays here: stop
    "iterate_change" compares step_norm with config.tol, the divergence
    guard reads the objective, and the loop picks the rows to record.  It
    changes x and r only in place and never rebinds them, so a step and
    the measure may hold their memory for the whole run, as the C sweep
    does.  ``mu_bound(A)`` is the curvature bound whose inverse the step
    size should stay below.
    numpy's overflow and invalid-value warnings are off throughout: the
    divergence guard is what reports an objective that overflows.
    """
    params = ProxParams(c=p.lam * config.mu, q=p.q)
    x = core.as_vector(x0, "x0").copy()
    if x.shape[0] != p.n:
        raise DimensionMismatch(f"x0 has length {x.shape[0]}, expected {p.n}")
    r = np.empty(p.m)
    measure = _measure(p, x, x.copy(), r, config.reference)
    trace = IterationTrace()
    trace.flags = {
        "algorithm": algorithm,
        "mu_warning": bool(config.mu >= 1.0 / mu_bound(p.A)),
        "converged": False,
        "diverged": False,
        "did_not_converge": False,
        "sweeps": 0,
    }
    obj0, _, rmse, support = measure()
    state = SolverState(x=x, n=0, residual=r, objective=obj0)
    guard = DIVERGENCE_FACTOR * obj0 if obj0 > 0 else DIVERGENCE_FACTOR
    trace.record(0, 0, obj0, math.nan, support, rmse, x, config.record_iterates)
    if not (obj0 <= guard < math.inf):  # a NaN, infinite or near-overflow start
        trace.flags["diverged"] = True
        return state, trace

    step = bind(p.A, x, r, config.mu, params)
    sweep = 0
    for sweep in range(1, config.max_sweeps + 1):
        step()
        state.objective, step_norm, rmse, support = measure()

        diverged = not (state.objective <= guard)
        stop = config.stop != "cap" and (
            step_norm if config.stop == "iterate_change" else rmse) <= config.tol

        if (stop or diverged or sweep % config.record_every == 0
                or sweep == config.max_sweeps):
            trace.record(sweep, sweep * updates_per_sweep, state.objective,
                         step_norm, support, rmse, x, config.record_iterates)
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
