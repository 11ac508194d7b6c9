"""Dense linear algebra primitives and the regression problem data model.

The problem solved throughout the package is

    minimize  T(x) = 0.5 * ||A x - y||_2^2 + lam * sum_i |x_i|^q,   0 < q < 1.

Everything here works on plain float64 numpy arrays; ``as_vector`` /
``as_matrix`` validate shape and finiteness at the boundary.  An iterate
is measured in one call of the C kernel's ``lq_measure``, bound by
``_measure``: the residual A x - y with r . r, the penalty sum, the step,
the distance to a reference and the support.  The run loop in
``solvers`` binds it once per run and calls it after every sweep;
``objective`` makes one call, so it has the bits of the trace's
objective column and calls no BLAS.  ``_norm`` is the 2-norm of the
RMSE, its squares summed in the kernel as well.
"""

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from . import _csweep
from .errors import AsymmetricMatrix, DimensionMismatch, InvalidInstance


def as_vector(v, name="vector"):
    """Coerce to a finite 1-d float64 array."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-d, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInstance(f"{name} contains non-finite entries")
    return v


def as_matrix(a, name="matrix"):
    """Coerce to a finite 2-d float64 array."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-d, got shape {a.shape}")
    if a.size == 0:
        raise InvalidInstance(f"{name} is empty")
    if not np.all(np.isfinite(a)):
        raise InvalidInstance(f"{name} contains non-finite entries")
    return a


def format_float(x):
    """Shortest round-trip decimal form of x; survives the text boundary exactly."""
    return repr(float(x))


def write_rows(path, header, rows):
    """Write a header line, then each row's strings joined by commas."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


@dataclass(frozen=True)
class ProblemInstance:
    """One regularized least-squares datum: matrix A (m x N), observation y,
    penalty weight lam > 0 and exponent q in (0, 1)."""

    A: np.ndarray
    y: np.ndarray
    lam: float
    q: float

    def __post_init__(self):
        A = as_matrix(self.A, "A")
        y = as_vector(self.y, "y")
        # Fortran order makes column slices views; the coordinate loop leans on that.
        object.__setattr__(self, "A", np.asfortranarray(A))
        object.__setattr__(self, "y", y)
        if y.shape[0] != A.shape[0]:
            raise DimensionMismatch(
                f"y has length {y.shape[0]}, expected {A.shape[0]}")
        if not (self.lam > 0):
            raise InvalidInstance(f"lam must be positive, got {self.lam}")
        if not (0.0 < self.q < 1.0):
            raise InvalidInstance(f"q must lie in (0, 1), got {self.q}")

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]


def column_norms_sq(A):
    """Squared Euclidean norm of every column of A."""
    A = as_matrix(A, "A")
    return np.einsum("ij,ij->j", A, A)


def l_max(A):
    """Largest squared column norm, the step-size bound for the cyclic solver."""
    return float(np.max(column_norms_sq(A)))


def spectral_norm_sq(A):
    """Squared spectral norm ||A||_2^2, the largest eigenvalue of the smaller
    Gram matrix (A A^T when A is wide, A^T A otherwise), from LAPACK."""
    A = as_matrix(A, "A")
    g = A @ A.T if A.shape[0] < A.shape[1] else A.T @ A
    return float(np.linalg.eigvalsh(g)[-1])


def min_eig_symmetric(M):
    """Smallest eigenvalue of a symmetric matrix, from LAPACK (eigvalsh).

    M must be symmetric to within 1e-10, entry by entry.
    """
    M = as_matrix(M, "M")
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"M must be square, got shape {M.shape}")
    asym = float(np.max(np.abs(M - M.T))) if M.size else 0.0
    if asym > 1e-10:
        raise AsymmetricMatrix(f"M deviates from symmetry by {asym:g}")
    return float(np.linalg.eigvalsh(M)[0])


def _check_kernel_arrays(A, x, r):
    """Check what the kernel's x and r pointers need: a Fortran-ordered
    float64 A, and writable contiguous float64 x and r of A's shape."""
    if A.dtype != np.float64 or A.ndim != 2 or not A.flags.f_contiguous:
        raise InvalidInstance("the C kernel needs a Fortran-ordered float64 matrix")
    for v in (x, r):
        if (v.dtype != np.float64 or v.ndim != 1 or not v.flags.c_contiguous
                or not v.flags.writeable):
            raise InvalidInstance("the C kernel needs writable contiguous float64 vectors")
    m, n_dim = A.shape
    if x.shape[0] != n_dim or r.shape[0] != m:
        raise DimensionMismatch(
            f"x and r have lengths {x.shape[0]} and {r.shape[0]}, "
            f"expected {n_dim} and {m}")


def _measure(p, x, x_before, r, ref):
    """Bind the measure of an iterate, the C kernel's lq_measure, to x,
    x_before and r: returns a function of no arguments that returns
    (objective, step_norm, rmse, support_size) and leaves x_before = x for
    the next sweep.

    In one call the kernel refreshes r = A x - y (-y plus x_i a_i for each
    x_i != 0, in column order, so the work is the support's) and sums, in
    its lane order, the function's ``out`` buffer: ||x - x_before||^2,
    r . r, the penalty and ||x - ref||^2 (NaN without a reference).
    Python takes the square roots and forms the objective
    0.5 * r . r + lam * penalty and the rmse ||x - ref|| / ||ref||.  The
    arguments are checked and the raw pointers taken here, once: x,
    x_before and r must change only in place, never be replaced with new
    arrays.
    """
    _check_kernel_arrays(p.A, x, r)
    _check_kernel_arrays(p.A, x_before, r)
    if ref is not None:
        ref = as_vector(ref, "the RMSE reference")
        if ref.shape[0] != p.n:
            raise DimensionMismatch(f"the RMSE reference has length {ref.shape[0]}, "
                                    f"expected {p.n}")
    ref_norm = math.nan if ref is None else _norm(ref)
    diff, out = np.empty(p.n), (ctypes.c_double * 4)()
    lq_measure, lam = _csweep.lq_measure, p.lam
    args = (p.m, p.n, p.A.ctypes.data, x.ctypes.data, x_before.ctypes.data,
            p.y.ctypes.data, r.ctypes.data, None if ref is None else ref.ctypes.data,
            p.q, diff.ctypes.data, ctypes.addressof(out))

    def measure():
        support = lq_measure(*args)
        d2, rr, pen, e2 = out
        return 0.5 * rr + lam * pen, math.sqrt(d2), math.sqrt(e2) / ref_norm, support

    measure.out = out
    measure.arrays = (p.A, p.y, x, x_before, r, ref, diff)  # keeps the memory alive
    return measure


def _norm(v):
    """The 2-norm of a 1-d vector, its squares summed in the kernel
    (lq_dot), with no BLAS: an infinite entry gives inf."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    return math.sqrt(_csweep.lq_dot(v.shape[0], v.ctypes.data, v.ctypes.data))


def objective(p, x):
    """Objective value 0.5*||Ax - y||^2 + lam * sum |x_i|^q (with |0|^q = 0),
    from one call of the run loop's measure: the bits of its objective."""
    x = as_vector(x, "x").copy()
    if x.shape[0] != p.n:
        raise DimensionMismatch(f"x has length {x.shape[0]}, expected {p.n}")
    return _measure(p, x, x.copy(), np.empty(p.m), None)()[0]
