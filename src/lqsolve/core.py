"""Dense linear algebra primitives and the regression problem data model.

The problem solved throughout the package is

    minimize  T(x) = 0.5 * ||A x - y||_2^2 + lam * sum_i |x_i|^q,   0 < q < 1.

Everything here works on plain float64 numpy arrays; ``as_vector`` /
``as_matrix`` validate shape and finiteness at the boundary.
"""

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


def objective(p, x):
    """Objective value 0.5*||Ax - y||^2 + lam * sum |x_i|^q (with |0|^q = 0),
    with A x - y and its square from numpy's BLAS."""
    x = as_vector(x, "x")
    if x.shape[0] != p.n:
        raise DimensionMismatch(f"x has length {x.shape[0]}, expected {p.n}")
    r = p.A @ x - p.y
    return objective_from_rr(p, x, float(r @ r))


def objective_from_rr(p, x, rr):
    """The objective 0.5 * rr + lam * sum |x_i|^q, given rr = ||A x - y||^2
    however the caller summed it.  The penalty sum is the C kernel's
    (lq_penalty), which the run loop's measure also takes: each nonzero's
    power from libm's pow, summed in the kernel's lane order."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return 0.5 * rr + p.lam * _csweep.lq_penalty(x.shape[0], x.ctypes.data, p.q)
