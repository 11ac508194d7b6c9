"""Dense linear algebra primitives and the regression problem data model.

The problem solved throughout the package is

    minimize  T(x) = 0.5 * ||A x - y||_2^2 + lam * sum_i |x_i|^q,   0 < q < 1.

Everything here works on plain float64 numpy arrays; ``as_vector`` /
``as_matrix`` validate shape and finiteness at the boundary.
"""

from dataclasses import dataclass

import numpy as np

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
    """Objective value 0.5*||Ax - y||^2 + lam * sum |x_i|^q (with |0|^q = 0)."""
    x = as_vector(x, "x")
    if x.shape[0] != p.n:
        raise DimensionMismatch(f"x has length {x.shape[0]}, expected {p.n}")
    return objective_from_residual(p, x, p.A @ x - p.y)


def objective_from_residual(p, x, r):
    """Objective using a precomputed residual r = A x - y.

    Only the nonzero entries are raised to the power q.  They are scattered
    back among zeros before the sum, which keeps numpy's pairwise summation
    order and so the bits of the sum of |x_i|^q over all entries; summing
    the nonzero powers alone would round differently.
    """
    nz = x != 0.0
    powers = np.zeros(x.shape[0])
    powers[nz] = np.abs(x[nz]) ** p.q
    return 0.5 * float(r @ r) + p.lam * float(powers.sum())
