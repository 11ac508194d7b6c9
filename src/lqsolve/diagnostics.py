"""Checkable consequences of the convergence theory.

Stationary points are exactly the fixed points of the thresholded
gradient map G(x) = prox(x - mu * A^T(Ax - y)), characterized by three
conditions on the support I = {i : x_i != 0}:

  (a) |x_i| >= eta on I,
  (b) A_i^T(Ax - y) + lam*q*sgn(x_i)|x_i|^(q-1) = 0 on I,
  (c) |A_i^T(Ax - y)| <= tau/mu off I.

Beyond stationarity this module certifies local minimality (positive
definiteness of the support-restricted curvature matrix, plus two cheaper
sufficient conditions) and verifies the relative-error bound that the
gradient on a frozen support obeys between consecutive sweeps.
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import core
from .errors import DimensionMismatch, InvalidInstance, NotStationary
from .prox import ProxParams


@dataclass(frozen=True)
class StationarityReport:
    support: tuple
    min_support_magnitude: float
    max_gradient_residual_on_support: float
    max_offsupport_score: float
    tau_over_mu: float
    eta: float
    tol: float
    is_stationary: bool

    def to_dict(self):
        d = asdict(self)
        d["support"] = list(d["support"])
        return d


@dataclass(frozen=True)
class LocalMinCertificate:
    support: tuple
    k: int
    e_min: float
    min_eig_condition: float
    theorem7_holds: bool
    theorem8a_holds: bool
    theorem8b_holds: bool

    def to_dict(self):
        d = asdict(self)
        d["support"] = list(d["support"])
        return d


def _support_of(x):
    return np.nonzero(x)[0]


def _penalty_gradient(p, x):
    """lam*q*sgn(x)*|x|^(q-1), the penalty's derivative at nonzero x; a
    scalar for a scalar x, a vector for a vector."""
    return p.lam * p.q * np.sign(x) * np.abs(x) ** (p.q - 1.0)


def check_stationary(p, x, mu, tol=1e-8):
    """Evaluate the three fixed-point conditions at x; residuals in the report
    are absolute, per coordinate."""
    x = core.as_vector(x, "x")
    if x.shape[0] != p.n:
        raise DimensionMismatch(f"x has length {x.shape[0]}, expected {p.n}")
    params = ProxParams(c=p.lam * mu, q=p.q)
    r = p.A @ x - p.y
    corr = p.A.T @ r
    supp = _support_of(x)
    off = np.setdiff1d(np.arange(p.n), supp, assume_unique=True)

    if supp.size:
        xs = x[supp]
        min_mag = float(np.min(np.abs(xs)))
        grad_supp = corr[supp] + _penalty_gradient(p, xs)
        max_grad = float(np.max(np.abs(grad_supp)))
    else:
        min_mag = float("inf")
        max_grad = 0.0
    max_off = float(np.max(np.abs(corr[off]))) if off.size else 0.0
    tau_over_mu = params.tau / mu

    ok = (min_mag >= params.eta - tol
          and max_grad <= tol
          and max_off <= tau_over_mu + tol)
    return StationarityReport(
        support=tuple(int(i) for i in supp),
        min_support_magnitude=min_mag,
        max_gradient_residual_on_support=max_grad,
        max_offsupport_score=max_off,
        tau_over_mu=tau_over_mu,
        eta=params.eta,
        tol=tol,
        is_stationary=bool(ok),
    )


def check_update_optimality(x_prev, x_next, p, mu, i, tol=1e-8):
    """Per-update optimality: the coordinate gradient at x_next equals
    (1/mu - A_i^T A_i)(x_prev_i - x_next_i), unless the coordinate was
    thresholded to zero.  i is 0-based."""
    x_prev = core.as_vector(x_prev, "x_prev")
    x_next = core.as_vector(x_next, "x_next")
    diff = np.nonzero(x_prev != x_next)[0]
    if not np.all(diff == i) and diff.size:
        raise InvalidInstance(
            f"iterates differ at coordinates {diff.tolist()}, expected only {i}")
    xi = x_next[i]
    if xi == 0.0:
        return True
    params = ProxParams(c=p.lam * mu, q=p.q)
    if abs(xi) < params.eta - tol:
        return False
    a_i = p.A[:, i]
    grad_i = float(a_i @ (p.A @ x_next - p.y)) + _penalty_gradient(p, xi)
    expected = (1.0 / mu - float(a_i @ a_i)) * (x_prev[i] - xi)
    return bool(abs(grad_i - expected) <= tol)


def check_relative_error(p, x_tail, mu, slack=0.0):
    """Relative-error bound on a converged-support tail.

    ``x_tail`` holds full iterates one sweep apart with identical support I.
    With B = A_I, K = |I| and delta = max_{i,j} |B_i^T B_j|, checks for each
    consecutive pair that

        ||grad T(u_next)||_2 <= (1/mu + K*delta) * sqrt(K) * ||u_next - u_prev||_2 + slack,

    where T(u) = 0.5*||B u - y||^2 + lam*||u||_q^q on the support.
    """
    iterates = [core.as_vector(x, "tail iterate") for x in x_tail]
    if len(iterates) < 2:
        raise InvalidInstance("need at least two tail iterates")
    supp = _support_of(iterates[0])
    for x in iterates[1:]:
        if not np.array_equal(_support_of(x), supp):
            raise InvalidInstance("support is not constant over the tail")
    if supp.size == 0:
        return True
    b = p.A[:, supp]
    k = supp.size
    gram = b.T @ b
    delta = float(np.max(np.abs(gram)))
    bound_coef = (1.0 / mu + k * delta) * np.sqrt(k)

    for prev, nxt in zip(iterates, iterates[1:]):
        u_prev, u_next = prev[supp], nxt[supp]
        grad = b.T @ (b @ u_next - p.y) + _penalty_gradient(p, u_next)
        lhs = float(np.linalg.norm(grad))
        rhs = bound_coef * float(np.linalg.norm(u_next - u_prev)) + slack
        if lhs > rhs:
            return False
    return True


def certify_local_min(p, x_star, mu, tol=1e-8):
    """Local-minimizer certificate at a stationary point x_star.

    Builds M = A_I^T A_I + lam*q*(q-1)*diag(|x_i|^(q-2)) on the support and
    tests M > 0 (theorem7), plus the two sufficient conditions: (8a) the
    restricted Gram matrix is positive definite and lam is below
    lam_min * e^(2-q) / (q(1-q)); (8b) lam_min/L_max > q/2 together with
    q/(2*lam_min) < mu < 1/L_max.  An empty support certifies vacuously
    (the penalty term dominates any small perturbation); 8a/8b are
    reported False there since their conditions reference A_I.
    """
    x_star = core.as_vector(x_star, "x_star")
    report = check_stationary(p, x_star, mu, tol)
    if not report.is_stationary:
        raise NotStationary(
            f"x_star fails the stationarity conditions at tol {tol:g}: {report}")
    supp = _support_of(x_star)
    if supp.size == 0:
        return LocalMinCertificate(support=(), k=0, e_min=float("inf"),
                                   min_eig_condition=float("inf"),
                                   theorem7_holds=True,
                                   theorem8a_holds=False,
                                   theorem8b_holds=False)
    xs = x_star[supp]
    e_min = float(np.min(np.abs(xs)))
    b = p.A[:, supp]
    gram = b.T @ b
    m = gram + p.lam * p.q * (p.q - 1.0) * np.diag(np.abs(xs) ** (p.q - 2.0))
    min_eig = core.min_eig_symmetric(m)
    lmin_gram = core.min_eig_symmetric(gram)
    lmax = core.l_max(p.A)

    th7 = min_eig > tol
    th8a = lmin_gram > 0 and p.lam < lmin_gram * e_min ** (2.0 - p.q) / (p.q * (1.0 - p.q))
    th8b = (lmin_gram / lmax > p.q / 2.0
            and p.q / (2.0 * lmin_gram) < mu < 1.0 / lmax)
    return LocalMinCertificate(
        support=tuple(int(i) for i in supp),
        k=int(supp.size),
        e_min=e_min,
        min_eig_condition=float(min_eig),
        theorem7_holds=bool(th7),
        theorem8a_holds=bool(th8a),
        theorem8b_holds=bool(th8b),
    )
