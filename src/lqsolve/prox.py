"""Scalar and vector lq thresholding operators.

For c > 0 and 0 < q < 1 the scalar operator maps z to a minimizer of

    f(v) = (z - v)^2 / 2 + c * |v|^q.

The minimizer is 0 for |z| below a jump threshold tau, and otherwise the
unique root of  v + c*q*v^(q-1) = |z|  on [eta, |z|] (with the sign of z),
where

    eta = (2*c*(1-q)) ** (1/(2-q)),
    tau = (2-q) / (2-2*q) * eta.

At |z| == tau both branches minimize; the tie goes to the nonzero branch
exactly when the previous value of that coordinate was nonzero.  Outputs
are therefore always either 0 or at least eta in magnitude.

At q = 1/2 and q = 2/3 the root has a closed form, which solve_inverse
uses; at any other q a safeguarded Newton iteration finds it to the fixed
tolerance TOL.  The C kernel repeats both, giving the same bits.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _csweep
from .errors import ConvergenceFailure, DimensionMismatch, InvalidInstance

TOL = 1e-12  # on |g(v) - z_abs| and on the Newton step


@dataclass(frozen=True)
class ProxParams:
    """Threshold parameters: c is the product lambda*mu, q the exponent."""

    c: float
    q: float
    tau: float = 0.0  # derived, set in __post_init__
    eta: float = 0.0  # derived, set in __post_init__

    def __post_init__(self):
        if not (self.c > 0):
            raise InvalidInstance(f"c must be positive, got {self.c}")
        if not (0.0 < self.q < 1.0):
            raise InvalidInstance(f"q must lie in (0, 1), got {self.q}")
        eta = (2.0 * self.c * (1.0 - self.q)) ** (1.0 / (2.0 - self.q))
        tau = (2.0 - self.q) / (2.0 - 2.0 * self.q) * eta
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "tau", tau)


def _g(v, c, q):
    return v + c * q * v ** (q - 1.0)


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

    At q = 1/2 and q = 2/3 the root is the closed form, kept inside
    [eta, z_abs] against rounding.  Elsewhere, and where the closed form
    overflows, Newton runs: g is strictly increasing and convex on the
    bracket (g'(eta) = 1 - q/2 > 0), so a Newton iteration started at the
    right end descends monotonically onto the root, to TOL; a bisection
    safeguard keeps it inside the bracket regardless.  An infinite z_abs
    has no root, and the iteration stalls.  Requires z_abs >= tau, i.e.
    g(eta) <= z_abs.
    """
    c, q, eta = params.c, params.q, params.eta
    if z_abs < params.tau:
        raise InvalidInstance(
            f"solve_inverse needs z_abs >= tau ({params.tau:g}), got {z_abs:g}")
    v = _closed_form(z_abs, c, q)
    if math.isfinite(v):
        return min(max(v, eta), z_abs)
    lo, hi = eta, z_abs
    v = z_abs
    for _ in range(200):
        g = _g(v, c, q) - z_abs
        if abs(g) <= TOL:
            return v
        if g > 0.0:
            hi = v
        else:
            lo = v
        gp = 1.0 + c * q * (q - 1.0) * v ** (q - 2.0)
        step_ok = gp > 0.0
        if step_ok:
            v_new = v - g / gp
            step_ok = lo <= v_new <= hi
        if not step_ok:
            v_new = 0.5 * (lo + hi)
        if abs(v_new - v) <= TOL:
            return v_new
        v = v_new
    raise stalled(z_abs)


def stalled(z_abs):
    """The error every backend raises when the root-finder fails at z_abs."""
    return ConvergenceFailure(f"prox root-finder stalled at z_abs={z_abs:g}")


def prox_scalar(z, x_prev, params):
    """Single-valued thresholding of z, with x_prev breaking the tie at tau."""
    z_abs = abs(z)
    if z_abs < params.tau:
        return 0.0
    if z_abs > params.tau:
        return math.copysign(solve_inverse(z_abs, params), z)
    if x_prev != 0.0:
        return math.copysign(params.eta, z)
    return 0.0


def prox_vector(z, x_prev, params):
    """Componentwise prox_scalar, bit for bit: the C kernel's lq_prox, or a
    loop over prox_scalar where the kernel cannot load."""
    z = np.asarray(z, dtype=np.float64, order="C")
    x_prev = np.asarray(x_prev, dtype=np.float64, order="C")
    if z.shape != x_prev.shape:
        raise DimensionMismatch(
            f"z and x_prev must match, got {z.shape} vs {x_prev.shape}")
    if _csweep.lq_prox is None:
        return np.array([prox_scalar(zi, xi, params) for zi, xi
                         in zip(z.ravel().tolist(), x_prev.ravel().tolist())],
                        dtype=np.float64).reshape(z.shape)
    out = np.empty_like(z)
    failed = _csweep.lq_prox(z.size, z.ctypes.data, x_prev.ctypes.data,
                             params.c, params.q, params.tau, params.eta, TOL,
                             out.ctypes.data)
    if failed >= 0:
        raise stalled(abs(float(z.flat[failed])))
    return out
