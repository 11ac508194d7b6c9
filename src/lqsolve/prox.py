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

At q = 1/2 and q = 2/3 the root has a closed form; at any other q,
Newton's method descends onto it from |z| and stops within the fixed
tolerance TOL or at the first step that does not descend, so it cannot
fail.  Both run in the C kernel, _sweep.c; the Python root-finder in the
tests' conftest.py is the oracle it is checked against bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from . import _csweep
from .errors import DimensionMismatch, InvalidInstance

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


def prox_scalar(z, x_prev, params):
    """Single-valued thresholding of z, with x_prev breaking the tie at tau."""
    return float(prox_vector(z, x_prev, params))


def prox_vector(z, x_prev, params):
    """Componentwise thresholding of z, with x_prev breaking each tie at
    tau: the C kernel's lq_prox."""
    z = np.asarray(z, dtype=np.float64, order="C")
    x_prev = np.asarray(x_prev, dtype=np.float64, order="C")
    if z.shape != x_prev.shape:
        raise DimensionMismatch(
            f"z and x_prev must match, got {z.shape} vs {x_prev.shape}")
    out = np.empty_like(z)
    _csweep.lq_prox(z.size, z.ctypes.data, x_prev.ctypes.data, params.c,
                    params.q, params.tau, params.eta, TOL, out.ctypes.data)
    return out
