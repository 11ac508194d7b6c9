"""Exception types shared across the package."""


class LqsolveError(Exception):
    """Base class for all lqsolve errors."""


class DimensionMismatch(LqsolveError, ValueError):
    """Operands have incompatible shapes."""


class AsymmetricMatrix(LqsolveError, ValueError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NotStationary(LqsolveError, ValueError):
    """A point required to be stationary fails the optimality conditions."""


class InvalidInstance(LqsolveError, ValueError):
    """Problem data violates its invariants (non-finite entries, bad parameters)."""


class CorruptFile(LqsolveError, OSError):
    """A file read from disk does not match the checksum recorded for it."""
