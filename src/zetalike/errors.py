"""Exception types shared across the library."""


class ZetalikeError(Exception):
    """Base class for all library-specific errors."""


class InadmissibleIndexError(ZetalikeError, ValueError):
    """Raised when an index does not define a convergent series.

    rho-indices need every entry >= 1 and the last entry >= 2; eta-indices
    need every entry >= 1 and total weight >= 2.
    """


class PoleError(ZetalikeError, ZeroDivisionError):
    """Raised when a rational shift hits a pole of a harmonic-type sum."""


class ToleranceError(ZetalikeError, ValueError):
    """Raised when a requested tolerance cannot be certified: by
    ``eta_numeric``'s fast mode past its digit cap or when its final bound
    misses, by its oracle below the 1e-12 tolerance floor, and by
    ``zeta_constant`` past its summation budget or when its bound misses.
    """


class QuadratureConvergenceError(ZetalikeError, RuntimeError):
    """Raised when adaptive quadrature exhausts its refinement budget."""


class FixtureError(ZetalikeError, LookupError):
    """Raised when a reference-table fixture is requested out of range."""
