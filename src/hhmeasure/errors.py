"""Exception types shared across the package.

Every error derives from exactly one of two categories.  A ValidationError
signals a bad input or a violated precondition; a NumericalError signals
that a computation could not be completed reliably.  The CLI maps the
former to exit code 2 and the latter to exit code 3.
"""


class HHMeasureError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(HHMeasureError):
    """Bad input or violated precondition (CLI exit code 2)."""


class NumericalError(HHMeasureError):
    """A computation could not be completed reliably (CLI exit code 3)."""


# -- validation / precondition errors ---------------------------------------

class SchemaError(ValidationError):
    """A symbol-spec file violates the documented JSON schema."""


class SampleCountError(ValidationError):
    """Sample arrays must hold a power-of-two number of points (>= 4)."""


class RangeError(ValidationError):
    """A scalar parameter lies outside its admissible range."""


class DomainError(ValidationError):
    """A point lies outside the domain of the requested evaluation."""


class TailError(ValidationError):
    """Operation requires an exact finite-band symbol, not a truncation."""


class OrderError(ValidationError):
    """Weighted-shift limits are ordered the wrong way round."""


class WindowError(ValidationError):
    """Perturbation index is smaller than the weight window."""


class ConjugateError(ValidationError):
    """Exponents fail the Holder-conjugacy requirement 1/p + 1/q = 1."""


# -- numerical failures ------------------------------------------------------

class StabilizationError(NumericalError):
    """Commutator trace changed between truncation sizes; bound reasoning failed."""


class WindingUndefined(NumericalError):
    """Curve cannot be kept separated from the query point."""


class NonIntegerError(NumericalError):
    """Accumulated winding failed the integrality check (under-resolution)."""


class DegenerateRoot(NumericalError):
    """A root has near-zero Jacobian, or the preimage set is not discrete."""


class NoConvergence(NumericalError):
    """Newton from the last two quadtree levels found different preimage sets."""


class NonFiniteError(NumericalError):
    """A computed value overflowed or became undefined (inf or nan)."""
