"""Exception types shared across the package.

Validation errors signal bad inputs or violated preconditions; numerical
errors signal that a computation could not be completed reliably. The CLI
maps the former to exit code 2 and the latter to exit code 3.
"""


class HHMeasureError(Exception):
    """Base class for all package-specific errors."""


# -- validation / precondition errors ---------------------------------------

class SchemaError(HHMeasureError):
    """A symbol-spec file violates the documented JSON schema."""


class SampleCountError(HHMeasureError):
    """Sample arrays must hold a power-of-two number of points (>= 4)."""


class RangeError(HHMeasureError):
    """A scalar parameter lies outside its admissible range."""


class DomainError(HHMeasureError):
    """A point lies outside the domain of the requested evaluation."""


class TailError(HHMeasureError):
    """Operation requires an exact finite-band symbol, not a truncation."""


class OrderError(HHMeasureError):
    """Weighted-shift limits are ordered the wrong way round."""


class WindowError(HHMeasureError):
    """Perturbation index is smaller than the weight window."""


class ConjugateError(HHMeasureError):
    """Exponents fail the Holder-conjugacy requirement 1/p + 1/q = 1."""


# -- numerical failures ------------------------------------------------------

class StabilizationError(HHMeasureError):
    """Commutator trace changed between truncation sizes; bound reasoning failed."""


class WindingUndefined(HHMeasureError):
    """Curve cannot be kept separated from the query point."""


class NonIntegerError(HHMeasureError):
    """Accumulated winding failed the integrality check (under-resolution)."""


class DegenerateRoot(HHMeasureError):
    """A root has near-zero Jacobian, or the preimage set is not discrete."""


class NoConvergence(HHMeasureError):
    """Newton from the last two quadtree levels found different preimage sets."""


class MaskCoverageError(HHMeasureError):
    """Masked cells cover too much of the quadrature region to trust a report."""


class NonFiniteError(HHMeasureError):
    """A computed value overflowed or became undefined (inf or nan)."""


VALIDATION_ERRORS = (
    SchemaError,
    SampleCountError,
    RangeError,
    DomainError,
    TailError,
    OrderError,
    WindowError,
    ConjugateError,
)

NUMERICAL_ERRORS = (
    StabilizationError,
    WindingUndefined,
    NonIntegerError,
    DegenerateRoot,
    NoConvergence,
    MaskCoverageError,
    NonFiniteError,
)
