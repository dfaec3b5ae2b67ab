"""Exception types shared across the package."""


class UnfoldingError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(UnfoldingError):
    """Axes, vectors or matrices do not line up."""


class NormalizationError(UnfoldingError):
    """Histogram cannot be scaled to unit mass."""


class InvalidKernelError(UnfoldingError):
    """Response kernel produced a negative value."""


class ConstructionError(UnfoldingError):
    """Response matrix cannot be built from the given sample."""


class DegenerateOperatorError(UnfoldingError):
    """Folding operator has no usable normalization factor."""


class DecompositionError(UnfoldingError):
    """Covariance matrix is not positive semidefinite."""


class NumericalFailureError(UnfoldingError):
    """Iteration produced non-finite values.

    The iteration order at which the failure occurred is kept in ``order``.
    """

    def __init__(self, message, order):
        super().__init__(message)
        self.order = int(order)


class ParameterError(UnfoldingError, ValueError):
    """A scalar count, order or factor is refused; ``name`` names it."""

    def __init__(self, message, name):
        super().__init__(message)
        self.name = name


class ConfigError(UnfoldingError):
    """Scenario or CLI configuration is malformed.

    ``field`` names the offending configuration entry when known.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
