"""Exception types raised across the package.

Everything derives from :class:`NcTorusError` so callers can catch one
base class at CLI boundaries while tests pin the concrete types.
"""


class NcTorusError(Exception):
    """Base class for all package errors."""


class AlphaMismatchError(NcTorusError):
    """Two objects built over different deformation parameters were combined."""


class GridMismatchError(NcTorusError):
    """Grid sizes of two sampled functions disagree."""


class GridTooSmallError(NcTorusError):
    """A grid or quadrature rule cannot resolve the requested modes."""


class AliasingError(NcTorusError):
    """Re-projection dropped more spectral mass than the tail tolerance allows."""


class PositivityError(NcTorusError):
    """A lift fails strict monotonicity (its derivative is not positive)."""


class InverseSolveError(NcTorusError):
    """The lift inverse solver failed to reach the residual target."""


class OutOfBoxError(NcTorusError):
    """An index lies outside the truncation box."""


class RouteMismatchError(NcTorusError):
    """Two independent computation routes disagree beyond tolerance."""


class SingularBlockError(NcTorusError):
    """A block expected to be invertible is numerically singular."""
