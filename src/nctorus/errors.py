"""Exception types raised across the package.

Everything derives from :class:`NcTorusError` so callers can catch one
base class at CLI boundaries while tests pin the concrete types.
:class:`GridMismatchError` and :class:`RouteMismatchError` are reserved
public names: the package exports them but never raises them.  The
config readers share :func:`_json_number` and :func:`_json_numbers`,
which turn a value of the wrong JSON type into ``ValueError``.
"""

import numbers


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


def _json_number(value, label: str, kind: type = float):
    """``value`` through ``kind`` (int or float) when it is a JSON number,
    an integral one for int; a bool, string, list, object or null raises
    ``ValueError`` naming ``label``."""
    integral = (isinstance(value, numbers.Integral)
                or (isinstance(value, float) and value.is_integer()))
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or (kind is int and not integral)):
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{label} must be {noun}, got {value!r}")
    return kind(value)


def _json_numbers(values, label: str, kind: type = float) -> tuple:
    """A JSON list of numbers through ``kind``; any other type raises
    ``ValueError`` naming ``label``."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{label} must be a list of numbers, got {values!r}")
    return tuple(_json_number(v, label, kind) for v in values)


def _json_keys(data: dict, known, label: str) -> None:
    """Raise ``ValueError`` naming ``label`` when the JSON object ``data``
    holds a key outside ``known``: a misspelt key must not run the
    default silently."""
    unknown = sorted(set(data).difference(known))
    if unknown:
        raise ValueError(f"unknown {label} keys {unknown}")
