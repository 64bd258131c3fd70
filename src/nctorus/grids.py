"""Equispaced circle grids: the one home of the sampled Fourier convention.

Everything downstream works with functions sampled at the angles
``theta_j = 2 pi j / G`` and with trigonometric polynomials carrying
modes ``|l| <= M``.  The sampled Fourier coefficient convention is

    c(l) = (1/G) sum_j g(theta_j) exp(-i l theta_j),

with mode ``l`` stored at index ``l % G`` of the spectrum (FFT order).
It reproduces the analytic coefficient exactly whenever ``g`` is a
polynomial with mode bound below ``G - M``.  Powers of two at least
``8 (M + 1)`` keep every quadrature appearing in the package alias free
with a wide safety margin.  Every grid <-> band transform of the
package goes through this module; sample arrays may be row stacks, with
the grid along the last axis unless an ``axis`` is given.

This module is also the one home of phases.  :func:`cycles` reduces a
float times an integer modulo 1 exactly, before anything is rounded,
and :func:`waves` is the package's only complex exponential: the
Weyl relation twists, the multiplier and chart wave tables, the grid
waves ``e_l``, the J transport tables, rotations and transference
points all go through it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import GridTooSmallError


def default_grid_size(mode_bound: int) -> int:
    """Smallest power of two that is at least ``8 * (mode_bound + 1)``."""
    if mode_bound < 0:
        raise ValueError("mode_bound must be nonnegative")
    return 1 << int(np.ceil(np.log2(8 * (mode_bound + 1))))


def grid_angles(size: int) -> np.ndarray:
    """Angles ``2 pi j / size`` for ``j = 0 .. size - 1``."""
    return 2.0 * np.pi * np.arange(size) / size


def _slots(modes, size: int) -> np.ndarray:
    """Spectrum index ``l % size`` of each integer mode l."""
    return np.asarray(modes) % size


def frequencies(size: int) -> np.ndarray:
    """Integer mode held at each spectrum index: ``0, 1, .., -2, -1``."""
    return np.fft.fftfreq(size, d=1.0 / size).astype(int)


def spectrum(g, axis: int = -1) -> np.ndarray:
    """Sampled Fourier coefficients ``c(l)`` along ``axis``, in FFT order."""
    values = np.asarray(g, dtype=complex)
    out = np.fft.fft(values, axis=axis)
    out /= values.shape[axis]
    return out


def at_modes(spec: np.ndarray, modes, axis: int = -1) -> np.ndarray:
    """Coefficients at integer ``modes`` (any shape) of FFT-ordered spectra."""
    # Plain indexing, not np.take: on a stack it returns a column-major
    # array, and that memory order fixes the summation order of later
    # norms and inner products, hence the bits of the artifacts.
    index = [slice(None)] * spec.ndim
    index[axis] = _slots(modes, spec.shape[axis])
    return spec[tuple(index)]


def l2(x, axis=None):
    """Euclidean norm: the root of numpy's pairwise sum of ``|x|^2``, the
    one reduction of every norm in the package (BLAS ``dot``, behind
    ``np.linalg.norm`` and ``np.vdot``, rounds by its thread count)."""
    return np.sqrt(np.sum(np.abs(x) ** 2, axis=axis))


def inner(x, y):
    """``sum x conj(y)``, linear in the first slot, summed as by l2.

    The factors are passed in this order to the ufunc: written
    ``x * np.conj(y)``, numpy's temporary elision turns the product into
    ``conj(y) *= x`` above 256 KiB, and with FMA that rounds otherwise.
    """
    return np.sum(np.multiply(x, np.conj(y)))


def tail_mass(spec: np.ndarray, mode_bound: int) -> float:
    """L2 mass of FFT-ordered spectra, all rows, outside |l| <= mode_bound."""
    outside = np.abs(frequencies(spec.shape[-1])) > mode_bound
    return float(l2(spec[..., outside]))


def toeplitz(spec: np.ndarray, mode_bound: int) -> np.ndarray:
    """Band matrices ``[l, l'] -> c(l - l')`` of spectra: for a multiplier,
    its action on ``|l| <= mode_bound`` followed by the band projection."""
    modes = np.arange(-mode_bound, mode_bound + 1)
    return at_modes(spec, np.subtract.outer(modes, modes))


def spectral_derivative(g, drift: float = 0.0, sign: float = 1.0,
                        order: int = 1, axis: int = -1) -> np.ndarray:
    """Samples of ``(sign d/dtheta - drift)^order g``, mode by mode."""
    values = np.asarray(g, dtype=complex)
    shape = [1] * values.ndim
    shape[axis] = -1
    symbol = (sign * 1j * frequencies(values.shape[axis]) - drift) ** order
    spec = np.fft.fft(values, axis=axis) * symbol.reshape(shape)
    return np.fft.ifft(spec, axis=axis)


def rotate(g, angle: float) -> np.ndarray:
    """Samples of ``g(theta + angle)``, i.e. ``m(z) -> m(exp(i angle) z)``."""
    values = np.asarray(g, dtype=complex)
    twist = waves(angle / (2.0 * np.pi), frequencies(values.shape[-1]))
    return np.fft.ifft(np.fft.fft(values) * twist)


# One unit in the last place of a 64-bit binary fraction.
_UNIT = 2.0 ** -64


class Turns(NamedTuple):
    """Points x as ``fixed 2^-64 + low`` modulo 1, split once at the shape
    of x, for exact products with integers.

    ``fixed`` (uint64) holds ``x mod 1`` in units of 2^-64.  With
    ``x = X 2^-e`` for the integer mantissa X, that is exact while
    ``e <= 64``, i.e. for every ``|x| >= 2^-11``, and ``low`` is zero;
    below 2^-11 it is rounded and ``|low| <= 2^-65``.  ``low`` is NaN
    where x is not finite.
    """

    fixed: np.ndarray
    low: np.ndarray

    @classmethod
    def of(cls, x) -> "Turns":
        # x mod 1 (fmod is exact) split at 2^-11: a whole number of
        # 2^-11 above, under 2^53 units of 2^-64 below
        x = np.asarray(x, dtype=float)
        with np.errstate(invalid="ignore"):
            turn = np.fmod(x, 1.0)
            below = np.fmod(turn, 2.0 ** -11)
            head = np.rint(below * 2.0 ** 64)
            fixed = ((((turn - below) * 2.0 ** 11).astype(np.int64) << 53)
                     + head.astype(np.int64))
            return cls(fixed.view(np.uint64), below - head * _UNIT)

    def scaled(self, n, factor=1.0) -> np.ndarray:
        """``factor (x n mod 1)`` for int64 n, broadcast: ``fixed n`` is
        exact in uint64 wraparound (only n modulo 2^64 counts), and only
        its product with ``factor 2^-64`` is rounded.  ``low n``, at most
        1/4 in size, is rounded and added where x has a low part."""
        n = np.asarray(n, dtype=np.int64)
        out = np.asarray(np.multiply(
            np.multiply(self.fixed, n.view(np.uint64)), factor * _UNIT))
        if self.low.any():
            low = np.broadcast_to(self.low, out.shape)
            hit = low != 0
            n = np.broadcast_to(n, out.shape)
            out[hit] += factor * (low[hit] * n[hit])
        return out

    def waves(self, n) -> np.ndarray:
        """``exp(2 pi i x n)`` from the reduced phase."""
        phase = self.scaled(n, 2j * np.pi)
        return np.exp(phase, out=phase)


def cycles(x, n) -> np.ndarray:
    """``x n`` modulo 1 for float x and int64 n, broadcast: exact but for
    one rounding, to [0, 1], wherever ``|x| >= 2^-11`` (:class:`Turns`),
    for any n; NaN where x is not finite."""
    return Turns.of(x).scaled(n)


def waves(x, n) -> np.ndarray:
    """``exp(2 pi i x n)``, its phase reduced by :func:`cycles`: the
    package's one complex exponential."""
    return Turns.of(x).waves(n)


def _sine_ratio(p: int, angles) -> np.ndarray:
    """``sin(p t / 2) / sin(t / 2)``, its limit p at t = 0.

    The angles are first reduced to ``[-pi, pi]``, without rounding on
    ``[-2 pi, 2 pi]`` (the grid angles among them), so t = 0 is the only
    zero of the denominator; unreduced, ``t = +-2 pi`` would divide
    roundoff by roundoff.
    """
    angles = np.asarray(angles, dtype=float)
    t = angles - 2.0 * np.pi * np.round(angles / (2.0 * np.pi))
    half = np.sin(0.5 * t)
    pole = half == 0.0
    return np.where(pole, float(p),
                    np.sin(0.5 * p * t) / np.where(pole, 1.0, half))


def dirichlet_kernel(order: int, angles) -> np.ndarray:
    """``sum_{|j| <= order} exp(i j t) = sin((order + 1/2) t) / sin(t / 2)``.

    Closed form: memory is O(len(angles)) at any order.
    """
    return _sine_ratio(2 * order + 1, angles)


def fejer_kernel(order: int, angles) -> np.ndarray:
    """``sum_{|j| <= order} (1 - |j| / (order + 1)) exp(i j t)``, which is
    ``(sin((order + 1) t / 2) / sin(t / 2))^2 / (order + 1)``."""
    return _sine_ratio(order + 1, angles) ** 2 / (order + 1)


def on_grid(coeffs, size: int) -> np.ndarray:
    """Samples on the grid of ``size`` points of the trigonometric
    polynomials with ``coeffs[..., l + M]`` at mode l, row by row: exact,
    by zero-padded FFT."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape[-1] % 2 != 1:
        raise ValueError("coefficient array must have odd length")
    m = (coeffs.shape[-1] - 1) // 2
    if size < 2 * m + 1:
        raise GridTooSmallError(f"grid {size} cannot carry modes up to {m}")
    buf = np.zeros(coeffs.shape[:-1] + (size,), dtype=complex)
    buf[..., _slots(np.arange(-m, m + 1), size)] = coeffs
    out = np.fft.ifft(buf)
    out *= size
    return out


def project_to_modes(g, mode_bound: int) -> np.ndarray:
    """Coefficients ``[..., l + mode_bound]`` of grid samples on the modes
    ``|l| <= mode_bound``, row by row.

    Exact for polynomials sampled alias free; for general samples this
    is the discrete Fourier truncation.
    """
    values = np.asarray(g, dtype=complex)
    size = values.shape[-1]
    if size < 2 * mode_bound + 1:
        raise GridTooSmallError(
            f"grid {size} cannot resolve modes up to {mode_bound}")
    modes = np.arange(-mode_bound, mode_bound + 1)
    return at_modes(spectrum(values), modes)
