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
"""

from __future__ import annotations

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
    """``sum x conj(y)``, linear in the first slot, summed as by l2."""
    return np.sum(x * np.conj(y))


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
    twist = np.exp(1j * frequencies(values.shape[-1]) * angle)
    return np.fft.ifft(np.fft.fft(values) * twist)


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
