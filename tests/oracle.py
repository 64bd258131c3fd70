"""Direct reference routes that only the tests use.

Each is the plain, slow way to get a quantity the package computes
another way (mode sums for closed forms, quadrature for moments, dense
diagonals), kept out of ``src`` so that the package holds only what it
calls or exports.
"""

import numpy as np

from nctorus import grids
from nctorus.errors import GridMismatchError


def evaluate(poly: grids.FourierPoly, angles) -> np.ndarray:
    """Evaluate a trigonometric polynomial at arbitrary angles."""
    angles = np.asarray(angles, dtype=float)
    phases = np.exp(1j * np.multiply.outer(angles, poly.modes()))
    return phases @ poly.coeffs


def derivative(poly: grids.FourierPoly) -> grids.FourierPoly:
    """Angular derivative d/dtheta."""
    return grids.FourierPoly(poly.coeffs * (1j * poly.modes()))


def projection_tail(g, mode_bound: int) -> float:
    """L2 mass of the sampled spectrum outside ``|l| <= mode_bound``.

    Rows of a stack count together.  Only the in-grid tail is visible;
    energy aliased from beyond the grid bandwidth folds into the
    retained modes and is not counted.
    """
    return grids.tail_mass(grids.spectrum(g), mode_bound)


def quadrature_mean(g) -> complex:
    """Quadrature of ``g`` against normalized Lebesgue measure."""
    return complex(np.mean(grids._values_of(g), axis=-1))


def quadrature_inner(f, g) -> complex:
    """L2 inner product ``(1/G) sum f conj(g)``, linear in the first slot."""
    fv = grids._values_of(f)
    gv = grids._values_of(g)
    if fv.shape[-1] != gv.shape[-1]:
        raise GridMismatchError(
            f"grid sizes {fv.shape[-1]} and {gv.shape[-1]} differ")
    return complex(np.mean(fv * np.conj(gv), axis=-1))


def conjugator_mode_table(d, l: int, mode_bound: int) -> np.ndarray:
    """Fourier coefficients of ``h^l`` for modes ``-mode_bound..mode_bound``."""
    g = grids.default_grid_size(mode_bound)
    x = np.arange(g) / g
    values = np.exp(2j * np.pi * l * d.lift.value(x))
    return grids.project_to_modes(values, mode_bound).coeffs


def undeformed_corner(box, a_n: float) -> np.ndarray:
    """Diagonal corner with entries ``i l - a_n``."""
    return np.diag(1j * box.modes() - a_n)


def kernel_mode_sum(kernel, angles) -> np.ndarray:
    """``sum_j c_j cos(j t)`` over the kernel's coefficients, |j| <= order."""
    js = np.arange(-kernel.order, kernel.order + 1)
    angles = np.asarray(angles, dtype=float)
    return np.cos(np.multiply.outer(angles, js)) @ kernel.coefficients(js)


def state_moments_by_quadrature(d, mode_bound: int,
                                size: int = 8192) -> np.ndarray:
    """``mu(m) = mean exp(2 pi i m H^{-1}(x_j))`` on ``size`` points."""
    u = d.lift.inverse(np.arange(size) / size)
    ms = np.arange(-mode_bound, mode_bound + 1)
    return np.exp(2j * np.pi * np.multiply.outer(ms, u)).mean(axis=1)
