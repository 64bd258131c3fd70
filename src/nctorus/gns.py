"""Concrete Hilbert space model: blocks of circle functions.

A vector is a family ``(x_n)_{|n| <= K}`` of trigonometric polynomials
with modes ``|l| <= M``; the pair ``(K, M)`` plus quadrature grid size
is a :class:`TruncationBox`.  Represented algebra elements act block
diagonally up to shifts,

    (A x)_n = sum_s m_{n, s} . x_{n - s},

with multiplier functions ``m_{n, s}(z) = sum_m f(m, s)
exp(i m (psi(z) + 2 pi alpha (2 n - s)))`` where ``psi`` is the angle of
``h^{-1}(z)``; each shift row is one matrix product of a twist table
and a wave table.  Everything downstream (modular operators, transforms,
Dirac blocks) reuses the cached per-box context built here: one inverse
solve into the chart ``u = h^{-1}``, the closed-form densities
``delta_n`` and the chart transport ``y -> y o F_n`` (resample, phase,
resample) that every use of J goes through.  The generator products
``u_kl`` are closed forms in the same chart, with no series behind them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import ConjugatorLift, DiffeoSpec
from .errors import AlphaMismatchError, OutOfBoxError
from .grids import (FourierPoly, default_grid_size, frequencies, grid_angles,
                    project_to_modes, spectrum, toeplitz)
from .weyl import WeylElement


@dataclass(frozen=True)
class TruncationBox:
    """Block bound K, mode bound M and quadrature grid size G.

    G defaults to the smallest power of two at least ``8 (M + 1)`` and
    is validated against that floor, which keeps multiplier products
    effectively alias free for the analytic conjugators used here.
    """

    block_bound: int
    mode_bound: int
    grid_size: int = 0

    def __post_init__(self):
        if self.block_bound < 0 or self.mode_bound < 0:
            raise ValueError("bounds must be nonnegative")
        g = self.grid_size or default_grid_size(self.mode_bound)
        if g & (g - 1) or g < 8 * (self.mode_bound + 1):
            raise ValueError(
                f"grid size {g} must be a power of two >= 8 (M + 1)")
        object.__setattr__(self, "grid_size", int(g))

    @property
    def n_blocks(self) -> int:
        return 2 * self.block_bound + 1

    @property
    def n_modes(self) -> int:
        return 2 * self.mode_bound + 1

    @property
    def dim(self) -> int:
        return self.n_blocks * self.n_modes

    def blocks(self) -> np.ndarray:
        return np.arange(-self.block_bound, self.block_bound + 1)

    def modes(self) -> np.ndarray:
        return np.arange(-self.mode_bound, self.mode_bound + 1)


class _Context:
    """Per (dynamics, box) chart data shared across modules.

    One inverse solve puts the grid into the chart ``u = H^{-1}(x)``, in
    which the dynamics is the rigid rotation by ``2 alpha``.  From it the
    densities ``delta_n = H'(u + 2 alpha n) / H'(u)`` follow in closed
    form, and transport along ``f^n``, ``y -> y o F_n`` on the grid,
    becomes resample, phase, resample: ``from_chart(to_chart(y), phase)``.
    Memory is O(G^2 + (2K + 1) G), plus the conjugated basis table once
    :func:`nctorus.fourier.epsilon_basis` has filled ``epsilon``.
    """

    def __init__(self, d: DiffeoSpec, box: TruncationBox):
        self.d = d
        self.box = box
        g = box.grid_size
        self.theta = grid_angles(g)
        self.x = np.arange(g) / g
        self.u = u = d.lift.inverse(self.x)
        self.psi = 2.0 * np.pi * u
        shift = 2.0 * d.alpha * box.blocks()
        self.delta = (d.lift.derivative(u[None, :] + shift[:, None])
                      / d.lift.derivative(u)[None, :])
        self.sqrt_delta = np.sqrt(self.delta)
        self.delta_hat = spectrum(self.delta)
        self.inv_delta_hat = spectrum(1.0 / self.delta)
        freqs = frequencies(g)
        # E[j, xi] = exp(2 pi i xi H(x_j)) samples y o H on the uniform u
        # grid from the x-spectrum of y; the outer FFTs make the map act
        # on samples.  Its accuracy rests on the u-spectrum of y o H
        # decaying inside the grid band.
        spectra = spectrum(_waves(d.lift.value(self.x), freqs), axis=0)
        self._to_chart = spectrum(spectra).T
        self.phase = _waves(shift, freqs)
        self._from_chart = _waves(u, freqs).T
        waves = np.exp(1j * np.multiply.outer(box.modes(), self.theta))
        self.wave_spectra = self.to_chart(waves)
        self.epsilon: np.ndarray | None = None

    def to_chart(self, rows: np.ndarray) -> np.ndarray:
        """u-spectra of ``y o H`` for grid rows y."""
        return rows @ self._to_chart

    def from_chart(self, spectra: np.ndarray,
                   phase: np.ndarray) -> np.ndarray:
        """Rotate u-spectra by ``2 alpha n``; sample ``y o F_n`` on the grid.

        ``phase`` is a row of :attr:`phase` (one n for every row) or the
        whole table (row i moves along ``F_{n_i}``).
        """
        return (spectra * phase) @ self._from_chart


def _cycles(points: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """``points[j] freqs[k]`` modulo 1, with the large product kept exact.

    Cycle counts reach about K G / 2 in the rotation phases.  Splitting
    the points on a 2^-30 lattice makes the large product exact (while
    |points freqs| < 2^23), so only its fraction is rounded.
    """
    coarse = np.round(points * 2.0 ** 30) / 2.0 ** 30
    return (np.multiply.outer(coarse, freqs) % 1.0
            + np.multiply.outer(points - coarse, freqs))


def _waves(points: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """``exp(2 pi i points[j] freqs[k])``, reduced by :func:`_cycles`."""
    return np.exp(2j * np.pi * _cycles(points, freqs))


@lru_cache(maxsize=8)
def _context(d: DiffeoSpec, box: TruncationBox) -> _Context:
    return _Context(d, box)


class GnsVector:
    """Block family of mode coefficients, shape (2K + 1, 2M + 1), C order.

    ``coeffs[n + K, l + M]`` is the coefficient of ``z^l`` in block n.
    """

    __slots__ = ("box", "coeffs")

    def __init__(self, box: TruncationBox, coeffs: np.ndarray):
        coeffs = np.ascontiguousarray(coeffs, dtype=complex)
        if coeffs.shape != (box.n_blocks, box.n_modes):
            raise ValueError(
                f"coefficient shape {coeffs.shape} does not match box")
        self.box = box
        self.coeffs = coeffs

    @classmethod
    def zeros(cls, box: TruncationBox) -> "GnsVector":
        return cls(box, np.zeros((box.n_blocks, box.n_modes), dtype=complex))

    def block(self, n: int) -> np.ndarray:
        if abs(n) > self.box.block_bound:
            raise OutOfBoxError(f"block {n} outside |n| <= {self.box.block_bound}")
        return self.coeffs[n + self.box.block_bound]

    def copy(self) -> "GnsVector":
        return GnsVector(self.box, self.coeffs.copy())

    def scaled(self, factor: complex) -> "GnsVector":
        return GnsVector(self.box, factor * self.coeffs)

    def __add__(self, other: "GnsVector") -> "GnsVector":
        return GnsVector(self.box, self.coeffs + other.coeffs)

    def __sub__(self, other: "GnsVector") -> "GnsVector":
        return GnsVector(self.box, self.coeffs - other.coeffs)

    def inner(self, other: "GnsVector") -> complex:
        """Hilbert inner product, linear in the first slot."""
        return complex(np.sum(self.coeffs * np.conj(other.coeffs)))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def on_grid(self) -> np.ndarray:
        """All blocks evaluated on the quadrature grid, shape (2K+1, G)."""
        return FourierPoly(self.coeffs).on_grid(self.box.grid_size).values


def vacuum(box: TruncationBox) -> GnsVector:
    """Cyclic vector: constant 1 in block 0."""
    return basis_vector(box, 0, 0)


def basis_vector(box: TruncationBox, k: int, l: int) -> GnsVector:
    """Orthonormal basis vector ``z^l`` sitting in block k."""
    if abs(k) > box.block_bound or abs(l) > box.mode_bound:
        raise OutOfBoxError(f"(k, l) = ({k}, {l}) outside the box")
    out = GnsVector.zeros(box)
    out.coeffs[k + box.block_bound, l + box.mode_bound] = 1.0
    return out


def random_vector(rng: np.random.Generator, box: TruncationBox,
                  block_margin: int = 0, mode_margin: int = 0,
                  normalize: bool = True) -> GnsVector:
    """Random vector supported away from the box edges by the margins."""
    coeffs = np.zeros((box.n_blocks, box.n_modes), dtype=complex)
    bs = slice(block_margin, box.n_blocks - block_margin)
    ms = slice(mode_margin, box.n_modes - mode_margin)
    shape = (box.n_blocks - 2 * block_margin, box.n_modes - 2 * mode_margin)
    coeffs[bs, ms] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if normalize:
        coeffs /= np.linalg.norm(coeffs)
    return GnsVector(box, coeffs)


class GnsOperator:
    """Shift-banded operator given by multiplier samples per shift.

    ``terms[s]`` has shape (2K + 1, G); row ``n + K`` holds the
    multiplier applied to the source block ``n - s`` when producing
    block n.
    """

    __slots__ = ("box", "terms")

    def __init__(self, box: TruncationBox, terms: dict[int, np.ndarray]):
        self.box = box
        self.terms = {int(s): np.asarray(t, dtype=complex)
                      for s, t in terms.items()}

    def apply_to_grid(self, source: np.ndarray) -> np.ndarray:
        """Act on raw grid rows and return grid rows.

        Products of these operators are pointwise in the grid picture,
        so chaining applications here keeps composites exact; the band
        projection happens only in :meth:`apply`.
        """
        k = self.box.block_bound
        out = np.zeros_like(source)
        for s, mult in self.terms.items():
            lo = max(-k, -k + s)
            hi = min(k, k + s)
            if lo > hi:
                continue
            rows = slice(lo + k, hi + k + 1)
            src = slice(lo - s + k, hi - s + k + 1)
            out[rows] += mult[rows] * source[src]
        return out

    def apply(self, x: GnsVector) -> GnsVector:
        if x.box != self.box:
            raise ValueError("vector box does not match operator box")
        out = self.apply_to_grid(x.on_grid())
        return GnsVector(self.box,
                         project_to_modes(out, self.box.mode_bound).coeffs)

    def adjoint(self) -> "GnsOperator":
        """Adjoint via ``(A*)_{n, s} = conj(m_{n + s... })`` reindexing.

        Concretely the shift -s multiplier row n is the conjugate of the
        shift s multiplier row n + s, zero where that row leaves the box.
        """
        k = self.box.block_bound
        new_terms: dict[int, np.ndarray] = {}
        for s, mult in self.terms.items():
            arr = np.zeros_like(mult)
            for i in range(mult.shape[0]):
                j = i + s
                if 0 <= j < mult.shape[0]:
                    arr[i] = np.conj(mult[j])
            new_terms[-s] = new_terms.get(-s, 0) + arr
        return GnsOperator(self.box, new_terms)

    def scaled(self, factor: complex) -> "GnsOperator":
        return GnsOperator(self.box,
                           {s: factor * t for s, t in self.terms.items()})

    def __add__(self, other: "GnsOperator") -> "GnsOperator":
        if other.box != self.box:
            raise ValueError("operator boxes differ")
        terms = {s: t.copy() for s, t in self.terms.items()}
        for s, t in other.terms.items():
            terms[s] = terms.get(s, 0) + t
        return GnsOperator(self.box, terms)

    def __sub__(self, other: "GnsOperator") -> "GnsOperator":
        return self + other.scaled(-1.0)

    def dense(self) -> np.ndarray:
        """Dense matrix in the ``basis_vector`` ordering (blocks outer)."""
        box = self.box
        nb, nm = box.n_blocks, box.n_modes
        out = np.zeros((nb, nm, nb, nm), dtype=complex)
        for s, mult in self.terms.items():
            hats = spectrum(mult)
            for i in range(max(0, s), min(nb, nb + s)):
                out[i, :, i - s, :] = toeplitz(hats[i], box.mode_bound)
        return out.reshape(box.dim, box.dim)

    def norm_estimate(self) -> float:
        """Spectral norm of the dense truncation."""
        return float(np.linalg.norm(self.dense(), ord=2))


def represent(f: WeylElement, d: DiffeoSpec, box: TruncationBox) -> GnsOperator:
    """Image of a coefficient table in the block representation.

    Each shift row is one product ``(twist * coeffs) @ waves`` of the
    (2K + 1, n_m) table ``exp(2 pi i alpha m (2 n - s))`` and the
    (n_m, G) table ``exp(i m psi)`` over the row's modes m.
    """
    if f.alpha != d.alpha:
        raise AlphaMismatchError(
            f"element alpha {f.alpha!r} does not match dynamics {d.alpha!r}")
    ctx = _context(d, box)
    terms: dict[int, np.ndarray] = {}
    blocks = box.blocks()
    for s, ms, coeffs in f.rows():
        if abs(s) > 2 * box.block_bound:
            warnings.warn(
                f"shift {s} exceeds the block range; term dropped",
                stacklevel=2)
            continue
        twist = _waves(d.alpha, np.multiply.outer(2 * blocks - s, ms))
        waves = np.exp(1j * np.multiply.outer(ms, ctx.psi))
        terms[s] = (twist * coeffs) @ waves
    return GnsOperator(box, terms)


def conjugator_mode_table(d: DiffeoSpec, l: int, mode_bound: int) -> np.ndarray:
    """Fourier coefficients of ``h^l`` for modes ``-mode_bound..mode_bound``."""
    g = default_grid_size(mode_bound)
    x = np.arange(g) / g
    values = np.exp(2j * np.pi * l * d.lift.value(x))
    return project_to_modes(values, mode_bound).coeffs


@lru_cache(maxsize=None)
def _u_kl_cached(d: DiffeoSpec, box: TruncationBox, k: int,
                 l: int) -> GnsOperator:
    ctx = _context(d, box)
    # F_j = H(u + 2 alpha j) is H(u + frac(2 alpha j)) plus an integer,
    # which l times drops out of the exponential.
    shift = _cycles(2.0 * d.alpha, box.blocks() - k)
    lift = d.lift.value(ctx.u[None, :] + shift[:, None])
    return GnsOperator(box, {k: np.exp(2j * np.pi * l * lift)})


def build_u_kl(d: DiffeoSpec, box: TruncationBox, k: int,
               l: int) -> GnsOperator:
    """Unitary generator pair product ``u_kl = W(0, k) * h^l``, represented.

    Its only shift is k, and row n of that shift is the closed-form
    multiplier ``exp(2 pi i l F_{n-k}(x))`` with ``F_j = H(u + 2 alpha j)``
    in the chart ``u = H^{-1}(x)``; no series is truncated.
    """
    return _u_kl_cached(d, box, int(k), int(l))


@lru_cache(maxsize=8)
def _state_chart(lift: ConjugatorLift, size: int) -> np.ndarray:
    u = lift.inverse(np.arange(size) / size)
    u.flags.writeable = False
    return u


def state_coefficients(d: DiffeoSpec, mode_bound: int,
                       size: int = 8192) -> np.ndarray:
    """Moments ``mu(m) = integral exp(2 pi i m h^{-1}(x)) dx``.

    Indexed ``-mode_bound .. mode_bound``; these are the coefficients of
    the invariant state on the first generator row.  The ``size``-point
    inverse solve is cached per lift, independent of any box grid.
    """
    u = _state_chart(d.lift, size)
    ms = np.arange(-mode_bound, mode_bound + 1)
    return np.exp(2j * np.pi * np.multiply.outer(ms, u)).mean(axis=1)


def state_eval(f: WeylElement, d: DiffeoSpec, route: str = "series",
               box: TruncationBox | None = None) -> complex:
    """Invariant state applied to a table, by series or by inner product.

    The series route contracts the ``n = 0`` row of the table against
    the moment sequence; the gns route represents the element on a box
    and takes the vacuum expectation.  The two agree within quadrature
    accuracy and are compared in the verification suite.
    """
    if route == "series":
        radius = int(np.abs(f.keys[:, 0]).max(initial=0))
        mu = state_coefficients(d, radius)
        row = f.keys[:, 1] == 0
        return complex(sum(f.values[row] * mu[f.keys[row, 0] + radius]))
    if route == "gns":
        if box is None:
            k = max(1, int(np.abs(f.keys[:, 1]).max(initial=0)))
            m = max(1, f.sup_radius)
            box = TruncationBox(k, m)
        xi = vacuum(box)
        return represent(f, d, box).apply(xi).inner(xi)
    raise ValueError(f"unknown route {route!r}")
