"""Finitely supported coefficient tables over the deformed torus algebra.

An element is a finite sum ``sum f(m, n) W(m, n)`` where the symbols
multiply by ``W(a) W(b) = exp(2 pi i alpha sigma(a, b)) W(a + b)`` with
``sigma((m, n), (M, N)) = m N - M n``.  The table operations below (star
product, involution, trace, coefficient extraction) are the abstract
side of everything the representation modules compute concretely.
A table is two arrays, sorted distinct keys and their nonzero values,
and every element is built by one reducer, :func:`_reduce`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .dynamics import DiffeoSpec
from .errors import AlphaMismatchError
from .grids import default_grid_size, grid_angles, spectral_derivative


class SymplecticPair(NamedTuple):
    m: int
    n: int

    def form(self, other: "SymplecticPair") -> int:
        """Standard symplectic form ``m N - M n``."""
        return self.m * other.n - other.m * self.n


def _reduce(keys: np.ndarray,
            values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (N, 2) keys sorted by (m, n) and their nonzero values.

    Coinciding keys are summed by a scatter-add on a linear index of the
    keys' ranks (which cannot overflow, however far apart the keys lie),
    in input order; exact zeros are dropped and NaN is kept.
    """
    ms, m_rank = np.unique(keys[:, 0], return_inverse=True)
    ns, n_rank = np.unique(keys[:, 1], return_inverse=True)
    linear, slot = np.unique(m_rank * len(ns) + n_rank, return_inverse=True)
    sums = np.empty(len(linear), dtype=complex)
    sums.real = np.bincount(slot, values.real, len(linear))
    sums.imag = np.bincount(slot, values.imag, len(linear))
    keep = sums != 0
    keys = np.stack([ms[linear[keep] // len(ns)],
                     ns[linear[keep] % len(ns)]], axis=1)
    values = sums[keep]
    keys.flags.writeable = values.flags.writeable = False
    return keys, values


def _element(alpha: float, keys: np.ndarray,
             values: np.ndarray) -> "WeylElement":
    out = WeylElement.__new__(WeylElement)
    out.alpha = float(alpha)
    out.keys, out.values = _reduce(keys, values)
    return out


class WeylElement:
    """Finitely supported table ``(m, n) -> complex`` at a fixed alpha.

    ``keys`` (N, 2) int64 sorted by (m, n) and ``values`` complex, both
    read-only.  ``coeffs`` maps ``(m, n)`` to values, or lists
    ``((m, n), value)`` pairs whose repeated keys are summed.
    """

    __slots__ = ("alpha", "keys", "values")

    def __init__(self, alpha: float,
                 coeffs: Mapping | Iterable[tuple] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        pairs = [((int(m), int(n)), complex(v)) for (m, n), v in items]
        self.alpha = float(alpha)
        self.keys, self.values = _reduce(
            np.array([k for k, _ in pairs], dtype=np.int64).reshape(-1, 2),
            np.array([v for _, v in pairs], dtype=complex))

    @classmethod
    def unit(cls, alpha: float) -> "WeylElement":
        return cls(alpha, {(0, 0): 1.0})

    @classmethod
    def generator(cls, alpha: float, m: int, n: int) -> "WeylElement":
        return cls(alpha, {(m, n): 1.0})

    def support(self) -> list[SymplecticPair]:
        return list(map(SymplecticPair._make, self.keys.tolist()))

    def items(self) -> list[tuple[SymplecticPair, complex]]:
        """``(SymplecticPair, complex)`` pairs in key order."""
        return list(zip(self.support(), self.values.tolist()))

    def __getitem__(self, key) -> complex:
        m, n = key
        hit = (self.keys[:, 0] == int(m)) & (self.keys[:, 1] == int(n))
        return complex(self.values[hit].sum())

    def __len__(self) -> int:
        return len(self.values)

    @property
    def sup_radius(self) -> int:
        """Largest ``max(|m|, |n|)`` over the support (0 when empty)."""
        return int(np.abs(self.keys).max(initial=0))

    def shift_support(self) -> list[int]:
        """Sorted distinct second indices in the support."""
        return sorted(set(self.keys[:, 1].tolist()))

    def rows(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """``(n, ms, coeffs)`` per second index n, both n and ms ascending."""
        ns = self.keys[:, 1]
        return [(n, self.keys[ns == n, 0], self.values[ns == n])
                for n in self.shift_support()]

    def scaled(self, factor: complex) -> "WeylElement":
        return _element(self.alpha, self.keys, factor * self.values)

    def __add__(self, other: "WeylElement") -> "WeylElement":
        _check_alpha(self, other)
        return _element(self.alpha, np.concatenate([self.keys, other.keys]),
                        np.concatenate([self.values, other.values]))

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + other.scaled(-1.0)

    def to_dict(self) -> dict:
        coeffs = [{"m": p.m, "n": p.n, "re": v.real, "im": v.imag}
                  for p, v in self.items()]
        return {"alpha": self.alpha, "coeffs": coeffs}

    @classmethod
    def from_dict(cls, data: dict) -> "WeylElement":
        table = {(int(c["m"]), int(c["n"])): complex(c["re"], c.get("im", 0.0))
                 for c in data["coeffs"]}
        return cls(float(data["alpha"]), table)

    def __repr__(self) -> str:
        return f"WeylElement(alpha={self.alpha!r}, {len(self)} coefficients)"


def _check_alpha(f: WeylElement, g: WeylElement) -> None:
    if f.alpha != g.alpha:
        raise AlphaMismatchError(
            f"alpha values {f.alpha!r} and {g.alpha!r} differ")


def star_product(f: WeylElement, g: WeylElement) -> WeylElement:
    """Twisted convolution realizing the symbol product.

    All pair phases are one array over the two supports, and the pair
    products are reduced like any table: products that land on the same
    lattice point are summed in the order of the double loop over ``f``
    then ``g``.  Cost and memory are O(|f| |g|), however far apart the
    supports lie.
    """
    _check_alpha(f, g)
    a, b = f.keys, g.keys
    form = (np.multiply.outer(a[:, 1], b[:, 0])
            - np.multiply.outer(a[:, 0], b[:, 1]))
    phase = np.exp(-1j * (2.0 * np.pi * f.alpha) * form)
    values = np.multiply.outer(f.values, g.values) * phase
    keys = a[:, None, :] + b[None, :, :]
    return _element(f.alpha, keys.reshape(-1, 2), values.ravel())


def involution(f: WeylElement) -> WeylElement:
    """Adjoint table ``f*(a) = conj(f(-a))``."""
    return _element(f.alpha, -f.keys, np.conj(f.values))


def trace(f: WeylElement) -> complex:
    """Canonical trace, the coefficient at the origin."""
    return f[(0, 0)]


def abstract_fourier_coeff(f: WeylElement, m: int, n: int) -> complex:
    """Coefficient recovery; equals ``trace(generator(-m,-n) * f)``."""
    return f[(m, n)]


def table_distance(f: WeylElement, g: WeylElement) -> float:
    """Sup of the coefficient difference (NaN when a coefficient is)."""
    return float(np.max(np.abs((f - g).values), initial=0.0))


def weyl_relation_check(alpha: float, pairs: Iterable[tuple]) -> float:
    """Deviation of generator products from the exponential relation.

    With fixed-seed unimodular weights c_a, d_b on the distinct left and
    right points, the one star product of ``sum c_a W(a)`` and
    ``sum d_b W(b)`` must equal ``c_a d_b exp(2 pi i alpha sigma(a, b))``
    scattered onto ``a + b`` without the table reducer; the weights make
    cancellation of a wrong term a measure-zero event.  A pair list that
    is not a full product is checked over the superset of combinations.
    """
    pairs = np.array(list(pairs), dtype=np.int64).reshape(-1, 2, 2)
    rng = np.random.default_rng(20190)
    left, right = (_reduce(pairs[:, i], np.ones(len(pairs)))[0]
                   for i in (0, 1))
    f = _element(alpha, left, np.exp(2j * np.pi * rng.random(len(left))))
    g = _element(alpha, right, np.exp(2j * np.pi * rng.random(len(right))))
    product = star_product(f, g)
    form = (np.multiply.outer(f.keys[:, 0], g.keys[:, 1])
            - np.multiply.outer(f.keys[:, 1], g.keys[:, 0]))
    terms = (np.multiply.outer(f.values, g.values)
             * np.exp(2j * np.pi * alpha * form))
    sums = (f.keys[:, None, :] + g.keys[None, :, :]).reshape(-1, 2)
    points, slot = np.unique(np.concatenate([sums, product.keys]), axis=0,
                             return_inverse=True)
    deviation = np.zeros(len(points), dtype=complex)
    np.add.at(deviation, slot[:len(sums)], terms.ravel())
    np.subtract.at(deviation, slot[len(sums):], product.values)
    return float(np.max(np.abs(deviation), initial=0.0))


def random_element(rng: np.random.Generator, alpha: float, radius: int,
                   decay: float = 0.0, scale: float = 1.0) -> WeylElement:
    """Dense random table on the box ``|m|, |n| <= radius``.

    ``decay`` damps coefficients by ``(1 + |m| + |n|)^-decay`` so smooth
    test elements are easy to draw.
    """
    span = range(-radius, radius + 1)
    return WeylElement(alpha, [
        ((m, n), scale * complex(rng.standard_normal(), rng.standard_normal())
         / (1.0 + abs(m) + abs(n)) ** decay)
        for m in span for n in span])


def smooth_seminorm(f: WeylElement, d: DiffeoSpec, k_weight: int,
                    l_deriv: int, size: int | None = None) -> float:
    """Weighted sup seminorm of the symbol rows in the rotated chart.

    Row ``n`` of the table defines ``g_n(u) = sum_m f(m, n) u^m``; the
    seminorm takes ``sup_n (|n| + 1)^k_weight`` times the sup norm of
    the ``l_deriv``-th angular derivative of ``g_n`` composed with the
    rotated inverse chart ``R_alpha^{-n} h^{-1}``.
    """
    if f.alpha != d.alpha:
        raise AlphaMismatchError(
            f"element alpha {f.alpha!r} does not match dynamics {d.alpha!r}")
    if not len(f):
        return 0.0
    if size is None:
        size = max(2048, default_grid_size(f.sup_radius))
    theta = grid_angles(size)
    psi = 2.0 * np.pi * d.lift.inverse(theta / (2.0 * np.pi))
    worst = 0.0
    for n, ms, coeffs in f.rows():
        base = psi - 2.0 * np.pi * d.alpha * n
        values = coeffs @ np.exp(1j * np.multiply.outer(ms, base))
        if l_deriv:
            values = spectral_derivative(values, order=l_deriv)
        worst = np.maximum(worst, (abs(n) + 1) ** k_weight
                           * float(np.max(np.abs(values))))
    return float(worst)
