"""Finitely supported coefficient tables over the deformed torus algebra.

An element is a finite sum ``sum f(m, n) W(m, n)`` where the symbols
multiply by ``W(a) W(b) = exp(2 pi i alpha sigma(a, b)) W(a + b)`` with
``sigma((m, n), (M, N)) = m N - M n``.  The table operations below (star
product, involution, trace, coefficient extraction) are the abstract
side of everything the representation modules compute concretely.
"""

from __future__ import annotations

from itertools import chain
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


def _as_pair(key) -> SymplecticPair:
    m, n = key
    return SymplecticPair(int(m), int(n))


class WeylElement:
    """Finitely supported table ``(m, n) -> complex`` at a fixed alpha."""

    __slots__ = ("alpha", "_table")

    def __init__(self, alpha: float,
                 coeffs: Mapping | Iterable[tuple] = ()):
        self.alpha = float(alpha)
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        table: dict[SymplecticPair, complex] = {}
        for key, value in items:
            value = complex(value)
            if value != 0:
                table[_as_pair(key)] = table.get(_as_pair(key), 0.0) + value
        self._table = table

    @classmethod
    def _from_arrays(cls, alpha: float, keys: np.ndarray,
                     values: np.ndarray) -> "WeylElement":
        """Table from distinct (N, 2) integer keys, skipping per-key checks."""
        table = dict(zip(map(SymplecticPair._make, keys.tolist()),
                         values.tolist()))
        if not values.all():
            table = {p: v for p, v in table.items() if v != 0}
        out = cls.__new__(cls)
        out.alpha = float(alpha)
        out._table = table
        return out

    @classmethod
    def unit(cls, alpha: float) -> "WeylElement":
        return cls(alpha, {(0, 0): 1.0})

    @classmethod
    def generator(cls, alpha: float, m: int, n: int) -> "WeylElement":
        return cls(alpha, {(m, n): 1.0})

    def support(self) -> list[SymplecticPair]:
        return sorted(self._table)

    def items(self):
        return self._table.items()

    def __getitem__(self, key) -> complex:
        return self._table.get(_as_pair(key), 0.0 + 0.0j)

    def __len__(self) -> int:
        return len(self._table)

    @property
    def sup_radius(self) -> int:
        """Largest ``max(|m|, |n|)`` over the support (0 when empty)."""
        return max((max(abs(p.m), abs(p.n)) for p in self._table), default=0)

    def shift_support(self) -> list[int]:
        """Sorted distinct second indices in the support."""
        return sorted({p.n for p in self._table})

    def scaled(self, factor: complex) -> "WeylElement":
        return WeylElement(self.alpha,
                           {p: factor * v for p, v in self._table.items()})

    def __add__(self, other: "WeylElement") -> "WeylElement":
        _check_alpha(self, other)
        out = dict(self._table)
        for p, v in other._table.items():
            out[p] = out.get(p, 0.0) + v
        return WeylElement(self.alpha, out)

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + other.scaled(-1.0)

    def to_dict(self) -> dict:
        coeffs = [{"m": p.m, "n": p.n, "re": v.real, "im": v.imag}
                  for p, v in sorted(self._table.items())]
        return {"alpha": self.alpha, "coeffs": coeffs}

    @classmethod
    def from_dict(cls, data: dict) -> "WeylElement":
        table = {(int(c["m"]), int(c["n"])): complex(c["re"], c.get("im", 0.0))
                 for c in data["coeffs"]}
        return cls(float(data["alpha"]), table)

    def __repr__(self) -> str:
        return (f"WeylElement(alpha={self.alpha!r}, "
                f"{len(self._table)} coefficients)")


def _support_arrays(f: WeylElement) -> tuple[np.ndarray, np.ndarray]:
    """Keys as an (N, 2) integer array and values as a complex array."""
    n = len(f._table)
    keys = np.fromiter(chain.from_iterable(f._table), dtype=np.int64,
                       count=2 * n).reshape(n, 2)
    return keys, np.fromiter(f._table.values(), dtype=complex, count=n)


def _check_alpha(f: WeylElement, g: WeylElement) -> None:
    if f.alpha != g.alpha:
        raise AlphaMismatchError(
            f"alpha values {f.alpha!r} and {g.alpha!r} differ")


def star_product(f: WeylElement, g: WeylElement) -> WeylElement:
    """Twisted convolution realizing the symbol product.

    All pair phases are one array over the two supports.  Products that
    land on the same lattice point are summed by a scatter-add on a
    linear index of the sums, in the order of the double loop over
    ``f`` then ``g``.  Cost and memory are O(|f| |g|), however far
    apart the supports lie.
    """
    _check_alpha(f, g)
    if not len(f) or not len(g):
        return WeylElement(f.alpha)
    a, fa = _support_arrays(f)
    b, gb = _support_arrays(g)
    form = (np.multiply.outer(a[:, 1], b[:, 0])
            - np.multiply.outer(a[:, 0], b[:, 1]))
    phase = np.exp(-1j * (2.0 * np.pi * f.alpha) * form)
    values = (np.multiply.outer(fa, gb) * phase).ravel()
    keys = (a[:, None, :] + b[None, :, :]).reshape(-1, 2)
    lo = keys.min(axis=0)
    width = keys[:, 1].max() - lo[1] + 1
    linear, slot = np.unique((keys[:, 0] - lo[0]) * width
                             + (keys[:, 1] - lo[1]), return_inverse=True)
    sums = (np.bincount(slot, values.real, len(linear))
            + 1j * np.bincount(slot, values.imag, len(linear)))
    keys = np.stack([linear // width + lo[0], linear % width + lo[1]], axis=1)
    return WeylElement._from_arrays(f.alpha, keys, sums)


def involution(f: WeylElement) -> WeylElement:
    """Adjoint table ``f*(a) = conj(f(-a))``."""
    return WeylElement(f.alpha, {SymplecticPair(-p.m, -p.n): np.conj(v)
                                 for p, v in f.items()})


def trace(f: WeylElement) -> complex:
    """Canonical trace, the coefficient at the origin."""
    return f[(0, 0)]


def abstract_fourier_coeff(f: WeylElement, m: int, n: int) -> complex:
    """Coefficient recovery; equals ``trace(generator(-m,-n) * f)``."""
    return f[(m, n)]


def table_distance(f: WeylElement, g: WeylElement) -> float:
    """Sup over the joint support of the coefficient difference."""
    _check_alpha(f, g)
    keys = f._table.keys() | g._table.keys()
    if not keys:
        return 0.0
    return float(np.max([abs(f[k] - g[k]) for k in keys]))


def weyl_relation_check(alpha: float, pairs: Iterable[tuple]) -> float:
    """Deviation of generator products from the exponential relation.

    For each pair of lattice points the star product of the two
    generators must be a single coefficient ``exp(2 pi i alpha
    sigma(a, b))`` at ``a + b``.
    """
    worst = 0.0
    for a_key, b_key in pairs:
        a, b = _as_pair(a_key), _as_pair(b_key)
        product = star_product(WeylElement.generator(alpha, *a),
                               WeylElement.generator(alpha, *b))
        expected = WeylElement(alpha, {
            (a.m + b.m, a.n + b.n):
            np.exp(2j * np.pi * alpha * a.form(b))})
        worst = np.maximum(worst, table_distance(product, expected))
    return float(worst)


def random_element(rng: np.random.Generator, alpha: float, radius: int,
                   decay: float = 0.0, scale: float = 1.0) -> WeylElement:
    """Dense random table on the box ``|m|, |n| <= radius``.

    ``decay`` damps coefficients by ``(1 + |m| + |n|)^-decay`` so smooth
    test elements are easy to draw.
    """
    table = {}
    for m in range(-radius, radius + 1):
        for n in range(-radius, radius + 1):
            z = complex(rng.standard_normal(), rng.standard_normal())
            table[(m, n)] = scale * z / (1.0 + abs(m) + abs(n)) ** decay
    return WeylElement(alpha, table)


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
    rows: dict[int, dict[int, complex]] = {}
    for p, v in f.items():
        rows.setdefault(p.n, {})[p.m] = v
    worst = 0.0
    for n, row in rows.items():
        base = psi - 2.0 * np.pi * d.alpha * n
        values = np.zeros(size, dtype=complex)
        for m, v in row.items():
            values += v * np.exp(1j * m * base)
        if l_deriv:
            values = spectral_derivative(values, order=l_deriv)
        worst = np.maximum(worst, (abs(n) + 1) ** k_weight
                           * float(np.max(np.abs(values))))
    return float(worst)
