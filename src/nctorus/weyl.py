"""Finitely supported coefficient tables over the deformed torus algebra.

An element is a finite sum ``sum f(m, n) W(m, n)`` where the symbols
multiply by ``W(a) W(b) = exp(2 pi i alpha sigma(a, b)) W(a + b)`` with
``sigma((m, n), (M, N)) = m N - M n``.  The table operations below (star
product, involution, trace, coefficient extraction) are the abstract
side of everything the representation modules compute concretely.
A table is two arrays, sorted distinct keys and their nonzero values.
Arbitrary keys go through one reducer, :func:`_reduce`; tables whose
keys are already sorted and distinct (random, scaled, adjoint) skip the
sort, and the star product sorts its pair sums once per product.
The twist ``exp(2 pi i alpha sigma)`` is ``grids.waves(alpha, sigma)``:
``alpha sigma`` is reduced modulo 1 exactly before it is rounded, so
far keys keep their phase, and :func:`weyl_relation_check` holds it
against phases of its own, reduced in exact integer arithmetic.

The random draw, the star product, the adjoint and the table distance
work on a :class:`_Stack`, many tables over one support with an exactly
zero value for an absent key, with a leading table axis; the per-table
functions are their stacks of one.  A verify suite that draws its
probes as one stack thus takes the normals in the order of one draw per
table, builds one plan per product, and gets each table with the bits
of the per-table call.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .dynamics import DiffeoSpec
from .errors import AlphaMismatchError, _json_keys, _json_number
from .grids import default_grid_size, spectral_derivative, waves


class SymplecticPair(NamedTuple):
    m: int
    n: int

    def form(self, other: "SymplecticPair") -> int:
        """Standard symplectic form ``m N - M n``."""
        return self.m * other.n - other.m * self.n


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slot of each key among the distinct keys, and those keys sorted
    by (m, n).

    One stable sort by (m, n) marks where each run of coinciding keys
    starts; no arithmetic touches the keys, so none can overflow,
    however far apart they lie.
    """
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    ranked = keys[order]
    start = np.ones(len(order), dtype=bool)
    start[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    slot = np.empty(len(order), dtype=np.intp)
    slot[order] = np.cumsum(start) - 1
    return slot, ranked[start]


def _sum_runs(slot: np.ndarray, size: int,
              values: np.ndarray) -> np.ndarray:
    """Scatter-add of ``values`` onto ``size`` slots, in input order."""
    sums = np.empty(size, dtype=complex)
    sums.real = np.bincount(slot, values.real, size)
    sums.imag = np.bincount(slot, values.imag, size)
    return sums


# Keys lie within +-_KEY_BOUND, so negating one or summing two stays in
# int64; a table with a key outside raises instead of wrapping.
_KEY_BOUND = 2**62 - 1


def _check_keys(low, high) -> None:
    """Raise unless the least and the greatest key lie within the bound."""
    for key in map(int, (low, high)):
        if abs(key) > _KEY_BOUND:
            raise ValueError(f"Weyl key {key} outside +-(2**62 - 1)")


def _nonzero(keys: np.ndarray,
             values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only copies of the entries whose value is not exactly zero.

    Adding 0.0 turns a -0.0 part into 0.0, as the scatter-add from zero
    does, so a table built without the reducer has the reducer's bits;
    NaN is kept.  Every table is built here, so every key is checked
    against the key bound here.
    """
    _check_keys(keys.min(initial=0), keys.max(initial=0))
    values = values + 0.0
    keep = values != 0
    keys, values = keys[keep], values[keep]
    keys.flags.writeable = values.flags.writeable = False
    return keys, values


def _reduce(keys: np.ndarray,
            values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Table of arbitrary (N, 2) keys: distinct keys sorted by (m, n)
    and the nonzero sums of their values, read-only."""
    slot, distinct = _runs(keys)
    return _nonzero(distinct, _sum_runs(slot, len(distinct), values))


def _element(alpha: float,
             table: tuple[np.ndarray, np.ndarray]) -> "WeylElement":
    out = WeylElement.__new__(WeylElement)
    out.alpha = float(alpha)
    out.keys, out.values = table
    return out


class _Stack(NamedTuple):
    """Tables over one support: ``values[i]`` are the values of table i
    at the sorted distinct ``keys``, an exactly zero value standing for
    an absent key, as a table holds none."""

    alpha: float
    keys: np.ndarray
    values: np.ndarray

    def take(self, index) -> "_Stack":
        """The tables ``values[index]`` (a slice), over the same keys."""
        return _Stack(self.alpha, self.keys, self.values[index])

    def element(self, i: int) -> "WeylElement":
        """Table i, its absent keys dropped."""
        return _element(self.alpha, _nonzero(self.keys, self.values[i]))

    def coefficient(self, m: int, n: int) -> np.ndarray:
        """Each table's value at the key (m, n), zero when it is absent."""
        hit = (self.keys[:, 0] == m) & (self.keys[:, 1] == n)
        return self.values[:, hit].sum(axis=1)


def _stack_of(f: "WeylElement") -> _Stack:
    """A table as a stack of one."""
    return _Stack(f.alpha, f.keys, f.values[None])


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
        flat = [i for key, _ in pairs for i in key]
        _check_keys(min(flat, default=0), max(flat, default=0))
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
        return _element(self.alpha, _nonzero(self.keys, factor * self.values))

    def __add__(self, other: "WeylElement") -> "WeylElement":
        _check_alpha(self, other)
        return _element(self.alpha, _reduce(
            np.concatenate([self.keys, other.keys]),
            np.concatenate([self.values, other.values])))

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + other.scaled(-1.0)

    def to_dict(self) -> dict:
        coeffs = [{"m": p.m, "n": p.n, "re": v.real, "im": v.imag}
                  for p, v in self.items()]
        return {"alpha": self.alpha, "coeffs": coeffs}

    @classmethod
    def from_dict(cls, data: dict) -> "WeylElement":
        """Inverse of :meth:`to_dict`; a value of the wrong JSON type or an
        unread key raises ``ValueError``, a missing key ``KeyError``."""
        _json_keys(data, ("alpha", "coeffs"), "element", required=2)
        coeffs = data["coeffs"]
        if not (isinstance(coeffs, list)
                and all(isinstance(c, dict) for c in coeffs)):
            raise ValueError(f"element coeffs must be a list of objects, "
                             f"got {coeffs!r}")
        for c in coeffs:
            _json_keys(c, ("m", "n", "re", "im"), "coefficient", required=3)
        table = {(_json_number(c["m"], "coefficient m", int),
                  _json_number(c["n"], "coefficient n", int)):
                 complex(_json_number(c["re"], "coefficient re"),
                         _json_number(c.get("im", 0.0), "coefficient im"))
                 for c in coeffs}
        return cls(_json_number(data["alpha"], "element alpha"), table)

    def __repr__(self) -> str:
        return f"WeylElement(alpha={self.alpha!r}, {len(self)} coefficients)"


def _check_alpha(f: WeylElement, g: WeylElement) -> None:
    if f.alpha != g.alpha:
        raise AlphaMismatchError(
            f"alpha values {f.alpha!r} and {g.alpha!r} differ")


def _plan(alpha: float, a: np.ndarray,
          b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(phase, slot, keys)`` of the products of two (N, 2) supports.

    ``phase`` (|a|, |b|) holds the pair twists
    ``exp(2 pi i alpha sigma(a, b))``, ``slot`` the place of each pair
    sum among the distinct sums ``keys``, in the order of the double
    loop over ``a`` then ``b``.  ``alpha sigma`` is reduced modulo 1
    exactly (``grids.cycles``) before it is rounded, so far keys keep
    their phase; only sigma modulo 2^64 counts there, so the int64 form
    may wrap.  The pair sums are sorted before sigma and the phases
    are formed, so no pair table is alive beside the sort's own.
    """
    slot, keys = _runs((a[:, None, :] + b[None, :, :]).reshape(-1, 2))
    sigma = (np.multiply.outer(a[:, 0], b[:, 1])
             - np.multiply.outer(a[:, 1], b[:, 0]))
    return waves(alpha, sigma), slot, keys


# Pair terms per chunk of a stacked star product: a few MB of transient
# arrays, however many tables the stack holds.
_CHUNK_PAIRS = 1 << 14


def _star_stack(f: _Stack, g: _Stack) -> _Stack:
    """Star products ``f_i g_i`` of two stacks, a stack of one on either
    side broadcast against the other, over the distinct pair sums.

    The pair twists and sum slots come from one :func:`_plan`, and one
    scatter-add over (table, slot) per chunk of tables sums every table
    in the order of the double loop over ``f`` then ``g``, as the
    product of two tables does.  A pair with an absent key adds nothing:
    its term is set to zero, since zero times a NaN would not be.
    """
    _check_alpha(f, g)
    phase, slot, keys = _plan(f.alpha, f.keys, g.keys)
    count = len(f.values) if len(g.values) == 1 else len(g.values)
    step = max(1, _CHUNK_PAIRS // max(phase.size, 1))
    sums = np.empty((count, len(keys)), dtype=complex)
    for lo in range(0, count, step):
        part = slice(lo, lo + step)
        left = f.values[part if len(f.values) > 1 else slice(None), :, None]
        right = g.values[part if len(g.values) > 1 else slice(None), None, :]
        if len(f.values) == len(g.values) == 1:
            # the two-table product in its own shapes: numpy rounds a
            # lone 1 x 1 complex product without FMA, a stacked one with it
            terms = (np.multiply.outer(left[0, :, 0], right[0, 0])
                     * phase)[None]
        else:
            terms = left * right
            np.multiply(terms, phase, out=terms)
        if not (left.all() and right.all()):
            terms[(left == 0) | (right == 0)] = 0.0
        where = (np.arange(len(terms))[:, None] * len(keys) + slot).ravel()
        sums[part] = _sum_runs(where, len(terms) * len(keys),
                               terms.ravel()).reshape(len(terms), len(keys))
    return _Stack(f.alpha, keys, sums)


def star_product(f: WeylElement, g: WeylElement) -> WeylElement:
    """Twisted convolution realizing the symbol product.

    The pair phases and the places of the pair sums depend only on the
    two supports and alpha; :func:`_plan` builds them for this product,
    which drops them when it returns.  Products that land on the same
    lattice point are summed in the order of the double loop over ``f``
    then ``g``.  Cost and memory are O(|f| |g|), however far apart the
    supports lie.  The stack of one of :func:`_star_stack`.
    """
    return _star_stack(_stack_of(f), _stack_of(g)).element(0)


def _involution_stack(f: _Stack) -> _Stack:
    """Adjoint tables ``f_i*(a) = conj(f_i(-a))``; negating the sorted keys
    and reversing them keeps them sorted."""
    return _Stack(f.alpha, -f.keys[::-1], np.conj(f.values[:, ::-1]) + 0.0)


def involution(f: WeylElement) -> WeylElement:
    """Adjoint table, the stack of one of :func:`_involution_stack`."""
    return _involution_stack(_stack_of(f)).element(0)


def trace(f: WeylElement) -> complex:
    """Canonical trace, the coefficient at the origin."""
    return f[(0, 0)]


def abstract_fourier_coeff(f: WeylElement, m: int, n: int) -> complex:
    """Coefficient recovery; equals ``trace(generator(-m,-n) * f)``."""
    return f[(m, n)]


def _distances(f: _Stack, g: _Stack) -> np.ndarray:
    """Sup of the coefficient differences ``f_i - g_i`` of two stacks over
    the union of their supports (NaN when a coefficient is)."""
    _check_alpha(f, g)
    slot, keys = _runs(np.concatenate([f.keys, g.keys]))
    diff = np.zeros((max(len(f.values), len(g.values)), len(keys)),
                    dtype=complex)
    diff[:, slot[:len(f.keys)]] = f.values
    diff[:, slot[len(f.keys):]] -= g.values
    return np.max(np.abs(diff), axis=1, initial=0.0)


def weyl_relation_check(alpha: float, pairs: Iterable[tuple]) -> float:
    """Deviation of generator products from the exponential relation.

    With fixed-seed unimodular weights c_a, d_b on the distinct left and
    right points, the one star product of ``sum c_a W(a)`` and
    ``sum d_b W(b)`` must equal ``c_a d_b exp(2 pi i alpha sigma(a, b))``
    scattered onto ``a + b`` without the table reducer; the weights make
    cancellation of a wrong term a measure-zero event.  The phases are
    independent of the star product's: sigma in Python integers and,
    with ``alpha = p / q`` exactly, ``(p sigma mod q) / q`` in integer
    arithmetic, rounded once, for each distinct sigma.  A pair list that
    is not a full product is checked over the superset of combinations.
    """
    pairs = np.array(list(pairs), dtype=np.int64).reshape(-1, 2, 2)
    rng = np.random.default_rng(20190)
    left, right = (_runs(pairs[:, i])[1] for i in (0, 1))
    f = _element(alpha, _nonzero(left, waves(rng.random(len(left)), 1)))
    g = _element(alpha, _nonzero(right, waves(rng.random(len(right)), 1)))
    product = star_product(f, g)
    sigma = [[m * nn - mm * n for mm, nn in g.keys.tolist()]
             for m, n in f.keys.tolist()]
    p, q = float(alpha).as_integer_ratio()
    turns = {s: p * s % q / q for s in set().union(*sigma)}
    phase = waves(np.array([[turns[s] for s in row] for row in sigma],
                           dtype=float).reshape(len(f), len(g)), 1)
    terms = np.multiply.outer(f.values, g.values) * phase
    sums = (f.keys[:, None, :] + g.keys[None, :, :]).reshape(-1, 2)
    points, slot = np.unique(np.concatenate([sums, product.keys]), axis=0,
                             return_inverse=True)
    deviation = np.zeros(len(points), dtype=complex)
    np.add.at(deviation, slot[:len(sums)], terms.ravel())
    np.subtract.at(deviation, slot[len(sums):], product.values)
    return float(np.max(np.abs(deviation), initial=0.0))


def _random_stack(rng: np.random.Generator, alpha: float, radius: int,
                  count: int, decay: float = 0.0,
                  scale: float = 1.0) -> _Stack:
    """``count`` dense random tables on the box ``|m|, |n| <= radius``.

    The keys are built in (m, n) order, and one draw of (table, key,
    real/imaginary) normals takes them in the order ``count`` calls of
    :func:`random_element` would; each part is divided by its damping on
    its own, as a complex by a real number divides in Python.
    """
    span = np.arange(-radius, radius + 1)
    keys = np.stack([np.repeat(span, len(span)), np.tile(span, len(span))],
                    axis=1)
    _check_keys(-radius, radius)
    draws = scale * rng.standard_normal((count, len(keys), 2))
    damping = np.array([(1.0 + s) ** decay for s in range(2 * radius + 1)])
    weights = damping[np.abs(keys).sum(axis=1)]
    values = np.empty((count, len(keys)), dtype=complex)
    values.real = draws[..., 0] / weights + 0.0
    values.imag = draws[..., 1] / weights + 0.0
    keys.flags.writeable = False
    return _Stack(float(alpha), keys, values)


def random_element(rng: np.random.Generator, alpha: float, radius: int,
                   decay: float = 0.0, scale: float = 1.0) -> WeylElement:
    """Dense random table on the box ``|m|, |n| <= radius``.

    ``decay`` damps coefficients by ``(1 + |m| + |n|)^-decay`` so smooth
    test elements are easy to draw.  The stack of one of
    :func:`_random_stack`.
    """
    return _random_stack(rng, alpha, radius, 1, decay, scale).element(0)


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
    u = d.lift.inverse(np.arange(size) / size)
    worst = 0.0
    for n, ms, coeffs in f.rows():
        # exp(2 pi i m (u - alpha n)), both phases reduced exactly
        values = ((coeffs * waves(d.alpha, -n * ms))
                  @ waves(u, ms[:, None]))
        if l_deriv:
            values = spectral_derivative(values, order=l_deriv)
        worst = np.maximum(worst, (abs(n) + 1) ** k_weight
                           * float(np.max(np.abs(values))))
    return float(worst)
