"""Circle diffeomorphisms smoothly conjugate to rigid rotations.

A lift ``H(x) = x + sum_k a_k sin(2 pi k x) + b_k (cos(2 pi k x) - 1)``
fixes 0, commutes with integer translation and projects to a circle
diffeomorphism ``h``.  The dynamics of interest is ``f = h R_{2 alpha}
h^{-1}``; its n-th iterate has the closed-form lift

    F_n(x) = H(H^{-1}(x) + 2 alpha n),

so no orbit ever has to be composed step by step.  The Radon-Nikodym
derivative of Lebesgue measure under ``f^n`` is ``F_n'`` read on the
circle, in the chart ``u = H^{-1}(x)`` the density ``delta_n(u) =
H'(u + 2 alpha n) / H'(u)``, which this module evaluates for the whole
package; the growth numbers ``Gamma_n`` are its sup norms in both time
directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InverseSolveError, OutOfBoxError, PositivityError,
                     _json_keys, _json_number, _json_numbers)

_CHECK_GRID = 8192
_BISECT_WIDTH = 1e-8
_NEWTON_RESIDUAL = 1e-13
_ORBIT_STEPS = 100


@dataclass(frozen=True)
class ConjugatorLift:
    """Periodic displacement lift, strictly increasing by construction check.

    ``sin_coeffs[k-1]`` and ``cos_coeffs[k-1]`` multiply ``sin(2 pi k x)``
    and ``cos(2 pi k x) - 1``.  Instantiation fails with
    :class:`PositivityError` when the derivative is not positive on a
    dense grid; a NaN derivative counts as not positive.
    """

    sin_coeffs: tuple[float, ...] = ()
    cos_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "sin_coeffs",
                           tuple(float(a) for a in self.sin_coeffs))
        object.__setattr__(self, "cos_coeffs",
                           tuple(float(b) for b in self.cos_coeffs))
        x = np.arange(_CHECK_GRID) / _CHECK_GRID
        low = float(np.min(self.derivative(x)))
        if not low > 1e-9:
            raise PositivityError(
                f"lift derivative not strictly positive: min H' = {low:.3e}")
        disp = self.displacement(x)
        object.__setattr__(self, "_disp_lo", float(np.min(disp)) - 1e-9)
        object.__setattr__(self, "_disp_hi", float(np.max(disp)) + 1e-9)

    @property
    def is_identity(self) -> bool:
        return not any(self.sin_coeffs) and not any(self.cos_coeffs)

    def displacement(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for k, a in enumerate(self.sin_coeffs, start=1):
            out += a * np.sin(2.0 * np.pi * k * x)
        for k, b in enumerate(self.cos_coeffs, start=1):
            out += b * (np.cos(2.0 * np.pi * k * x) - 1.0)
        return out

    def value(self, x):
        return np.asarray(x, dtype=float) + self.displacement(x)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        out = np.ones_like(x)
        for k, a in enumerate(self.sin_coeffs, start=1):
            out += 2.0 * np.pi * k * a * np.cos(2.0 * np.pi * k * x)
        for k, b in enumerate(self.cos_coeffs, start=1):
            out -= 2.0 * np.pi * k * b * np.sin(2.0 * np.pi * k * x)
        return out

    def inverse(self, y):
        """Solve ``H(x) = y`` by bracketed bisection plus Newton polish.

        Bisection runs to interval width 1e-8, Newton to residual 1e-13;
        any other residual, NaN included, raises :class:`InverseSolveError`.
        Vectorized; scalar input returns a scalar.
        """
        scalar = np.isscalar(y) or np.asarray(y).ndim == 0
        y_arr = np.atleast_1d(np.asarray(y, dtype=float))
        if self.is_identity:
            x = y_arr.copy()
        else:
            lo = y_arr - self._disp_hi
            hi = y_arr - self._disp_lo
            steps = int(math.ceil(math.log2(
                max(self._disp_hi - self._disp_lo, 1e-15) / _BISECT_WIDTH)))
            for _ in range(max(steps, 1)):
                mid = 0.5 * (lo + hi)
                above = self.value(mid) > y_arr
                hi = np.where(above, mid, hi)
                lo = np.where(above, lo, mid)
            x = 0.5 * (lo + hi)
            for _ in range(8):
                resid = self.value(x) - y_arr
                if float(np.max(np.abs(resid))) <= _NEWTON_RESIDUAL:
                    break
                x = x - resid / self.derivative(x)
        resid = float(np.max(np.abs(self.value(x) - y_arr)))
        if not resid <= _NEWTON_RESIDUAL:
            raise InverseSolveError(
                f"inverse residual {resid:.3e} above {_NEWTON_RESIDUAL}")
        return float(x[0]) if scalar else x


@dataclass(frozen=True)
class DiffeoSpec:
    """Rotation angle plus conjugator; the whole dynamical input.

    ``alpha`` lies in (0, 1/2); ``classical=True`` additionally admits
    ``alpha = 0`` for undeformed comparisons.
    """

    alpha: float
    lift: ConjugatorLift = ConjugatorLift()
    classical: bool = False

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        lo_ok = self.alpha > 0.0 or (self.classical and self.alpha == 0.0)
        if not (lo_ok and self.alpha < 0.5):
            raise ValueError(
                f"alpha = {self.alpha} outside the admissible interval")

    @property
    def is_rotation(self) -> bool:
        return self.lift.is_identity

    def to_dict(self) -> dict:
        out = {
            "alpha": self.alpha,
            "conjugator": {
                "sin": list(self.lift.sin_coeffs),
                "cos": list(self.lift.cos_coeffs),
            },
        }
        if self.classical:
            out["classical"] = True
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "DiffeoSpec":
        """Inverse of :meth:`to_dict`; a value of the wrong JSON type
        (``classical`` not a boolean, a conjugator that is not an object
        of coefficient lists) or a key it does not read raises
        ``ValueError``, a missing ``alpha`` ``KeyError``."""
        _json_keys(data, ("alpha", "conjugator", "classical"), "diffeo",
                   required=1)
        conj = data.get("conjugator")
        conj = {} if conj is None else conj
        if not isinstance(conj, dict):
            raise ValueError(f"conjugator must be an object, got {conj!r}")
        _json_keys(conj, ("sin", "cos"), "conjugator")
        lift = ConjugatorLift(*(_json_numbers(conj.get(side, ()),
                                              f"conjugator {side}")
                                for side in ("sin", "cos")))
        classical = data.get("classical", False)
        if not isinstance(classical, bool):
            raise ValueError(f"classical must be a boolean, got "
                             f"{classical!r}")
        return cls(alpha=_json_number(data["alpha"], "alpha"), lift=lift,
                   classical=classical)


def benchmark() -> DiffeoSpec:
    """Golden-ratio angle with the one-harmonic conjugator 0.3/(2 pi)."""
    return DiffeoSpec(alpha=(math.sqrt(5.0) - 1.0) / 4.0,
                      lift=ConjugatorLift(sin_coeffs=(0.3 / (2.0 * np.pi),)))


def rotation(alpha: float, classical: bool = False) -> DiffeoSpec:
    """Rigid rotation case (identity conjugator)."""
    return DiffeoSpec(alpha=alpha, classical=classical)


def iterate_lift(d: DiffeoSpec, n: int, x):
    """Lift ``F_n(x) = H(H^{-1}(x) + 2 alpha n)`` of the n-th iterate."""
    u = d.lift.inverse(np.asarray(x, dtype=float))
    return d.lift.value(u + 2.0 * d.alpha * n)


def _density(d: DiffeoSpec, u, n):
    """``delta_n = H'(u + 2 alpha n) / H'(u)`` at chart points u: the one
    evaluation of the densities.  n and u broadcast, so n as a column
    gives one row per n."""
    return (d.lift.derivative(u + 2.0 * d.alpha * np.asarray(n))
            / d.lift.derivative(u))


def radon_nikodym(d: DiffeoSpec, n: int, size: int | None = None, x=None):
    """Derivative ``F_n'`` on the circle: densities of iterated Lebesgue.

    Either sample on the equispaced grid of ``size`` points (x in
    [0, 1)) or at explicit positions ``x``.
    """
    if x is None:
        if size is None:
            raise ValueError("need size or explicit positions")
        x = np.arange(size) / size
    return _density(d, d.lift.inverse(np.asarray(x, dtype=float)), n)


@dataclass(frozen=True)
class GrowthSequence:
    """Growth numbers ``Gamma_0 = 1, Gamma_1, ...`` of a diffeomorphism."""

    values: tuple[float, ...]

    def gamma(self, n: int) -> float:
        if abs(n) >= len(self.values):
            raise OutOfBoxError(
                f"Gamma_{n} not computed (have 0..{len(self.values) - 1})")
        return self.values[abs(n)]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def _refined_sup(v: np.ndarray) -> float:
    """Grid sup with one parabolic refinement step around the argmax."""
    j = int(np.argmax(v))
    a, b, c = v[j - 1], v[j], v[(j + 1) % len(v)]
    denom = a - 2.0 * b + c
    if denom >= -1e-300:
        return float(b)
    return float(b - 0.125 * (a - c) ** 2 / denom)


def growth_sequence(d: DiffeoSpec, n_max: int, size: int = 4096) -> GrowthSequence:
    """Compute ``Gamma_n = max(sup F_n', sup F_{-n}')`` for n = 0 .. n_max.

    The sup over the circle equals the sup of
    ``H'(u + 2 alpha n) / H'(u)`` over u, since u -> H(u) is a
    bijection; this avoids any inverse solves.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    u = np.arange(size) / size
    out = [1.0]
    for n in range(1, n_max + 1):
        out.append(max(_refined_sup(ratio)
                       for ratio in _density(d, u, [[n], [-n]])))
    return GrowthSequence(tuple(out))


def _orbit_inverse(lift: ConjugatorLift, y: float, start: float) -> float:
    """Solve ``H(u) = y`` by scalar Newton from ``start``.

    The root lies in ``y`` minus the displacement range, the bracket
    :meth:`ConjugatorLift.inverse` bisects; each residual narrows it, and
    a Newton step that leaves it takes its midpoint instead, so every
    strictly increasing lift converges.  The residual gate is the one of
    :meth:`ConjugatorLift.inverse`: a residual above it after
    ``_ORBIT_STEPS`` steps, NaN included, raises
    :class:`InverseSolveError`.
    """
    lo, hi = y - lift._disp_hi, y - lift._disp_lo
    u = start
    for _ in range(_ORBIT_STEPS):
        resid = float(lift.value(u)) - y
        if abs(resid) <= _NEWTON_RESIDUAL:
            return u
        if resid > 0.0:
            hi = min(hi, u)
        else:
            lo = max(lo, u)
        u = u - resid / float(lift.derivative(u))
        if not lo < u < hi:
            u = 0.5 * (lo + hi)
    raise InverseSolveError(
        f"orbit inverse residual {resid:.3e} above {_NEWTON_RESIDUAL}")


def rotation_number(d: DiffeoSpec, iterations: int = 256) -> float:
    """Rotation number estimate from the literal orbit of the lift.

    Uses a bump-weighted Birkhoff average of the displacement sequence,
    which converges superpolynomially for Diophantine angles; the plain
    average would be stuck at O(1/m).  Each step is
    ``x -> H(H^{-1}(x) + 2 alpha)``, its inverse solved by Newton
    warm-started from the previous orbit point's root (never from that
    root plus ``2 alpha``, the chart rotation, which would assume the
    answer).
    """
    if iterations < 8:
        raise ValueError("need at least 8 iterations")
    x = 0.0
    u = 0.0
    total = 0.0
    weight_sum = 0.0
    for j in range(iterations):
        t = (j + 0.5) / iterations
        w = math.exp(-1.0 / (t * (1.0 - t)))
        u = _orbit_inverse(d.lift, x, u)
        x_next = float(d.lift.value(u + 2.0 * d.alpha))
        total += w * (x_next - x)
        weight_sum += w
        x = x_next
    return total / weight_sum
