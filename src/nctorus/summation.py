"""Summation kernels, transference points and smoothed series.

The double series attached to a hat or paren table is summed through
separable kernel weights.  Kernel values are closed forms (the Dirichlet
and Fejer ratios of sines live in :mod:`grids`), so no table of mode
waves is built at any order.  The two-angle transference action

    (V_w x)_n(z) = w2^n x_n(w1 z)

multiplies coefficients by pure phases and is the vector side of the
operator resampling implemented in :func:`transfer_operator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DiffeoSpec
from .errors import GridTooSmallError
from .fourier import (FourierCoeffs, anti_transform, hat_functional,
                      hat_vector, paren_functional)
from .gns import (GnsOperator, GnsVector, TruncationBox, _u_kl_rows,
                  vacuum_image)
from .grids import (dirichlet_kernel, fejer_kernel, l2, project_to_modes,
                    rotate, waves)
from .modular import _root_rows
from .weyl import WeylElement


@dataclass(frozen=True)
class TransferencePoint:
    """Point of the two-torus acting by transference."""

    w1: complex
    w2: complex

    def __post_init__(self):
        for w in (self.w1, self.w2):
            if not abs(abs(w) - 1.0) <= 1e-12:
                raise ValueError(f"transference point {w!r} is not unimodular")
        object.__setattr__(self, "w1", complex(self.w1))
        object.__setattr__(self, "w2", complex(self.w2))

    @classmethod
    def from_angles(cls, phi1: float, phi2: float) -> "TransferencePoint":
        w1, w2 = waves(np.array([phi1, phi2]) / (2.0 * np.pi), 1)
        return cls(w1, w2)


@dataclass(frozen=True)
class SummationKernel:
    """Fejer / Abel-Poisson / Dirichlet kernel on the circle.

    ``order`` is the polynomial degree for fejer and dirichlet;
    ``radius`` the Abel parameter in (0, 1).
    """

    kind: str
    order: int = 0
    radius: float = 0.0

    def __post_init__(self):
        if self.kind not in ("fejer", "abel", "dirichlet"):
            raise ValueError(f"unknown kernel {self.kind!r}")
        if self.kind == "abel" and not 0.0 < self.radius < 1.0:
            raise ValueError("abel radius must lie in (0, 1)")
        if self.kind != "abel" and self.order < 0:
            raise ValueError("kernel order must be nonnegative")

    def coefficients(self, js) -> np.ndarray:
        js = np.abs(np.asarray(js, dtype=float))
        if self.kind == "fejer":
            return np.maximum(0.0, 1.0 - js / (self.order + 1.0))
        if self.kind == "abel":
            return self.radius ** js
        return (js <= self.order).astype(float)

    def values(self, angles) -> np.ndarray:
        """Kernel values in closed form, O(len(angles)) memory at any order.

        Dirichlet ``sin((n + 1/2) t) / sin(t / 2)`` and Fejer
        ``(sin((n + 1) t / 2) / sin(t / 2))^2 / (n + 1)`` come from
        :mod:`grids` (angles reduced to ``[-pi, pi]``, limits 2n + 1 and
        n + 1 at t = 0); Abel-Poisson is ``(1 - r^2) / (1 - 2 r cos t + r^2)``.
        """
        angles = np.asarray(angles, dtype=float)
        if self.kind == "abel":
            r = self.radius
            return ((1.0 - r * r)
                    / (1.0 - 2.0 * r * np.cos(angles) + r * r))
        if self.kind == "fejer":
            return fejer_kernel(self.order, angles)
        return dirichlet_kernel(self.order, angles)

    def l1_norm(self, size: int = 8192) -> float:
        """Quadrature of |kernel| over the circle."""
        theta = 2.0 * np.pi * np.arange(size) / size
        return float(np.mean(np.abs(self.values(theta))))


def transfer_vector(x: GnsVector, w: TransferencePoint) -> GnsVector:
    """Coefficientwise phases ``w2^n w1^l``; an isometry of the box."""
    box = x.box
    pn = np.power(w.w2, box.blocks().astype(float))
    pl = np.power(w.w1, box.modes().astype(float))
    return GnsVector(box, x.coeffs * np.multiply.outer(pn, pl))


def transfer_operator(a: GnsOperator, w: TransferencePoint) -> GnsOperator:
    """Conjugate by the transference unitary: resample multipliers.

    Shift s picks up the phase ``w2^s`` and every multiplier function is
    rotated, ``m(z) -> m(w1 z)``.
    """
    angle = np.angle(w.w1)
    return GnsOperator(a.box, {s: (w.w2 ** s) * rotate(mult, angle)
                               for s, mult in a.terms.items()})


def table_of(f: WeylElement, d: DiffeoSpec, box: TruncationBox,
             kind: str) -> FourierCoeffs:
    if kind == "hat":
        return hat_functional(f, d, box)
    if kind == "paren":
        return paren_functional(f, d, box, route="vacuum")
    raise ValueError(f"unknown kind {kind!r}")


def summation_reference(f: WeylElement, d: DiffeoSpec, box: TruncationBox,
                        kind: str) -> GnsVector:
    """Limit object of the smoothed series for each kind."""
    if kind == "hat":
        return vacuum_image(f, d, box)
    if kind == "paren":
        rows = _root_rows(f, d, box)
        return GnsVector(box, project_to_modes(rows, box.mode_bound))
    raise ValueError(f"unknown kind {kind!r}")


def _damped(table: FourierCoeffs, kernel: SummationKernel) -> FourierCoeffs:
    box = table.box
    return table.damped(kernel.coefficients(box.blocks()),
                        kernel.coefficients(box.modes()))


def smoothed_mean(table: FourierCoeffs, kernel: SummationKernel,
                  d: DiffeoSpec) -> GnsVector:
    """Kernel-damped anti-transform of a coefficient table."""
    return anti_transform(_damped(table, kernel), d)


def convergence_profile(f: WeylElement, d: DiffeoSpec, box: TruncationBox,
                        kind: str, kernels) -> list[dict]:
    """Error rows of the smoothed series against its limit.

    Each row reports the kernel parameter, the Hilbert space error of
    the smoothed mean, and the sup error of the damped table.
    """
    table = table_of(f, d, box, kind)
    reference = summation_reference(f, d, box, kind)
    rows = []
    for kernel in kernels:
        damped = _damped(table, kernel)
        mean = anti_transform(damped, d)
        param = kernel.radius if kernel.kind == "abel" else kernel.order
        rows.append({
            "parameter": param,
            "l2_error": (mean - reference).norm(),
            "sup_coeff_error": float(
                np.max(np.abs(damped.table - table.table))),
        })
    return rows


def dirichlet_growth_deviation(low: int, high: int) -> float:
    """Distance of the Dirichlet L1 increment from low to high order
    from its logarithmic slope ``(4 / pi^2) log(high / low)``."""
    lam_low = SummationKernel("dirichlet", order=low).l1_norm()
    lam_high = SummationKernel("dirichlet", order=high).l1_norm()
    target = 4.0 / math.pi ** 2 * math.log(high / low)
    return abs((lam_high - lam_low) - target)


def transference_integral_check(x: GnsVector, n_order: int, q_points: int,
                                d: DiffeoSpec) -> float:
    """Quadrature transference integral versus the damped table.

    Averages ``F_N(phi1) F_N(phi2) V_w x`` over the ``q_points``-squared
    equispaced grid of transference angles; for tables supported well
    inside the box (support radius at most N) the integral reproduces
    the Fejer-damped coefficients exactly up to rounding.  ``q_points``
    must be at least ``4 n_order + 4``.
    """
    if q_points < 4 * n_order + 4:
        raise GridTooSmallError(
            f"need at least {4 * n_order + 4} quadrature points")
    kernel = SummationKernel("fejer", order=n_order)
    turns = np.arange(q_points) / q_points
    weights = kernel.values(2.0 * np.pi * turns) / q_points
    unit = waves(turns, 1)
    acc = np.zeros_like(x.coeffs)
    for i1 in range(q_points):
        for i2 in range(q_points):
            w = TransferencePoint(unit[i1], unit[i2])
            acc += (weights[i1] * weights[i2]) * transfer_vector(x, w).coeffs
    box = x.box
    expected = x.coeffs * np.multiply.outer(
        kernel.coefficients(box.blocks()),
        kernel.coefficients(box.modes()))
    return float(l2(acc - expected))


def wts_deviation(f: WeylElement, w: TransferencePoint, d: DiffeoSpec,
                  box: TruncationBox, radius: int) -> float:
    """Sup deviation in the weak transference of hat coefficients.

    Pairing ``pi(f) xi`` against the transferred generators must twist
    the plain hat table by the inverse phases ``w1^{-l} w2^{-k}``.  The
    vacuum sits in block 0, so only row n = k of each shift-k multiplier
    is read; those rows are rotated, phased and projected as one stack.
    """
    return _wts_deviations([(w, [f])], d, box, radius)[0][0]


def _wts_deviations(cases: list[tuple[TransferencePoint, list[WeylElement]]],
                    d: DiffeoSpec, box: TruncationBox,
                    radius: int) -> list[list[float]]:
    """:func:`wts_deviation` of each element of each ``(point, elements)``
    case.  The generator rows are built once, one block k at a time, and
    each block is rotated, phased and projected once per point."""
    kr, lr = min(radius, box.block_bound), min(radius, box.mode_bound)
    ks, ls = np.arange(-kr, kr + 1), np.arange(-lr, lr + 1)
    images = np.empty((len(cases), len(ks), len(ls), box.n_modes),
                      dtype=complex)
    # a block's rows at a time: each row is built, rotated and projected
    # on its own, so a block of rows gives the bits of the whole stack
    for i, k in enumerate(ks):
        rows = _u_kl_rows(d, box, k, ls, k)
        for (w, _), image in zip(cases, images):
            # the block's phase from the array power, as the stack had it
            image[i] = np.conj(project_to_modes(
                (w.w2 ** ks)[i] * rotate(rows, np.angle(w.w1)),
                box.mode_bound))
    out = []
    for (w, fs), image in zip(cases, images):
        phases = (w.w1 ** -ls) * (w.w2 ** -ks)[:, None]
        devs = []
        for f in fs:
            x = vacuum_image(f, d, box)
            lhs = np.einsum("km,klm->kl", x.coeffs[ks + box.block_bound],
                            image)
            table = hat_vector(x).table[ks + box.block_bound][
                :, ls + box.mode_bound]
            devs.append(float(np.max(np.abs(lhs - phases * table))))
        out.append(devs)
    return out
