"""Deformed Dirac blocks, their resolvent bounds and commutators.

The longitudinal operator acts within block n as ``L_n = d/dtheta -
a_n`` where the drift sequence ``a_n`` accumulates reciprocal growth
numbers; the eta-deformed corner is

    T_n^{(eta)} = P delta_n^{eta-1} L_n delta_n^{-eta} P

with P the mode projection, assembled on the quadrature grid with a
full resolution spectral derivative in the middle.  The matching lower
corner is built independently from the adjoint factors and must agree
with the conjugate transpose of the upper one at truncation.
"""

from __future__ import annotations

import numpy as np

from .dynamics import DiffeoSpec, GrowthSequence, growth_sequence
from .errors import OutOfBoxError, RouteMismatchError
from .gns import TruncationBox, _context
from .grids import (at_modes, grid_angles, spectral_derivative, spectrum,
                    toeplitz)
from .modular import _conjugated_rows

_ETA_SPECIAL = (0.0, 0.5, 1.0)


def a_sequence(growth: GrowthSequence, block_bound: int) -> np.ndarray:
    """Drift values ``a_n`` for ``|n| <= block_bound``.

    Forward blocks sum ``1 / Gamma_l`` for l = 1..n; backward blocks sum
    ``-1 / Gamma_{l-1}`` so that ``|a_{n-1} - a_n| Gamma_{|n|} = 1``
    telescopes across the whole range (``Gamma_0 = 1``).
    """
    out = np.zeros(2 * block_bound + 1)
    for n in range(1, block_bound + 1):
        out[block_bound + n] = out[block_bound + n - 1] + 1.0 / growth.gamma(n)
    for n in range(1, block_bound + 1):
        out[block_bound - n] = (out[block_bound - n + 1]
                                - 1.0 / growth.gamma(n - 1))
    return out


def telescoping_deviation(a: np.ndarray, growth: GrowthSequence) -> float:
    """Max deviation of ``|a_{n-1} - a_n| Gamma_{|n|}`` from 1."""
    block_bound = (len(a) - 1) // 2
    worst = 0.0
    for n in range(-block_bound + 1, block_bound + 1):
        step = abs(a[n - 1 + block_bound] - a[n + block_bound])
        worst = np.maximum(worst, abs(step * growth.gamma(n) - 1.0))
    return float(worst)


def _delta_grid(d: DiffeoSpec, box: TruncationBox, n: int) -> np.ndarray:
    """Density ``H'(u + 2 alpha n) / H'(u)`` of block n on the context grid."""
    ctx = _context(d, box)
    if abs(n) <= box.block_bound:
        return ctx.delta[n + box.block_bound]
    return (d.lift.derivative(ctx.u + 2.0 * d.alpha * n)
            / d.lift.derivative(ctx.u))


def _grid_pipeline(box: TruncationBox, left: np.ndarray, drift: float,
                   right: np.ndarray, conjugate: bool = False) -> np.ndarray:
    """Mode matrix of ``P M_left (d/dtheta - drift) M_right P``.

    ``conjugate`` flips the derivative sign, giving the formal adjoint
    factor ``-d/dtheta - drift``.
    """
    modes = box.modes()
    waves = np.exp(1j * np.multiply.outer(grid_angles(box.grid_size), modes))
    stage = spectral_derivative(right[:, None] * waves, drift,
                                -1.0 if conjugate else 1.0, axis=0)
    stage *= left[:, None]
    return at_modes(spectrum(stage, axis=0), modes, axis=0)


def deformed_corner(n: int, eta: float, d: DiffeoSpec, box: TruncationBox,
                    a_n: float) -> np.ndarray:
    """Upper corner ``P delta^{eta-1} L delta^{-eta} P`` at block n."""
    delta = _delta_grid(d, box, n)
    return _grid_pipeline(box, delta ** (eta - 1.0), a_n, delta ** (-eta))


def deformed_block(n: int, eta: float, d: DiffeoSpec, box: TruncationBox,
                   a_n: float, check_tol: float = 1e-9) -> np.ndarray:
    """Self-adjoint two-corner block; corners built independently.

    The lower corner uses the adjoint factor ordering; when it deviates
    from the conjugate transpose of the upper corner beyond
    ``check_tol`` a :class:`RouteMismatchError` is raised (at finite
    truncation the two agree exactly because the mode projections
    sandwich both products).
    """
    upper = deformed_corner(n, eta, d, box, a_n)
    delta = _delta_grid(d, box, n)
    lower = _grid_pipeline(box, delta ** (-eta), a_n, delta ** (eta - 1.0),
                           conjugate=True)
    dev = float(np.max(np.abs(lower - upper.conj().T)))
    if not dev <= check_tol:
        raise RouteMismatchError(
            f"corner adjoint deviation {dev:.3e} at block {n}")
    m = box.n_modes
    out = np.zeros((2 * m, 2 * m), dtype=complex)
    out[:m, m:] = upper
    out[m:, :m] = lower
    return out


def diagonal_inverse_norm(box: TruncationBox, a_n: float) -> float:
    """Norm of the inverse of the undeformed corner, the diagonal matrix
    with entries ``i l - a_n``.

    For ``a_n = 0`` the mode 0 eigenvalue vanishes; the norm is then
    taken on the complement of the kernel.
    """
    ls = box.modes().astype(float)
    mags = np.sqrt(ls * ls + a_n * a_n)
    if a_n == 0.0:
        mags = mags[ls != 0.0]
    return float(1.0 / np.min(mags))


def matrix_element_closed_form(eta: float, k: int, l: int, r: int, s: int,
                               d: DiffeoSpec, box: TruncationBox,
                               a: np.ndarray) -> complex:
    """Analytic matrix element of the eta-corner at special eta.

    In the plain basis (eta 0 and 1) the element reduces to the drift
    eigenvalue times a Fourier coefficient of ``1/delta_k``; in the
    conjugated basis (eta 1/2) to mode pairing plus a coefficient of
    ``delta_k``.  Blocks are diagonal: vanishes for ``r != k``.
    """
    if eta not in _ETA_SPECIAL:
        raise ValueError("closed forms cover eta in {0, 1/2, 1}")
    if r != k:
        return 0.0 + 0.0j
    ctx = _context(d, box)
    kk = k + box.block_bound
    a_k = float(a[kk])
    if eta == 0.5:
        a_minus = float(a[box.block_bound - k])
        return -(1j * l * (1.0 if l == s else 0.0)
                 + a_minus * at_modes(ctx.delta_hat[kk], l - s))
    drift = 1j * l - a_k if eta == 0.0 else 1j * s - a_k
    return drift * at_modes(ctx.inv_delta_hat[kk], s - l)


def matrix_element_oracle_table(eta: float, k: int, d: DiffeoSpec,
                                box: TruncationBox, a: np.ndarray,
                                radius: int) -> np.ndarray:
    """Grid pipeline matrix elements ``[s, l]`` at block k.

    eta = 0 applies the drift eigenvalue then divides by the density;
    eta = 1 divides first and runs the full spectral derivative; eta =
    1/2 works in the conjugated basis at block ``-k`` with quadrature
    pairings.  Indices run over ``|l|, |s| <= radius``.
    """
    if radius > min(box.block_bound, box.mode_bound) or abs(k) > box.block_bound:
        raise OutOfBoxError("oracle radius exceeds the box")
    ctx = _context(d, box)
    kk = k + box.block_bound
    a_k = float(a[kk])
    span = np.arange(-radius, radius + 1)
    if eta in (0.0, 1.0):
        waves = np.exp(1j * np.multiply.outer(ctx.theta, span))
        if eta == 0.0:
            stage = waves * (1j * span - a_k)[None, :]
            stage /= ctx.delta[kk][:, None]
        else:
            stage = spectral_derivative(waves / ctx.delta[kk][:, None], a_k,
                                        axis=0)
        return at_modes(spectrum(stage, axis=0), span, axis=0)
    if eta != 0.5:
        raise ValueError("oracle covers eta in {0, 1/2, 1}")
    flip = box.n_blocks - 1 - kk
    a_minus = float(a[flip])
    sqrt_delta_inv = ctx.delta[flip] ** (-0.5)
    sel = span + box.mode_bound
    # grid rows, not the band-projected epsilon table: projecting would
    # clip the analytic tails that the quadrature pairing keeps
    eps_grid = _conjugated_rows(ctx, kk)[sel]
    stage = spectral_derivative(eps_grid.T * sqrt_delta_inv[:, None], a_minus,
                                axis=0)
    stage *= sqrt_delta_inv[:, None]
    return np.conj(eps_grid) @ stage / box.grid_size


def master_elements(d: DiffeoSpec, box: TruncationBox, radius: int,
                    etas=_ETA_SPECIAL,
                    growth: GrowthSequence | None = None) -> list[tuple]:
    """Rows ``(eta, k, l, s, closed, |closed - oracle|)`` over
    ``|k|, |l|, |s| <= radius``, the closed form against the grid oracle."""
    if growth is None:
        growth = growth_sequence(d, box.block_bound)
    a = a_sequence(growth, box.block_bound)
    rows = []
    span = range(-radius, radius + 1)
    for eta in etas:
        for k in span:
            oracle = matrix_element_oracle_table(eta, k, d, box, a, radius)
            for si, s in enumerate(span):
                for li, l in enumerate(span):
                    closed = matrix_element_closed_form(
                        eta, k, l, k, s, d, box, a)
                    rows.append((eta, k, l, s, closed,
                                 abs(closed - oracle[si, li])))
    return rows


def element_deviation(rows: list[tuple]) -> float:
    """Sup of the deviation column of :func:`master_elements` rows."""
    if not rows:
        raise ValueError("no master elements (etas 0, 1/2, 1; radius >= 0)")
    return float(np.max([row[-1] for row in rows]))


def master_deviation(d: DiffeoSpec, box: TruncationBox, radius: int,
                     etas=_ETA_SPECIAL,
                     growth: GrowthSequence | None = None) -> float:
    """Sup deviation of closed-form elements from the grid oracle."""
    return element_deviation(master_elements(d, box, radius, etas, growth))


def resolvent_profile(d: DiffeoSpec, box: TruncationBox, ns, etas,
                      growth: GrowthSequence | None = None,
                      slack: float = 1e-6) -> list[dict]:
    """Singular value rows of the deformed corners with their bounds.

    Each row carries the smallest singular value, the bound
    ``Gamma_{|n|} ||D_n^{-1}|| (1 + slack)`` on the resolvent norm and
    the margin by which the bound holds.  At n = 0 the corner has a one
    dimensional kernel; the resolvent is then read off the deflated
    (second smallest) singular value.
    """
    n_top = max(abs(int(n)) for n in ns)
    if growth is None:
        growth = growth_sequence(d, n_top)
    a = a_sequence(growth, n_top)
    offset = (len(a) - 1) // 2

    def one(n, eta):
        corner = deformed_corner(n, eta, d, box, float(a[n + offset]))
        sigma = np.linalg.svd(corner, compute_uv=False)
        sigma_min = float(sigma[-1])
        kernel_dim = int(np.sum(sigma < 1e-8))
        effective = float(sigma[-2]) if n == 0 else sigma_min
        bound = (growth.gamma(n) * diagonal_inverse_norm(box, float(a[n + offset]))
                 * (1.0 + slack))
        return {
            "n": int(n),
            "eta": float(eta),
            "sigma_min": sigma_min,
            "kernel_dim": kernel_dim,
            "resolvent": 1.0 / effective,
            "bound": bound,
            "margin": bound - 1.0 / effective,
        }

    return [one(int(n), float(eta)) for n in ns for eta in etas]


def commutator_block(n: int, eta: float, d: DiffeoSpec, box: TruncationBox,
                     growth: GrowthSequence, generator: str = "shift"):
    """Deformed commutator block with the shift generator (or inverse).

    The commutator of the longitudinal operator with the block shift is
    scalar per block; its eta-deformation is multiplication by

        (a_{n-1} - a_n) delta_n^{eta-1} delta_{n-1}^{-eta}

    (indices n+1 for the inverse shift).  Returns the projected mode
    matrix, its spectral norm, and the growth bound
    ``|step| Gamma_{|n|}^{1-eta} Gamma_{|n'|}^{eta}``.
    """
    bound_needed = max(abs(n), abs(n - 1), abs(n + 1))
    if bound_needed >= len(growth):
        growth = growth_sequence(d, bound_needed)
    a = a_sequence(growth, bound_needed)
    off = bound_needed
    if generator == "shift":
        other = n - 1
    elif generator == "shift_inverse":
        other = n + 1
    else:
        raise ValueError(f"unknown generator {generator!r}")
    step = float(a[other + off] - a[n + off])
    delta_n = _delta_grid(d, box, n)
    delta_o = _delta_grid(d, box, other)
    mult = step * delta_n ** (eta - 1.0) * delta_o ** (-eta)
    matrix = toeplitz(spectrum(mult), box.mode_bound)
    norm = float(np.linalg.norm(matrix, ord=2))
    bound = (abs(step) * growth.gamma(n) ** (1.0 - eta)
             * growth.gamma(other) ** eta)
    return matrix, norm, bound


def commutator_excess(d: DiffeoSpec, box: TruncationBox,
                      growth: GrowthSequence, ns, etas=_ETA_SPECIAL,
                      generators=("shift",), slack: float = 1e-6) -> float:
    """Largest ``norm - bound (1 + slack)`` over the blocks, floored at 0."""
    excess = 0.0
    for generator in generators:
        for n in ns:
            for eta in etas:
                _, norm, bound = commutator_block(n, eta, d, box, growth,
                                                  generator=generator)
                excess = np.maximum(excess, norm - bound * (1.0 + slack))
    return float(excess)
