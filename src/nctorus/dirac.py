"""Deformed Dirac blocks, their resolvent bounds and commutators.

The longitudinal operator acts within block n as ``L_n = d/dtheta -
a_n`` where the drift sequence ``a_n`` accumulates reciprocal growth
numbers.  With P the mode projection, the eta-deformed corner is affine
in eta, ``P delta_n^{eta-1} L_n delta_n^{-eta} P = (1 - eta) B_n D + eta
D B_n`` with ``B_n`` the Toeplitz table of ``1/delta_n`` and ``D =
diag(i l - a_n)``: one closed form builds every corner.  Its matrix
elements are held against the grid pipeline (spectral derivative in the
middle), and at eta = 1/2 a second closed form against quadrature
pairings in the conjugated basis.  The lower corner of the self-adjoint
block lives in the test oracle.  The resolvent and commutator bounds
are one table over the shift generator (``_bound_table``).
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .dynamics import DiffeoSpec, GrowthSequence, growth_sequence
from .errors import OutOfBoxError
from .gns import TruncationBox, _context
from .grids import at_modes, spectral_derivative, spectrum, toeplitz
from .modular import _j_waves

ETAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def a_sequence(growth: GrowthSequence, block_bound: int) -> np.ndarray:
    """Drift values ``a_n`` for ``|n| <= block_bound``.

    Forward blocks sum ``1 / Gamma_l`` for l = 1..n; backward blocks sum
    ``-1 / Gamma_{l-1}`` so that ``|a_{n-1} - a_n| Gamma_{|n|} = 1``
    telescopes across the whole range (``Gamma_0 = 1``).
    """
    growth.gamma(block_bound)  # OutOfBoxError on a short sequence
    inverse = 1.0 / np.asarray(growth.values[:block_bound + 1])
    return np.concatenate([-np.cumsum(inverse[:-1])[::-1], [0.0],
                           np.cumsum(inverse[1:])])


def telescoping_deviation(a: np.ndarray, growth: GrowthSequence) -> float:
    """Max deviation of ``|a_{n-1} - a_n| Gamma_{|n|}`` from 1."""
    block_bound = (len(a) - 1) // 2
    gammas = np.asarray(growth.values)[
        np.abs(np.arange(1 - block_bound, block_bound + 1))]
    return float(np.max(np.abs(np.abs(np.diff(a)) * gammas - 1.0),
                        initial=0.0))


def _corner(delta: np.ndarray, eta: float, a_n: float, waves: np.ndarray,
            modes: np.ndarray) -> np.ndarray:
    """The grid oracle of the corner: ``delta^{eta-1} L delta^{-eta}``
    applied to the grid columns ``waves`` (one per mode), with the full
    resolution spectral derivative in the middle, read at ``modes``."""
    delta = delta[:, None]
    stage = spectral_derivative(delta ** (-eta) * waves, a_n, axis=0)
    stage *= delta ** (eta - 1.0)
    return at_modes(spectrum(stage, axis=0), modes, axis=0)


def _affine_corner(delta: np.ndarray, eta: float, a_n: float,
                   radius: int) -> np.ndarray:
    """``(1 - eta) B D + eta D B`` at ``|l|, |s| <= radius``, ``B =
    toeplitz(spectrum(1/delta))``, ``D = diag(i l - a_n)``: entry ``[s,
    l]`` is ``c(s - l) (i ((1 - eta) l + eta s) - a_n)``, by ``delta^{eta-1}
    L delta^{-eta} w = delta^{-1} L w + eta (1/delta)' w``."""
    span = np.arange(-radius, radius + 1)
    drift = 1j * ((1.0 - eta) * span[None, :] + eta * span[:, None]) - a_n
    return toeplitz(spectrum(1.0 / delta), radius) * drift


def deformed_corner(n: int, eta: float, d: DiffeoSpec, box: TruncationBox,
                    a_n: float) -> np.ndarray:
    """Upper corner ``P delta^{eta-1} L delta^{-eta} P`` at block n; an
    eta array of shape (E, 1, 1) gives the stack of E corners."""
    return _affine_corner(_context(d, box).density(n), eta, a_n,
                          box.mode_bound)


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


def matrix_element_closed_form(eta: float, k: int, d: DiffeoSpec,
                               box: TruncationBox, a: np.ndarray,
                               radius: int) -> np.ndarray:
    """Analytic matrix elements ``[s, l]``, ``|l|, |s| <= radius``, of the
    eta-corner at block k (blocks are diagonal): the affine closed form
    of :func:`deformed_corner`, or at eta = 1/2 minus the sum of the mode
    pairing and ``a_{-k}`` times coefficient ``l - s`` of ``delta_k``.
    """
    delta = _context(d, box).density(k)
    if eta != 0.5:
        return _affine_corner(delta, eta, float(a[k + box.block_bound]),
                              radius)
    span = np.arange(-radius, radius + 1)
    a_minus = float(a[box.block_bound - k])
    return -(np.diag(1j * span)
             + a_minus * toeplitz(spectrum(delta), radius).T)


def matrix_element_oracle_table(eta: float, k: int, d: DiffeoSpec,
                                box: TruncationBox, a: np.ndarray,
                                radius: int) -> np.ndarray:
    """Grid pipeline matrix elements ``[s, l]`` at block k.

    eta != 1/2 runs the corner pipeline on the grid columns ``|l| <=
    radius``; eta = 1/2 works in the conjugated basis at block ``-k``
    with quadrature pairings.  Indices run over ``|l|, |s| <= radius``.
    """
    if radius > min(box.block_bound, box.mode_bound) or abs(k) > box.block_bound:
        raise OutOfBoxError("oracle radius exceeds the box")
    ctx = _context(d, box)
    kk = k + box.block_bound
    span = np.arange(-radius, radius + 1)
    sel = span + box.mode_bound
    if eta != 0.5:
        return _corner(ctx.delta[kk], eta, float(a[kk]), ctx.waves[sel].T,
                       span)
    # grid rows of eps_kl = J e_kl, not the band-projected epsilon table:
    # projecting would clip the analytic tails the quadrature pairing keeps
    image, eps_grid = _j_waves(ctx, kk, sel)
    a_minus = float(a[image])
    sqrt_delta_inv = ctx.delta[image] ** (-0.5)
    stage = spectral_derivative(eps_grid.T * sqrt_delta_inv[:, None], a_minus,
                                axis=0)
    stage *= sqrt_delta_inv[:, None]
    return np.conj(eps_grid) @ stage / box.grid_size


def master_elements(d: DiffeoSpec, box: TruncationBox, radius: int,
                    etas=ETAS, growth: GrowthSequence | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form elements and their distances ``|closed - oracle|``
    from the grid oracle, two tables ``[eta, k, s, l]`` (k, s and l offset
    by ``radius``) over the etas and ``|k|, |l|, |s| <= radius``."""
    if growth is None:
        growth = growth_sequence(d, box.block_bound)
    a = a_sequence(growth, box.block_bound)
    span = range(-radius, radius + 1)
    closed = np.zeros((len(etas),) + (len(span),) * 3, dtype=complex)
    deviation = np.zeros(closed.shape)
    for (i, eta), (j, k) in product(enumerate(etas), enumerate(span)):
        closed[i, j] = matrix_element_closed_form(eta, k, d, box, a, radius)
        oracle = matrix_element_oracle_table(eta, k, d, box, a, radius)
        deviation[i, j] = np.abs(closed[i, j] - oracle)
    return closed, deviation


def element_deviation(deviation: np.ndarray) -> float:
    """Sup of :func:`master_elements`' deviation table."""
    if not np.size(deviation):
        raise ValueError("no master elements (no eta, or radius < 0)")
    return float(np.max(deviation))


def master_deviation(d: DiffeoSpec, box: TruncationBox, radius: int,
                     etas=ETAS,
                     growth: GrowthSequence | None = None) -> float:
    """Sup deviation of closed-form elements from the grid oracle."""
    return element_deviation(master_elements(d, box, radius, etas, growth)[1])


def _singular_values(stack: np.ndarray) -> np.ndarray:
    """The one LAPACK SVD: singular values of each matrix, descending."""
    return np.linalg.svd(stack, compute_uv=False)


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
    rows = []
    for n in map(int, ns):
        a_n = float(a[n + n_top])
        corners = deformed_corner(n, np.reshape(etas, (-1, 1, 1)), d, box,
                                  a_n)
        bound = (growth.gamma(n) * diagonal_inverse_norm(box, a_n)
                 * (1.0 + slack))
        for eta, sigma in zip(etas, _singular_values(corners)):
            effective = float(sigma[-2] if n == 0 else sigma[-1])
            rows.append({
                "n": n,
                "eta": float(eta),
                "sigma_min": float(sigma[-1]),
                "kernel_dim": int(np.sum(sigma < 1e-8)),
                "resolvent": 1.0 / effective,
                "bound": bound,
                "margin": bound - 1.0 / effective,
            })
    return rows


def commutator_block(n: int, eta, d: DiffeoSpec, box: TruncationBox,
                     growth: GrowthSequence, generator: str = "shift"):
    """Deformed commutator block with the shift generator (or inverse).

    The commutator of the longitudinal operator with the block shift is
    scalar per block; its eta-deformation is multiplication by

        (a_{n-1} - a_n) delta_n^{eta-1} delta_{n-1}^{-eta}

    (indices n+1 for the inverse shift).  Returns the projected mode
    matrix, its spectral norm, and the growth bound ``|step|
    Gamma_{|n|}^{1-eta} Gamma_{|n'|}^{eta}``, or for a sequence of etas
    their stacks, from one SVD; :class:`OutOfBoxError` when ``growth``
    stops short of block n or its neighbour.
    """
    if generator not in ("shift", "shift_inverse"):
        raise ValueError(f"unknown generator {generator!r}")
    other = n - 1 if generator == "shift" else n + 1
    reach = max(abs(n), abs(other))
    a = a_sequence(growth, reach)
    step = float(a[other + reach] - a[n + reach])
    delta_n, delta_o = _context(d, box).density([n, other])
    # scalar exponents: an array exponent skips numpy's power fast paths
    etas = np.ravel(eta).tolist()
    mults = np.stack([step * delta_n ** (e - 1.0) * delta_o ** (-e)
                      for e in etas])
    matrix = toeplitz(spectrum(mults), box.mode_bound)
    bound = np.array([abs(step) * growth.gamma(n) ** (1.0 - e)
                      * growth.gamma(other) ** e for e in etas])
    norm = _singular_values(matrix)[:, 0]
    if np.ndim(eta):
        return matrix, norm, bound
    return matrix[0], float(norm[0]), float(bound[0])


def _bound_table(d: DiffeoSpec, box: TruncationBox, growth: GrowthSequence,
                 n_radius: int, etas, slack: float):
    """One pass over the blocks: :func:`resolvent_profile` rows at
    ``etas`` over ``|n| <= n_radius``, and ``norm - bound (1 + slack)``
    of the shift at ETAS, a table ``[n + n_radius, eta]`` over n in
    ``[-n_radius, n_radius + 1]``: the inverse-shift pair (n, eta) is the
    shift pair (n + 1, 1 - eta), so both generators' pairs are in it."""
    rows, excess = [], []
    for n in range(-n_radius, n_radius + 2):
        if n <= n_radius:
            rows += resolvent_profile(d, box, [n], etas, growth, slack)
        _, norm, bound = commutator_block(n, ETAS, d, box, growth)
        excess.append(norm - bound * (1.0 + slack))
    return rows, np.array(excess)
