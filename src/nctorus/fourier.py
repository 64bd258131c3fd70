"""Hat and paren coefficient tables and their inversions.

For a represented element ``a`` with vacuum image ``x = pi(a) xi`` the
hat table is plain coefficient read-off, ``hat(k, l) = <x, e_kl>``,
while the paren table pairs against the conjugated basis
``eps_kl = J e_kl``:

    paren(k, l) = omega(a u_kl) = <Delta^{1/2} x, eps_kl>.

The second equality is the route-agreement fact checked in the test
surface; both routes are implemented below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import DiffeoSpec
from .errors import GridTooSmallError
from .gns import GnsVector, TruncationBox, _context, represent, vacuum
from .grids import at_modes, project_to_modes, spectrum
from .modular import _conjugated_rows
from .weyl import WeylElement


@dataclass(frozen=True)
class FourierCoeffs:
    """Coefficient table over the box, tagged with its kind."""

    kind: str
    table: np.ndarray
    box: TruncationBox

    def __post_init__(self):
        if self.kind not in ("hat", "paren"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.table.shape != (self.box.n_blocks, self.box.n_modes):
            raise ValueError("table shape does not match box")

    def entry(self, k: int, l: int) -> complex:
        return complex(self.table[k + self.box.block_bound,
                                  l + self.box.mode_bound])

    def sup(self) -> float:
        return float(np.max(np.abs(self.table)))

    def l2(self) -> float:
        return float(np.linalg.norm(self.table))

    def damped(self, block_weights, mode_weights) -> "FourierCoeffs":
        """Entrywise multiply by separable summation weights."""
        w = np.multiply.outer(np.asarray(block_weights, dtype=float),
                              np.asarray(mode_weights, dtype=float))
        return FourierCoeffs(self.kind, self.table * w, self.box)


def hat_vector(x: GnsVector) -> FourierCoeffs:
    """Hat table of a vector; exactly its basis coefficients."""
    return FourierCoeffs("hat", x.coeffs.copy(), x.box)


def hat_functional(f: WeylElement, d: DiffeoSpec,
                   box: TruncationBox) -> FourierCoeffs:
    return hat_vector(represent(f, d, box).apply(vacuum(box)))


def epsilon_basis(d: DiffeoSpec, box: TruncationBox) -> np.ndarray:
    """Coefficients of ``eps_kl = J e_kl``, cached on the context.

    ``eps[k + K, l + M]`` holds the mode coefficients of the block
    ``-k`` component ``delta_{-k}(z)^{1/2} f^{-k}(z)^{-l}``; all other
    blocks vanish.
    """
    ctx = _context(d, box)
    if ctx.epsilon is None:
        eps = np.empty((box.n_blocks, box.n_modes, box.n_modes),
                       dtype=complex)
        for i in range(box.n_blocks):
            eps[i] = project_to_modes(_conjugated_rows(ctx, i),
                                      box.mode_bound).coeffs
        ctx.epsilon = eps
    return ctx.epsilon


def paren_vector(x: GnsVector, d: DiffeoSpec) -> FourierCoeffs:
    """Pair a vector against the conjugated basis."""
    box = x.box
    eps = epsilon_basis(d, box)
    table = np.empty((box.n_blocks, box.n_modes), dtype=complex)
    for i in range(box.n_blocks):
        flip = box.n_blocks - 1 - i
        table[i] = np.conj(eps[i]) @ x.coeffs[flip]
    return FourierCoeffs("paren", table, box)


def paren_functional(f: WeylElement, d: DiffeoSpec, box: TruncationBox,
                     route: str = "vacuum") -> FourierCoeffs:
    """Paren table of a represented element.

    Route "vacuum" evaluates ``omega(a u_kl)`` through the shift
    multipliers of ``a`` (a Fourier read of the block-0 row); route
    "modular" pairs ``Delta^{1/2} pi(a) xi`` against the conjugated
    basis.
    """
    a = represent(f, d, box)
    if route == "modular":
        # The whole pipeline stays at grid resolution: projecting the
        # vacuum image or the conjugated basis onto the retained band
        # first would charge the comparison with tail mass the vacuum
        # route never sees.
        ctx = _context(d, box)
        rows = a.apply_to_grid(vacuum(box).on_grid()) * ctx.sqrt_delta
        table = np.empty((box.n_blocks, box.n_modes), dtype=complex)
        for i in range(box.n_blocks):
            flip = box.n_blocks - 1 - i
            table[i] = np.conj(_conjugated_rows(ctx, i)) @ rows[flip]
        table /= box.grid_size
        return FourierCoeffs("paren", table, box)
    if route != "vacuum":
        raise ValueError(f"unknown route {route!r}")
    row0 = box.block_bound
    table = np.zeros((box.n_blocks, box.n_modes), dtype=complex)
    for i, k in enumerate(box.blocks()):
        if -int(k) in a.terms:
            table[i] = at_modes(spectrum(a.terms[-int(k)][row0]), -box.modes())
    return FourierCoeffs("paren", table, box)


def anti_transform(c: FourierCoeffs, d: DiffeoSpec) -> GnsVector:
    """Synthesize the vector with the given table.

    Hat tables come back verbatim as coefficients; paren tables expand
    against the conjugated basis (target of the smoothed series).
    """
    box = c.box
    if c.kind == "hat":
        return GnsVector(box, c.table.copy())
    eps = epsilon_basis(d, box)
    coeffs = np.zeros((box.n_blocks, box.n_modes), dtype=complex)
    for i in range(box.n_blocks):
        flip = box.n_blocks - 1 - i
        coeffs[flip] += c.table[i] @ eps[i]
    return GnsVector(box, coeffs)


def classical_limit_compare(f: WeylElement, box: TruncationBox,
                            d: DiffeoSpec | None = None) -> dict[str, float]:
    """Compare both tables against the commutative transform.

    At alpha = 0 with the identity conjugator the element is an honest
    function on the two-torus; its coefficients are recovered here with
    a two dimensional FFT of samples, swapped into the block/mode
    layout (hat picks up (l, k), paren picks up (-l, -k)).
    """
    from .dynamics import rotation

    if d is None:
        d = rotation(0.0, classical=True)
    if not (d.classical and d.alpha == 0.0 and d.is_rotation):
        raise ValueError("classical comparison needs alpha = 0, identity h")
    # g1 > max(K, M) + radius, so no box mode aliases onto the support
    reach = max(box.block_bound, box.mode_bound) + f.sup_radius
    g1 = 1 << max(4, (4 * f.sup_radius + 3).bit_length(), reach.bit_length())
    theta = 2.0 * np.pi * np.arange(g1) / g1
    waves = np.exp(1j * np.multiply.outer(f.keys, theta))
    samples = (waves[:, 0].T * f.values) @ waves[:, 1]
    coeff = spectrum(spectrum(samples), axis=0)
    ks, ls = box.blocks(), box.modes()
    hat = hat_functional(f, d, box).table
    paren = paren_functional(f, d, box, route="vacuum").table
    # table[k, l] against coeff(l, k) and coeff(-l, -k)
    dev_hat = np.abs(hat - at_modes(at_modes(coeff, ls, axis=0), ks).T)
    dev_paren = np.abs(paren - at_modes(at_modes(coeff, -ls, axis=0), -ks).T)
    return {"hat": float(np.max(dev_hat)), "paren": float(np.max(dev_paren))}


def riemann_lebesgue_profile(c: FourierCoeffs) -> np.ndarray:
    """Sup of |table| on the square rings ``max(|k|, |l|) = L``."""
    box = c.box
    rings = max(box.block_bound, box.mode_bound)
    out = np.zeros(rings + 1)
    ks = box.blocks()[:, None] * np.ones_like(box.modes())[None, :]
    ls = np.ones_like(box.blocks())[:, None] * box.modes()[None, :]
    ring_of = np.maximum(np.abs(ks), np.abs(ls))
    mags = np.abs(c.table)
    for ring in range(rings + 1):
        mask = ring_of == ring
        if mask.any():
            out[ring] = float(mags[mask].max())
    return out


def dirichlet_coefficient_table(n: int, d: DiffeoSpec,
                                box: TruncationBox) -> FourierCoeffs:
    """Hat table of the Dirichlet functional by quadrature.

    The degree-n Dirichlet functional pairs an operator's block-0
    diagonal multiplier against the Dirichlet kernel; on the generators
    this produces the 0/1 indicator table supported on the k = 0 row.
    The adjoint of ``u_kl`` has a shift-0 term only when k = 0, so only
    that row is built; its block-0 multiplier is the conjugate of the
    block-0 row of ``u_0l``.
    """
    from .gns import build_u_kl

    g = box.grid_size
    if g < n + box.mode_bound + 48:
        raise GridTooSmallError(
            f"order-{n} kernel quadrature needs grid >= "
            f"{n + box.mode_bound + 48}, got {g}; pass a box with a "
            "larger grid_size")
    ctx = _context(d, box)
    js = np.arange(-n, n + 1)
    kernel = np.exp(1j * np.multiply.outer(js, ctx.theta)).sum(axis=0)
    row0 = box.block_bound
    table = np.zeros((box.n_blocks, box.n_modes), dtype=complex)
    for j, l in enumerate(box.modes()):
        mult = np.conj(build_u_kl(d, box, 0, int(l)).terms[0][row0])
        table[row0, j] = np.mean(mult * kernel)
    return FourierCoeffs("hat", table, box)


def route_agreement(f: WeylElement, d: DiffeoSpec,
                    box: TruncationBox) -> float:
    """Sup deviation between the two paren routes (the ``paren_routes``
    check)."""
    t1 = paren_functional(f, d, box, route="vacuum")
    t2 = paren_functional(f, d, box, route="modular")
    return float(np.max(np.abs(t1.table - t2.table)))
