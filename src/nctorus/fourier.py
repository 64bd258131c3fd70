"""Hat and paren coefficient tables and their inversions.

For a represented element ``a`` with vacuum image ``x = pi(a) xi`` the
hat table is plain coefficient read-off, ``hat(k, l) = <x, e_kl>``,
while the paren table pairs against the conjugated basis
``eps_kl = J e_kl``:

    paren(k, l) = omega(a u_kl) = <Delta^{1/2} x, eps_kl>.

The second equality is the route-agreement fact checked in the test
surface; both routes are implemented below.  No eps table is kept: J is
antilinear, so the pairings with every ``eps_kl`` are the transposed J
transport applied to ``Delta^{1/2} x``, and the paren synthesis
``sum c_kl eps_kl`` is ``J`` of the vector with coefficients
``conj(c_kl)``.  :func:`epsilon_basis` builds the basis itself on
request, as a reference: J of the waves ``e_l`` of each block, from the
u-spectra of the waves that the J transport keeps, one block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import DiffeoSpec, rotation
from .errors import GridTooSmallError
from .gns import (GnsVector, TruncationBox, _context, _one_block_rows,
                  _u_kl_rows, vacuum_image)
from .grids import at_modes, dirichlet_kernel, l2, project_to_modes, spectrum
from .modular import _epsilon_pairings, _j_on_grid, _j_waves, _root_rows
from .weyl import WeylElement, _stack_of


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
        return float(l2(self.table))

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
    return hat_vector(vacuum_image(f, d, box))


def epsilon_basis(d: DiffeoSpec, box: TruncationBox) -> np.ndarray:
    """Coefficients of ``eps_kl = J e_kl``, built on request; reference.

    ``eps[k + K, l + M]`` holds the mode coefficients of the block
    ``-k`` component ``delta_{-k}(z)^{1/2} f^{-k}(z)^{-l}``; all other
    blocks vanish.  The transforms below never build this table.
    """
    ctx = _context(d, box)
    return np.stack([project_to_modes(_j_waves(ctx, i, slice(None))[1],
                                      box.mode_bound)
                     for i in range(box.n_blocks)])


def paren_vector(x: GnsVector, d: DiffeoSpec) -> FourierCoeffs:
    """Pair a vector against the conjugated basis."""
    table = _epsilon_pairings(_context(d, x.box), x.on_grid())
    return FourierCoeffs("paren", table, x.box)


def paren_functional(f: WeylElement, d: DiffeoSpec, box: TruncationBox,
                     route: str = "vacuum") -> FourierCoeffs:
    """Paren table of a represented element.

    Route "vacuum" evaluates ``omega(a u_kl)`` through the shift
    multipliers of ``a`` (a Fourier read of the block-0 row); route
    "modular" pairs ``Delta^{1/2} pi(a) xi`` against the conjugated
    basis.
    """
    if route == "modular":
        # grid resolution throughout: a band cut would charge the
        # comparison with tail mass the vacuum route never sees
        table = _epsilon_pairings(_context(d, box), _root_rows(f, d, box))
        return FourierCoeffs("paren", table, box)
    if route != "vacuum":
        raise ValueError(f"unknown route {route!r}")
    return _vacuum_paren(f, d, box)


def _vacuum_paren(f: WeylElement, d: DiffeoSpec,
                  box: TruncationBox) -> FourierCoeffs:
    """Paren table read off row n = 0 of each shift multiplier: entry
    ``(k, l)`` is the mode ``-l`` of the shift ``-k`` row."""
    shifts, rows = _one_block_rows(_stack_of(f), d, box, lambda s: 0)
    table = np.zeros((box.n_blocks, box.n_modes), dtype=complex)
    table[box.block_bound - shifts] = at_modes(spectrum(rows[0]), -box.modes())
    return FourierCoeffs("paren", table, box)


def anti_transform(c: FourierCoeffs, d: DiffeoSpec) -> GnsVector:
    """Synthesize the vector with the given table.

    Hat tables come back verbatim as coefficients; paren tables expand
    against the conjugated basis (target of the smoothed series), which
    by antilinearity is ``J`` of the conjugated table read as a vector.
    """
    box = c.box
    if c.kind == "hat":
        return GnsVector(box, c.table.copy())
    rows = GnsVector(box, np.conj(c.table)).on_grid()
    rows = _j_on_grid(_context(d, box), rows)
    return GnsVector(box, project_to_modes(rows, box.mode_bound))


def classical_limit_compare(f: WeylElement, box: TruncationBox,
                            d: DiffeoSpec | None = None) -> dict[str, float]:
    """Compare both tables against the commutative transform.

    At alpha = 0 with the identity conjugator the element is an honest
    function on the two-torus, ``sum f(m, n) z1^m z2^n``, and its
    commutative Fourier transform is the table f itself.  The oracle is
    that table scattered into the block/mode layout: hat(k, l) reads
    f(l, k) and paren(k, l) reads f(-l, -k); keys outside the box drop.
    """
    if d is None:
        d = rotation(0.0, classical=True)
    if not (d.classical and d.alpha == 0.0 and d.is_rotation):
        raise ValueError("classical comparison needs alpha = 0, identity h")
    hat = hat_functional(f, d, box).table
    paren = _vacuum_paren(f, d, box).table
    dev_hat = np.abs(hat - _swapped_table(f, box, 1))
    dev_paren = np.abs(paren - _swapped_table(f, box, -1))
    return {"hat": float(np.max(dev_hat)), "paren": float(np.max(dev_paren))}


def _swapped_table(f: WeylElement, box: TruncationBox,
                   sign: int) -> np.ndarray:
    """Box table holding ``f(m, n)`` at (k, l) = (sign n, sign m)."""
    ks, ls = sign * f.keys[:, 1], sign * f.keys[:, 0]
    inside = (np.abs(ks) <= box.block_bound) & (np.abs(ls) <= box.mode_bound)
    table = np.zeros((box.n_blocks, box.n_modes), dtype=complex)
    table[ks[inside] + box.block_bound,
          ls[inside] + box.mode_bound] = f.values[inside]
    return table


def riemann_lebesgue_profile(c: FourierCoeffs) -> np.ndarray:
    """Sup of |table| on the square rings ``max(|k|, |l|) = L``, one
    scatter-max over the ring index (a NaN entry makes its ring NaN)."""
    box = c.box
    ring_of = np.maximum.outer(np.abs(box.blocks()), np.abs(box.modes()))
    out = np.zeros(max(box.block_bound, box.mode_bound) + 1)
    np.maximum.at(out, ring_of, np.abs(c.table))
    return out


def dirichlet_coefficient_table(n: int, d: DiffeoSpec,
                                box: TruncationBox) -> FourierCoeffs:
    """Hat table of the Dirichlet functional by quadrature.

    The degree-n Dirichlet functional pairs an operator's block-0
    diagonal multiplier against the Dirichlet kernel (its closed form,
    sampled on the grid); on the generators this produces the 0/1
    indicator table supported on the k = 0 row.
    The adjoint of ``u_kl`` has a shift-0 term only when k = 0, so only
    that row is filled; its block-0 multipliers are the conjugates of the
    block-0 rows of the ``u_0l``, evaluated together as one stack.
    """
    g = box.grid_size
    if g < n + box.mode_bound + 48:
        raise GridTooSmallError(
            f"order-{n} kernel quadrature needs grid >= "
            f"{n + box.mode_bound + 48}, got {g}; pass a box with a "
            "larger grid_size")
    kernel = dirichlet_kernel(n, _context(d, box).theta)
    table = np.zeros((box.n_blocks, box.n_modes), dtype=complex)
    mults = np.conj(_u_kl_rows(d, box, 0, box.modes(), 0))
    table[box.block_bound] = np.mean(mults * kernel, axis=-1)
    return FourierCoeffs("hat", table, box)


def route_agreement(f: WeylElement, d: DiffeoSpec,
                    box: TruncationBox) -> float:
    """Sup deviation between the two paren routes (the ``paren_routes``
    check)."""
    t1 = paren_functional(f, d, box, route="vacuum")
    t2 = paren_functional(f, d, box, route="modular")
    return float(np.max(np.abs(t1.table - t2.table)))
