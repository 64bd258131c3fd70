"""Modular operators attached to the invariant state.

On the block space the positive operator Delta acts within block n as
multiplication by the density ``delta_n(z)``, and the conjugation J is

    (J x)_n(z) = delta_n(z)^{1/2} conj(x_{-n}(f^n(z))).

J is evaluated with a transport: resample into the chart
``u = H^{-1}(x)``, rotate by ``2 alpha n`` as a phase, resample back.
This module is the one home of that transport.  It is built on the
first J of a per-box context and kept on it, so a context that never
applies J never pays for its two G x G maps.  :func:`apply_J`, the
conjugated Borel calculus, the paren synthesis and the Dirac oracle
apply it, and the paren pairings against the conjugated basis
``eps_kl = J e_kl`` apply its transpose.

Powers and more general Borel functions of Delta are blockwise grid
multiplications followed by re-projection onto the retained modes; the
dropped spectral mass is watched and raised as :class:`AliasingError`
when it exceeds the fixed relative tail tolerance or is not finite.
"""

from __future__ import annotations

import numpy as np

from .dynamics import DiffeoSpec
from .errors import AliasingError, SingularBlockError
from .gns import (GnsVector, TruncationBox, _context, _multiplier_rows,
                  _waves, vacuum_image)
from .grids import (at_modes, frequencies, project_to_modes, spectrum,
                    tail_mass)
from .weyl import WeylElement, involution

_DEFAULT_TAIL = 1e-6


def _reproject(x: GnsVector, grid_rows: np.ndarray, label: str) -> GnsVector:
    """Project grid rows computed from x to the band; raise unless the
    dropped mass is finite and within ``_DEFAULT_TAIL`` of a finite |x|."""
    c, ref_norm = spectrum(grid_rows), x.norm()
    dropped = tail_mass(c, x.box.mode_bound)
    if not (np.isfinite(ref_norm) and dropped <= _DEFAULT_TAIL * ref_norm):
        raise AliasingError(
            f"{label} dropped {dropped:.3e} of norm {ref_norm:.3e} "
            f"(relative tolerance {_DEFAULT_TAIL:.1e})")
    return GnsVector(x.box, at_modes(c, x.box.modes()))


def apply_delta_power(x: GnsVector, a: float, d: DiffeoSpec) -> GnsVector:
    """Apply ``Delta^(a/2)``: block n multiplies by ``delta_n^(a/2)``.

    The half-power convention makes ``a = 1`` the modular square root
    used by the closure ``S = J Delta^{1/2}``.
    """
    rows = x.on_grid() * _context(d, x.box).delta ** (0.5 * a)
    return _reproject(x, rows, f"Delta^{a}/2")


def _transport(ctx):
    """``(to_chart, phase, from_chart, wave_spectra)``, built on the first
    call for a context and kept in ``ctx.transport``.  Grid rows y times
    ``to_chart`` are the u-spectra of ``y o H`` (accurate while they decay
    inside the grid band), times ``phase[n + K]`` rotated by ``2 alpha n``,
    times ``from_chart`` the samples of ``y o F_n``; ``wave_spectra`` are
    the u-spectra of the grid waves e_l."""
    if ctx.transport is None:
        d, freqs = ctx.d, frequencies(ctx.box.grid_size)
        to_chart = spectrum(spectrum(_waves(d.lift.value(ctx.x), freqs),
                                     axis=0)).T
        ctx.transport = (to_chart,
                         _waves(2.0 * d.alpha * ctx.box.blocks(), freqs),
                         _waves(ctx.u, freqs).T, ctx.waves @ to_chart)
    return ctx.transport


def _live(rows: np.ndarray) -> np.ndarray:
    """Indices of the rows with a nonzero (or NaN) entry, ascending.

    A lone live row is batched with a zero row: numpy hands a one-row
    product to gemv, whose sums run in another order than gemm's, and
    with two rows or more every row of a transport is bit-equal to the
    same row of the all-rows product.
    """
    return _batched(np.flatnonzero(np.any(rows != 0, axis=-1)), len(rows))


def _batched(index: np.ndarray, size: int) -> np.ndarray:
    """Ascending ``index`` into ``size`` rows, with a second row added
    when it holds only one (see :func:`_live`)."""
    if len(index) == 1 and size > 1:
        index = np.union1d(index, [1 if index[0] == 0 else 0])
    return index


def _j_on_grid(ctx, rows: np.ndarray) -> np.ndarray:
    """One J step on raw grid rows, keeping all grid modes.

    Row n becomes ``delta_n^{1/2} conj(y_{-n} o F_n)``, every live row
    in one transport batch; a zero row stays exactly zero, so a vacuum
    image moves only its occupied blocks.  The conjugated Borel calculus
    chains these steps: projecting the intermediate vectors onto the
    retained band would contaminate the composite with truncation error
    that neither route owns.
    """
    to_chart, phase, from_chart, _ = _transport(ctx)
    flipped = rows[::-1]
    live = _live(flipped)
    out = np.zeros(rows.shape, dtype=complex)
    spectra = flipped[live] @ to_chart
    out[live] = ctx.sqrt_delta[live] * np.conj(
        (spectra * phase[live]) @ from_chart)
    return out


def _epsilon_pairings(ctx, rows: np.ndarray) -> np.ndarray:
    """Quadrature pairings ``<y, eps_kl>`` of grid rows y, all (k, l).

    Entry ``[k + K, l + M]`` pairs block ``-k`` of y with the only
    nonzero block of ``eps_kl = J e_kl``.  The transport is a fixed
    linear map, so the whole table is its transpose applied to
    ``delta^{1/2} y``: two matrix products over the live blocks, with no
    per-block basis; the rows of the other blocks stay exactly zero.
    """
    _, phase, from_chart, wave_spectra = _transport(ctx)
    flipped = rows[::-1]
    live = _live(flipped)
    table = np.zeros((ctx.box.n_blocks, ctx.box.n_modes), dtype=complex)
    spectra = (ctx.sqrt_delta[::-1][live] * flipped[live]) @ from_chart.T
    table[live] = ((spectra * phase[::-1][live]) @ wave_spectra.T
                   / ctx.box.grid_size)
    return table


def _conjugated_rows(ctx, i: int, modes: np.ndarray) -> np.ndarray:
    """Grid rows of ``eps_kl = J e_kl`` for the block ``k`` of row i and
    the ascending mode indices ``l + M`` in ``modes``.

    Row l holds ``delta_{-k}^{1/2} conj(e_l o F_{-k})``, the block
    ``-k`` component (the only one that is nonzero), at grid resolution.
    This per-block form serves the reference basis
    :func:`nctorus.fourier.epsilon_basis` (all modes) and the Dirac
    eta = 1/2 oracle (its window); a lone mode is batched as in
    :func:`_live`, so every row is bit-equal to the all-modes row.
    """
    _, phase, from_chart, wave_spectra = _transport(ctx)
    flip = ctx.box.n_blocks - 1 - i
    batch = _batched(modes, len(wave_spectra))
    rows = ctx.sqrt_delta[flip] * np.conj(
        (wave_spectra[batch] * phase[flip]) @ from_chart)
    return rows[np.isin(batch, modes)]


def apply_J(x: GnsVector, d: DiffeoSpec) -> GnsVector:
    """Modular conjugation, an antiunitary involution."""
    rows = _j_on_grid(_context(d, x.box), x.on_grid())
    return _reproject(x, rows, "J")


def _root_rows(f: WeylElement, d: DiffeoSpec, box: TruncationBox):
    """Unprojected grid rows of ``Delta^{1/2} pi(f) xi``; built only here.

    Only the blocks of the shifts of f are filled; the others are zero.
    """
    ctx = _context(d, box)
    shifts, rows = _multiplier_rows(f, d, box, box.block_bound, lambda s: s)
    out = np.zeros((box.n_blocks, box.grid_size), dtype=complex)
    at = shifts + box.block_bound
    out[at] = rows[:, 0] * ctx.sqrt_delta[at]
    return out


def tomita_check(f: WeylElement, d: DiffeoSpec, box: TruncationBox) -> float:
    """Deviation of ``J Delta^{1/2} pi(f) xi`` from ``pi(f*) xi``, the
    left side composed on the grid and projected once."""
    rows = _j_on_grid(_context(d, box), _root_rows(f, d, box))
    left = GnsVector(box, project_to_modes(rows, box.mode_bound))
    right = vacuum_image(involution(f), d, box)
    return (left - right).norm()


def _fn_values(fn, t: np.ndarray, inverse: bool = False,
               conjugate: bool = False) -> np.ndarray:
    """Evaluate a tagged function descriptor on positive spectra ``t``."""
    arg = 1.0 / t if inverse else t
    kind = fn[0]
    if kind == "power":
        return np.asarray(arg, dtype=complex) ** float(fn[1])
    if kind == "rational":
        num, den = (np.conj(c) if conjugate else np.asarray(c, dtype=complex)
                    for c in fn[1:3])
        den_vals = np.polyval(den, arg)
        if float(np.min(np.abs(den_vals))) < 1e-12:
            raise SingularBlockError(
                "rational denominator vanishes on the spectrum")
        return np.polyval(num, arg) / den_vals
    raise ValueError(f"unknown function descriptor {fn!r}")


def borel_apply(x: GnsVector, fn, d: DiffeoSpec) -> GnsVector:
    """Apply ``fn(Delta)`` for fn in the small dictionary.

    ``fn`` is ``("power", a)`` for ``t^a`` or ``("rational", num, den)``
    with polynomial coefficient sequences in numpy order.
    """
    rows = x.on_grid() * _fn_values(fn, _context(d, x.box).delta)
    return _reproject(x, rows, "Borel calculus")


def conjugated_borel_apply(x: GnsVector, fn, d: DiffeoSpec) -> GnsVector:
    """Apply ``J fn(Delta) J`` with intermediates at grid resolution.

    Only the final result is projected back onto the retained band, so
    the composite is exact up to grid aliasing of analytic tails.
    """
    ctx = _context(d, x.box)
    rows = _j_on_grid(ctx, x.on_grid())
    rows = rows * _fn_values(fn, ctx.delta)
    rows = _j_on_grid(ctx, rows)
    return _reproject(x, rows, "conjugated Borel calculus")


def borel_identity_check(fn, x: GnsVector, d: DiffeoSpec) -> float:
    """Deviation in ``J fn(Delta) J = conj-fn(Delta^{-1})`` applied to x."""
    left = conjugated_borel_apply(x, fn, d)
    ctx = _context(d, x.box)
    rows = x.on_grid() * _fn_values(fn, ctx.delta, inverse=True,
                                    conjugate=True)
    right = _reproject(x, rows, "Borel calculus")
    return (left - right).norm()
