"""Modular operators attached to the invariant state.

On the block space the positive operator Delta acts within block n as
multiplication by the density ``delta_n(z)``, and the conjugation J is

    (J x)_n(z) = delta_n(z)^{1/2} conj(x_{-n}(f^n(z))).

J is evaluated with a transport: resample into the chart
``u = H^{-1}(x)``, rotate by ``2 alpha n`` as a phase, resample back.
This module is the one home of that transport.  It is built on the
first J of a per-box context and kept on it, so a context that never
applies J never pays for its two G x G maps.  :func:`apply_J`, the
conjugated Borel calculus, the paren synthesis and the rows of the
conjugated basis ``eps_kl = J e_kl`` (:func:`_j_waves`, from the kept
u-spectra of the waves) apply it, and the paren pairings against that
basis apply its transpose.  :func:`_j_rows` moves the live rows of a
whole stack of vectors in one batch, each row with the bits it has in
any other batch; its second half, :func:`_j_spectra`, is the one place
that maps a block to its image.
:func:`_tomita_deviations` checks the Tomita relation on a stack of
tables, :func:`tomita_check` being its stack of one.
:func:`_borel_stack` gives J and the conjugated Borel calculus
``J fn(Delta) J`` on a stack of vectors, two transports for any number
of fns: :func:`apply_J`, :func:`conjugated_borel_apply` and
:func:`borel_identity_check` read it on one vector, and verify's J
probes (:func:`_probe_pair`) on a pair.  Projecting the intermediate
``J x`` onto the retained band would contaminate the composite with
truncation error that neither route owns, so it stays at grid
resolution.

Powers and more general Borel functions of Delta are blockwise grid
multiplications followed by re-projection onto the retained modes; the
dropped spectral mass is watched and raised as :class:`AliasingError`
when it exceeds the fixed relative tail tolerance or is not finite.
"""

from __future__ import annotations

import numpy as np

from .dynamics import DiffeoSpec
from .errors import AliasingError, SingularBlockError
from .gns import (GnsVector, TruncationBox, _chunked, _context,
                  _multiplier_rows, _rows, _spread, _vacuum_rows)
from .grids import (at_modes, frequencies, inner, l2, on_grid,
                    project_to_modes, spectrum, tail_mass, waves)
from .weyl import WeylElement, _involution_stack, _Stack, _stack_of

_DEFAULT_TAIL = 1e-6


def _band(box: TruncationBox, grid_rows: np.ndarray, norm: float,
          label: str) -> np.ndarray:
    """Band coefficients of grid rows computed from a vector of norm
    ``norm``; raise unless the dropped mass is finite and within
    ``_DEFAULT_TAIL`` of a finite norm."""
    c = spectrum(grid_rows)
    dropped = tail_mass(c, box.mode_bound)
    if not (np.isfinite(norm) and dropped <= _DEFAULT_TAIL * norm):
        raise AliasingError(
            f"{label} dropped {dropped:.3e} of norm {norm:.3e} "
            f"(relative tolerance {_DEFAULT_TAIL:.1e})")
    return at_modes(c, box.modes())


def _reproject(x: GnsVector, grid_rows: np.ndarray, label: str) -> GnsVector:
    """Project grid rows computed from x to the band, gated by |x|."""
    return GnsVector(x.box, _band(x.box, grid_rows, x.norm(), label))


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
    the u-spectra of the grid waves e_l.  The three tables are
    ``grids.waves``: ``exp(2 pi i l H(x_j))``, ``exp(2 pi i 2 alpha n l)``
    from the integer ``n l`` and ``exp(2 pi i l u_j)``, each phase reduced
    exactly."""
    if ctx.transport is None:
        d, freqs = ctx.d, frequencies(ctx.box.grid_size)
        to_chart = spectrum(spectrum(waves(d.lift.value(ctx.x)[:, None],
                                           freqs), axis=0)).T
        ctx.transport = (to_chart,
                         waves(2.0 * d.alpha,
                               np.multiply.outer(ctx.box.blocks(), freqs)),
                         waves(ctx.u[:, None], freqs).T,
                         ctx.waves @ to_chart)
    return ctx.transport


def _live(rows: np.ndarray) -> np.ndarray:
    """Indices of the rows with a nonzero (or NaN) entry, ascending."""
    return np.flatnonzero(np.any(rows != 0, axis=-1))


def _times(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Rows (..., G) times a transport matrix as one product.

    A lone row is batched with a zero row: numpy hands a one-row product
    to gemv, whose sums run in another order than gemm's, and with two
    rows or more every row of a product is bit-equal to the same row of
    the all-rows product.
    """
    flat = rows.reshape(-1, rows.shape[-1])
    count = len(flat)
    if count == 1:
        flat = np.concatenate([flat, np.zeros_like(flat)])
    return (flat @ matrix)[:count].reshape(rows.shape[:-1] + matrix.shape[1:])


def _j_rows(ctx, blocks: np.ndarray,
            rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One J step on the live grid rows of a stack of vectors.

    ``rows[..., i, :]`` is block ``blocks[i]`` (ascending) of each vector,
    every other block being zero.  Returns the blocks of the image,
    ascending, and its rows: row n is ``delta_n^{1/2} conj(y_{-n} o F_n)``,
    the rows of the whole stack in one transport batch, each bit-equal to
    its row in a batch of any other size.  Only live rows are carried, so
    a stack of vacuum images moves its occupied blocks and nothing else.
    """
    spectra = _times(rows, _transport(ctx)[0])
    return _j_spectra(ctx, blocks, spectra, out=spectra)


def _j_spectra(ctx, blocks: np.ndarray, spectra: np.ndarray, out=None):
    """:func:`_j_rows` from the u-spectra of its rows, phased into ``out``
    (a new array by default: a kept table is read, never written)."""
    _, phase, from_chart, _ = _transport(ctx)
    image = ctx.box.n_blocks - 1 - blocks
    moved = _times(np.multiply(spectra, phase[image], out=out), from_chart)
    np.conj(moved, out=moved)
    moved *= ctx.sqrt_delta[image]
    return image[::-1], moved[..., ::-1, :]


def _j_waves(ctx, block: int, modes) -> tuple[int, np.ndarray]:
    """J of the grid waves at mode indices ``modes`` in block index
    ``block``, from their kept u-spectra: the image index, rows (modes, G)."""
    (image,), rows = _j_spectra(ctx, np.array([block]),
                                _transport(ctx)[3][modes][:, None])
    return image, rows[:, 0]


def _j_on_grid(ctx, rows: np.ndarray) -> np.ndarray:
    """One J step on raw grid rows, keeping all grid modes: the vector
    case of :func:`_j_rows`, with the live rows found here.  A zero row
    stays exactly zero."""
    blocks = _live(rows)
    return _spread(ctx.box, *_j_rows(ctx, blocks, rows[blocks]))


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
    spectra = _times(ctx.sqrt_delta[::-1][live] * flipped[live],
                     from_chart.T)
    # spectra times phase in this order at every size (see grids.inner)
    np.multiply(spectra, phase[::-1][live], out=spectra)
    table[live] = _times(spectra, wave_spectra.T) / ctx.box.grid_size
    return table


def _root_stack(f: _Stack, d: DiffeoSpec,
                box: TruncationBox) -> tuple[np.ndarray, np.ndarray]:
    """Unprojected grid rows of ``Delta^{1/2} pi(f_i) xi`` for a stack of
    tables, built only here: the blocks of the shifts and their rows
    (tables, shifts, G)."""
    shifts, table, chart = _multiplier_rows(f, d, box, box.block_bound,
                                            lambda s: s)
    at = shifts + box.block_bound
    rows = _rows(table[:, :, 0], chart)
    rows *= _context(d, box).sqrt_delta[at]
    return at, rows


def _root_rows(f: WeylElement, d: DiffeoSpec, box: TruncationBox):
    """Unprojected grid rows of ``Delta^{1/2} pi(f) xi``, all blocks; only
    the blocks of the shifts of f are filled."""
    return _spread(box, *_root_stack(_stack_of(f), d, box))[0]


def _tomita_deviations(f: _Stack, d: DiffeoSpec,
                       box: TruncationBox) -> np.ndarray:
    """``|J Delta^{1/2} pi(f_i) xi - pi(f_i*) xi|`` for each table of a
    stack, the left side composed on the grid and projected once; one
    transport per chunk of tables (:func:`nctorus.gns._chunked`)."""
    ctx = _context(d, box)

    def deviations(part):
        blocks, right = _vacuum_rows(_involution_stack(part), d, box)
        at, moved = _j_rows(ctx, *_root_stack(part, d, box))
        gap = _spread(box, at, project_to_modes(moved, box.mode_bound))
        gap[:, blocks] -= right
        return l2(gap.reshape(len(gap), box.n_blocks * box.n_modes), axis=-1)

    return _chunked(deviations, f, box)


def tomita_check(f: WeylElement, d: DiffeoSpec, box: TruncationBox) -> float:
    """Deviation of ``J Delta^{1/2} pi(f) xi`` from ``pi(f*) xi``, the
    left side composed on the grid and projected once; the stack of one
    of :func:`_tomita_deviations`."""
    return float(_tomita_deviations(_stack_of(f), d, box)[0])


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


def _borel_stack(ctx, blocks: np.ndarray, rows: np.ndarray, norms, fns):
    """J and the conjugated Borel calculus on a stack of vectors.

    ``rows[i]`` holds the grid rows of vector ``x_i`` at the ascending
    ``blocks`` (every other block zero) and ``norms[i]`` its norm.  One
    transport moves the rows of the whole stack; one more moves the rows
    of ``J x_0`` times ``fn(Delta)`` for every fn of ``fns``, so the
    intermediates stay at grid resolution and only the results are
    projected.  Returns three readers, each projecting onto the band
    through its aliasing gate when called, so a caller meets the gates
    in the order it reads: ``j(i)`` gives the coefficients of ``J x_i``,
    ``left(k)`` those of ``J fn_k(Delta) J x_0`` and ``right(k)`` those
    of ``conj-fn_k(Delta^{-1}) x_0``.  The fns are evaluated on the
    occupied blocks only.
    """
    box = ctx.box
    at, moved = _j_rows(ctx, blocks, rows)
    forward = np.array([_fn_values(fn, ctx.delta[at]) for fn in fns],
                       dtype=complex).reshape((len(fns),) + moved.shape[1:])
    back_at, back = _j_rows(ctx, at, moved[0] * forward)

    def gated(where, grid_rows, norm, label):
        return _spread(box, where, _band(box, grid_rows, norm, label))

    def j(i):
        return gated(at, moved[i], norms[i], "J")

    def left(k):
        return gated(back_at, back[k], norms[0], "conjugated Borel calculus")

    def right(k):
        inverse = _fn_values(fns[k], ctx.delta[blocks], inverse=True,
                             conjugate=True)
        return gated(blocks, rows[0] * inverse, norms[0], "Borel calculus")

    return j, left, right


def _borel_vector(x: GnsVector, d: DiffeoSpec, fns):
    """:func:`_borel_stack` on the live rows of one vector."""
    rows = x.on_grid()
    blocks = _live(rows)
    return _borel_stack(_context(d, x.box), blocks, rows[None, blocks],
                        [x.norm()], fns)


def apply_J(x: GnsVector, d: DiffeoSpec) -> GnsVector:
    """Modular conjugation, an antiunitary involution."""
    return GnsVector(x.box, _borel_vector(x, d, ())[0](0))


def conjugated_borel_apply(x: GnsVector, fn, d: DiffeoSpec) -> GnsVector:
    """Apply ``J fn(Delta) J`` with intermediates at grid resolution.

    Only the final result is projected back onto the retained band, so
    the composite is exact up to grid aliasing of analytic tails.
    """
    return GnsVector(x.box, _borel_vector(x, d, (fn,))[1](0))


def borel_identity_check(fn, x: GnsVector, d: DiffeoSpec) -> float:
    """Deviation in ``J fn(Delta) J = conj-fn(Delta^{-1})`` applied to x."""
    _, left, right = _borel_vector(x, d, (fn,))
    return float(l2(left(0) - right(0)))


def _probe_pair(f: _Stack, d: DiffeoSpec, box: TruncationBox,
                fns) -> tuple[float, float, float]:
    """The J probes of a stack of two tables with vacuum images x and y:
    ``|J J x - x|``, ``|<J x, J y> - <y, x>|`` and the largest
    ``|J fn(Delta) J x - conj-fn(Delta^{-1}) x|`` over fns.

    One :func:`_borel_stack` of ``[x; y]`` with the power 0 ahead of the
    fns, read in the order of :func:`conjugated_borel_apply` at the power
    0, :func:`apply_J` on x and y, and :func:`borel_identity_check` for
    each fn, so each value has their bits and the first aliasing gate to
    trip raises their error.
    """
    blocks, coeffs = _vacuum_rows(f, d, box)
    x, y = _spread(box, blocks, coeffs)
    j, left, right = _borel_stack(
        _context(d, box), blocks, on_grid(coeffs, box.grid_size),
        [float(l2(x)), float(l2(y))], (("power", 0.0),) + fns)
    involution = float(l2(left(0) - x))
    anti = abs(complex(inner(j(0), j(1))) - complex(inner(y, x)))
    borel = [float(l2(left(k) - right(k))) for k in range(1, len(fns) + 1)]
    return involution, anti, np.max(borel, initial=0.0)
