"""Concrete Hilbert space model: blocks of circle functions.

A vector is a family ``(x_n)_{|n| <= K}`` of trigonometric polynomials
with modes ``|l| <= M``; the pair ``(K, M)`` plus quadrature grid size
is a :class:`TruncationBox`.  Represented algebra elements act block
diagonally up to shifts,

    (A x)_n = sum_s m_{n, s} . x_{n - s},

with multiplier functions ``m_{n, s}(z) = sum_m f(m, s)
exp(2 pi i m (u(z) + alpha (2 n - s)))`` where ``2 pi u`` is the angle
of ``h^{-1}(z)``.  One builder evaluates that sum: a twist table over
(rows x distinct modes) times one wave table.  :func:`represent` reads
every block; :func:`_apply` sums a shift's rows at a time through
:func:`_shift_sum`, the one shift sum, and forms no operator.  The
vacuum sits in block 0, so block s of ``pi(f) xi`` is the single row
``m_{s, s}``: :func:`vacuum_image` reads one row per shift and builds
no operator, and the vacuum-route paren table reads the rows
``m_{0, s}``.  The builder takes a stack of tables over one support
(``weyl._Stack``) and shares its twists across the stack;
:func:`_vacuum_rows` gives the live band rows of a stack of vacuum
images, :func:`_series` and :func:`_expectations` the two state routes
of a stack, and :func:`vacuum_image` and :func:`state_eval` are their
stacks of one.  Stacks carry only live rows, a chunk of tables at a
time (:func:`_chunked`), so their grid rows never outgrow one vector's
(2K + 1, G) array.  Everything downstream (modular operators,
transforms, Dirac blocks) reuses the cached per-box context built here,
the chart: one inverse solve into ``u = h^{-1}``, the densities
``delta_n`` from :mod:`nctorus.dynamics` and the grid waves ``e_l`` (the
J transport is :mod:`nctorus.modular`'s).  The generator products
``u_kl`` are uncached closed forms in the same chart, read row by row,
and the moments of the invariant state are closed forms in the lift
coefficients.  Every phase here, twist, wave or ``u_kl`` row, is
``grids.waves`` of a float times an integer, reduced modulo 1 exactly
before it is rounded.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import DiffeoSpec, _density
from .errors import AlphaMismatchError, OutOfBoxError
from .grids import (Turns, cycles, default_grid_size, grid_angles, inner,
                    l2, on_grid, project_to_modes, spectrum, toeplitz,
                    waves)
from .weyl import WeylElement, _Stack, _stack_of


# The seed of the Lanczos start, the Lanczos steps on the Gram, the cap
# on shift-invert steps, the relative width of the certificate, the
# factor a failed Cholesky raises the gap by, the cap on Cholesky rounds
# before the norm fails closed, the rows a Lanczos basis grows by, and
# the largest triangular block that is inverted by LU rather than by
# halves.
_NORM_SEED = 0
_GRAM_STEPS = 30
_SHIFT_STEPS = 150
_CERTIFY = 1e-12
_RAISE = 10.0
_NORM_ROUNDS = 12
_BASIS_ROWS = 16
_TRIANGULAR_CUTOFF = 32


@dataclass(frozen=True)
class TruncationBox:
    """Block bound K, mode bound M and quadrature grid size G.

    G defaults to the smallest power of two at least ``8 (M + 1)`` and
    is validated against that floor, which keeps multiplier products
    effectively alias free for the analytic conjugators used here.
    """

    block_bound: int
    mode_bound: int
    grid_size: int = 0

    def __post_init__(self):
        if self.block_bound < 0 or self.mode_bound < 0:
            raise ValueError("bounds must be nonnegative")
        g = self.grid_size or default_grid_size(self.mode_bound)
        if g & (g - 1) or g < 8 * (self.mode_bound + 1):
            raise ValueError(
                f"grid size {g} must be a power of two >= 8 (M + 1)")
        object.__setattr__(self, "grid_size", int(g))

    @property
    def n_blocks(self) -> int:
        return 2 * self.block_bound + 1

    @property
    def n_modes(self) -> int:
        return 2 * self.mode_bound + 1

    @property
    def dim(self) -> int:
        return self.n_blocks * self.n_modes

    def blocks(self) -> np.ndarray:
        return np.arange(-self.block_bound, self.block_bound + 1)

    def modes(self) -> np.ndarray:
        return np.arange(-self.mode_bound, self.mode_bound + 1)


class _Context:
    """Per (dynamics, box) chart, shared across modules.

    One inverse solve puts the grid into the chart ``u = H^{-1}(x)``, in
    which the dynamics is the rotation by ``2 alpha``; the chart points
    as exact turns (:attr:`chart`, split once for every chart wave
    table), the densities ``delta_n``
    (:func:`nctorus.dynamics._density`; :meth:`density` reads them for
    any n) and the grid waves ``e_l`` follow.  :attr:`transport` starts
    empty, and :mod:`nctorus.modular` fills it on the first J of the
    context.
    Memory is O((2K + 2M + 2) G), plus 2 * 16 * G^2 bytes once J has run.
    """

    def __init__(self, d: DiffeoSpec, box: TruncationBox):
        self.d = d
        self.box = box
        g = box.grid_size
        self.theta = grid_angles(g)
        self.x = np.arange(g) / g
        self.u = u = d.lift.inverse(self.x)
        self.chart = Turns.of(u)
        self.delta = _density(d, u, box.blocks()[:, None])
        self.sqrt_delta = np.sqrt(self.delta)
        # e_l(theta_j) = exp(2 pi i (l j mod G) / G): the integer product
        # is reduced exactly, where exp(i l theta_j) would round l theta_j
        # (up to about 1600 rad at M = 256) first
        self.waves = waves(self.x, box.modes()[:, None])
        self.transport = None

    def density(self, n) -> np.ndarray:
        """Grid rows ``delta_n`` for a scalar or an array of n: the
        table's rows inside the box, and beyond it
        :func:`nctorus.dynamics._density` on the same chart."""
        n = np.asarray(n)
        inside = np.abs(n) <= self.box.block_bound
        if np.all(inside):
            return self.delta[n + self.box.block_bound]
        rows = _density(self.d, self.u, n[..., None])
        rows[inside] = self.delta[n[inside] + self.box.block_bound]
        return rows


@lru_cache(maxsize=8)
def _context(d: DiffeoSpec, box: TruncationBox) -> _Context:
    return _Context(d, box)


class GnsVector:
    """Block family of mode coefficients, shape (2K + 1, 2M + 1), C order.

    ``coeffs[n + K, l + M]`` is the coefficient of ``z^l`` in block n.
    """

    __slots__ = ("box", "coeffs")

    def __init__(self, box: TruncationBox, coeffs: np.ndarray):
        coeffs = np.ascontiguousarray(coeffs, dtype=complex)
        if coeffs.shape != (box.n_blocks, box.n_modes):
            raise ValueError(
                f"coefficient shape {coeffs.shape} does not match box")
        self.box = box
        self.coeffs = coeffs

    @classmethod
    def zeros(cls, box: TruncationBox) -> "GnsVector":
        return cls(box, np.zeros((box.n_blocks, box.n_modes), dtype=complex))

    def block(self, n: int) -> np.ndarray:
        if abs(n) > self.box.block_bound:
            raise OutOfBoxError(f"block {n} outside |n| <= {self.box.block_bound}")
        return self.coeffs[n + self.box.block_bound]

    def copy(self) -> "GnsVector":
        return GnsVector(self.box, self.coeffs.copy())

    def scaled(self, factor: complex) -> "GnsVector":
        return GnsVector(self.box, factor * self.coeffs)

    def __add__(self, other: "GnsVector") -> "GnsVector":
        return GnsVector(self.box, self.coeffs + other.coeffs)

    def __sub__(self, other: "GnsVector") -> "GnsVector":
        return GnsVector(self.box, self.coeffs - other.coeffs)

    def inner(self, other: "GnsVector") -> complex:
        """Hilbert inner product, linear in the first slot."""
        return complex(inner(self.coeffs, other.coeffs))

    def norm(self) -> float:
        return float(l2(self.coeffs))

    def on_grid(self) -> np.ndarray:
        """All blocks evaluated on the quadrature grid, shape (2K+1, G)."""
        return on_grid(self.coeffs, self.box.grid_size)


def vacuum(box: TruncationBox) -> GnsVector:
    """Cyclic vector: constant 1 in block 0."""
    return basis_vector(box, 0, 0)


def basis_vector(box: TruncationBox, k: int, l: int) -> GnsVector:
    """Orthonormal basis vector ``z^l`` sitting in block k."""
    if abs(k) > box.block_bound or abs(l) > box.mode_bound:
        raise OutOfBoxError(f"(k, l) = ({k}, {l}) outside the box")
    out = GnsVector.zeros(box)
    out.coeffs[k + box.block_bound, l + box.mode_bound] = 1.0
    return out


def random_vector(rng: np.random.Generator, box: TruncationBox,
                  block_margin: int = 0, mode_margin: int = 0) -> GnsVector:
    """Random unit vector supported away from the box edges by the margins."""
    coeffs = np.zeros((box.n_blocks, box.n_modes), dtype=complex)
    bs = slice(block_margin, box.n_blocks - block_margin)
    ms = slice(mode_margin, box.n_modes - mode_margin)
    shape = (box.n_blocks - 2 * block_margin, box.n_modes - 2 * mode_margin)
    coeffs[bs, ms] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs /= l2(coeffs)
    return GnsVector(box, coeffs)


class GnsOperator:
    """Shift-banded operator given by multiplier samples per shift.

    ``terms[s]`` has shape (2K + 1, G); row ``n + K`` holds the
    multiplier applied to the source block ``n - s`` when producing
    block n.
    """

    __slots__ = ("box", "terms")

    def __init__(self, box: TruncationBox, terms: dict[int, np.ndarray]):
        self.box = box
        self.terms = {int(s): np.asarray(t, dtype=complex)
                      for s, t in terms.items()}

    def apply_to_grid(self, source: np.ndarray) -> np.ndarray:
        """Act on raw grid rows, returning complex grid rows.  Products are
        pointwise on the grid, so chaining applications keeps composites
        exact; only :meth:`apply` projects onto the band."""
        return _shift_sum(self.terms.items(), source, self.box.block_bound)

    def apply(self, x: GnsVector) -> GnsVector:
        if x.box != self.box:
            raise ValueError("vector box does not match operator box")
        out = self.apply_to_grid(x.on_grid())
        return GnsVector(self.box, project_to_modes(out, self.box.mode_bound))

    def _adjoint_terms(self):
        """The adjoint's ``(-s, rows)`` pairs, one shift at a time in term
        order: the shift -s multiplier row n is the conjugate of the shift
        s multiplier row n + s, zero where that row leaves the box."""
        for s, mult in self.terms.items():
            arr = np.zeros_like(mult)
            lo, hi = max(0, -s), max(0, -s, len(mult) - max(0, s))
            arr[lo:hi] = np.conj(mult[lo + s:hi + s])
            yield -s, arr

    def adjoint(self) -> "GnsOperator":
        """Adjoint via ``(A*)_{n, s} = conj(m_{n + s, s})`` reindexing
        (:meth:`_adjoint_terms`)."""
        return GnsOperator(self.box, dict(self._adjoint_terms()))

    def scaled(self, factor: complex) -> "GnsOperator":
        return GnsOperator(self.box,
                           {s: factor * t for s, t in self.terms.items()})

    def __add__(self, other: "GnsOperator") -> "GnsOperator":
        if other.box != self.box:
            raise ValueError("operator boxes differ")
        terms = {s: t.copy() for s, t in self.terms.items()}
        for s, t in other.terms.items():
            terms[s] = terms.get(s, 0) + t
        return GnsOperator(self.box, terms)

    def __sub__(self, other: "GnsOperator") -> "GnsOperator":
        return self + other.scaled(-1.0)

    def _block_rows(self):
        """Block rows of the dense matrix, built one row at a time.

        Yields ``(i, cols, blocks)`` per block row i: block ``(i, i - s)``
        is the Toeplitz mode matrix of row i of shift s, and the row
        holds one such block per shift that stays in the box.
        """
        nb, m = self.box.n_blocks, self.box.mode_bound
        if not self.terms:
            return
        shifts = np.array(list(self.terms))
        hats = np.stack([spectrum(mult) for mult in self.terms.values()])
        for i in range(nb):
            live = (0 <= i - shifts) & (i - shifts < nb)
            yield (i, list(i - shifts[live]),
                   list(toeplitz(hats[live, i], m)))

    def dense(self) -> np.ndarray:
        """Dense matrix in the ``basis_vector`` ordering (blocks outer)."""
        box = self.box
        nb, nm = box.n_blocks, box.n_modes
        out = np.zeros((nb, nm, nb, nm), dtype=complex)
        for i, cols, blocks in self._block_rows():
            for j, block in zip(cols, blocks):
                out[i, :, j, :] = block
        return out.reshape(box.dim, box.dim)

    def _band_gram(self) -> np.ndarray:
        """The Gram matrix ``A^H A`` as its lower block band.

        Block row i couples the columns ``j = i - s``, so the Gram couples
        blocks j and j' only when ``|j - j'|`` is at most the spread q of
        the shifts, capped at ``n_blocks - 1`` (the dense case, on the
        same path).  Returns the q + 1 lower block diagonals,
        (n_blocks, q + 1, n_m, n_m): ``[j, t]`` is the Gram block
        ``(j + t, j)``, zero where ``j + t`` leaves the box, and ``[j, 0]``
        is Hermitian.  A block row forms only the pairs the band holds:
        one product per column b, against its columns a >= b.
        """
        nb, nm = self.box.n_blocks, self.box.n_modes
        q = min(max(self.terms, default=0) - min(self.terms, default=0),
                nb - 1)
        band = np.zeros((nb, q + 1, nm, nm), dtype=complex)
        for _, cols, blocks in self._block_rows():
            if not cols:
                continue
            order = np.argsort(cols)
            cols = np.array(cols)[order]
            row = np.hstack([blocks[i] for i in order])
            # A_ia^H A_ib as conj(A_ia)^T A_ib: a transposed view, no
            # conjugated transpose copied per product
            conj = row.conj()
            for p, b in enumerate(cols.tolist()):
                band[b, cols[p:] - b] += (
                    conj[:, p * nm:].T @ row[:, p * nm:(p + 1) * nm]
                ).reshape(-1, nm, nm)
        return band

    def _gram_apply(self, x: np.ndarray) -> np.ndarray:
        """``A^H A x`` of a flat vector on the operator, not on the band:
        :meth:`apply_to_grid` projected to the band, then the adjoint's
        shift sum, one shift's rows at a time (:meth:`_adjoint_terms`)."""
        box = self.box
        m, g = box.mode_bound, box.grid_size
        y = project_to_modes(self.apply_to_grid(
            on_grid(x.reshape(box.n_blocks, -1), g)), m)
        return project_to_modes(_shift_sum(
            self._adjoint_terms(), on_grid(y, g), box.block_bound), m).ravel()

    def norm_estimate(self) -> float:
        """Spectral norm of the dense truncation, ``sqrt(lambda_max(A^H A))``.

        No dim x dim array is formed: the Gram is kept as its lower block
        band (:meth:`_band_gram`).  A short Lanczos run on the Gram,
        applied through the operator (:meth:`_gram_apply`), from a
        fixed-seed random vector gives a lower bound and its residual a
        first shift sigma.  A block Cholesky of ``sigma I - G`` exists
        only when ``sigma > lambda_max``, and Lanczos on its inverse
        (block substitution) separates the clustered top of the spectrum:
        ``sigma - 1 / mu`` is a lower bound on ``lambda_max`` that
        converges fast.  The value is returned once a Cholesky at
        ``lambda (1 + 1e-12)`` certifies it from above; a failed Cholesky
        raises the shift.  NaN when the Gram is not finite or no
        certificate is found in a fixed number of rounds, 0.0 when the
        Gram is zero.

        Memory is one band: the Cholesky overwrites the band it factors
        (:func:`_band_cholesky`), whether it succeeds or not, so every
        factorization after the first drops the old band and factors a
        fresh one from :meth:`_band_gram`.
        """
        band = self._band_gram()
        # the largest diagonal entry, a squared column norm of A, is a
        # lower bound on lambda_max; any non-finite entry of A makes it
        # non-finite
        peak = band[:, 0].diagonal(0, 1, 2).real.max()
        if not np.isfinite(peak):
            return float("nan")
        if peak == 0.0:
            return 0.0
        rng = np.random.default_rng(_NORM_SEED)
        shape = (len(band), band.shape[-1])
        start = (rng.standard_normal(shape)
                 + 1j * rng.standard_normal(shape)).ravel()
        theta, vector, residual = _top_ritz(self._gram_apply, start,
                                            _GRAM_STEPS)
        lower = max(theta, peak)
        gap = max(residual / lower, _CERTIFY)
        for _ in range(_NORM_ROUNDS):
            sigma = lower * (1.0 + gap)
            if band is None:
                band = self._band_gram()
            if not _band_cholesky(band, sigma):
                band = None  # partly overwritten
                gap *= _RAISE
                continue
            if gap <= _CERTIFY:
                return float(np.sqrt(lower))
            mu, vector, _ = _top_ritz(lambda x: _band_solve(band, x),
                                      vector, _SHIFT_STEPS)
            band = None  # the factor goes before the next band is built
            lower = max(lower, sigma - 1.0 / mu)
            gap = _CERTIFY
        return float("nan")


def _band_cholesky(band: np.ndarray, sigma: float) -> bool:
    """Block Cholesky ``sigma I - G = L L^H`` of a Hermitian G given by its
    lower block band (:meth:`GnsOperator._band_gram`'s layout), in place.

    The factor is kept as ``L = (I - N) D`` with D the diagonal blocks
    ``L_jj`` and N strictly block lower, the layout :func:`_band_solve`
    reads with one product per block column each way.  One block column
    j at a time (right-looking): ``[j, 0]`` is overwritten with
    ``L_jj^{-1}`` and ``[j, t]`` with ``N_{j+t, j} = -L_{j+t, j}
    L_jj^{-1}``, and one product of the column's stacked ``L_{j+t, j}``
    with their conjugate transpose updates the trailing blocks, so the
    factor costs no second band.  The trailing blocks hold G plus those
    updates, the negative of what is left of ``sigma I - G`` off the
    diagonal.  Returns False when a pivot block is not positive definite,
    which happens exactly when ``sigma`` is not above the largest
    eigenvalue of G (up to roundoff); the columns before it are
    overwritten by then, so the band holds neither G nor a factor.
    """
    nb, depth, nm, _ = band.shape
    shift = sigma * np.eye(nm)
    for j in range(nb):
        try:
            factor = np.linalg.cholesky(shift - band[j, 0])
        except np.linalg.LinAlgError:
            return False
        band[j, 0] = inverse = _triangular_inverse(factor)
        k = min(depth - 1, nb - 1 - j)
        if not k:
            continue
        column = band[j, 1:k + 1].reshape(k * nm, nm)
        # -L_{j+t, j} = (G_{j+t, j} + updates) L_jj^{-H}, t = 1 .. k
        negated = column @ inverse.conj().T
        update = (negated @ negated.conj().T).reshape(k, nm, k, nm)
        column[...] = negated @ inverse
        for u in range(k):
            # blocks (j + 1 + t, j + 1 + u), t >= u, at [j + 1 + u, t - u]
            band[j + 1 + u, :k - u] += update[u:, :, u]
    return True


def _triangular_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverse of a lower triangular matrix, by halves.

    ``[[A, 0], [C, D]]^{-1} = [[A^{-1}, 0], [-D^{-1} C A^{-1}, D^{-1}]]``;
    up to ``_TRIANGULAR_CUTOFF`` rows the LU inverse does it.  About a
    third of the flops of an LU inverse of the whole.  A NaN entry gives
    NaN, or LinAlgError from the LU inverse of a small block, as the LU
    inverse of the whole does.
    """
    size = len(lower)
    if size <= _TRIANGULAR_CUTOFF:
        return np.linalg.inv(lower)
    half = size // 2
    out = np.zeros_like(lower)
    out[:half, :half] = _triangular_inverse(lower[:half, :half])
    out[half:, half:] = _triangular_inverse(lower[half:, half:])
    out[half:, :half] = -(out[half:, half:] @ lower[half:, :half]
                          @ out[:half, :half])
    return out


def _band_solve(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``(L L^H)^{-1} rhs`` by block forward and back substitution, from
    the factor ``L = (I - N) D`` that :func:`_band_cholesky` leaves in a
    band: block column j stacks ``L_jj^{-1}`` over its blocks of N, so
    each step is one product, ``[L_jj^{-1}; N] z_j`` forward and
    ``[L_jj^{-1}; N]^H (y_j, x_{j+1}, ..)`` back, on the flat vector
    entries ``lo:hi`` of blocks j to j + q."""
    nb, depth, nm, _ = band.shape
    columns = band.reshape(nb, -1, nm)
    y = rhs.copy()
    for j in range(nb):
        lo, hi = j * nm, min(j + depth, nb) * nm
        step = columns[j, :hi - lo] @ y[lo:lo + nm]
        y[lo:lo + nm] = step[:nm]
        y[lo + nm:hi] += step[nm:]
    for j in reversed(range(nb)):
        lo, hi = j * nm, min(j + depth, nb) * nm
        # C^H v as conj(v^H C): no conjugated copy of C
        y[lo:lo + nm] = (y[lo:hi].conj() @ columns[j, :hi - lo]).conj()
    return y


def _top_ritz(apply, start: np.ndarray, steps: int):
    """Largest Ritz pair of at most ``steps`` Lanczos steps, and its
    residual norm ``||A y - theta y||``.

    The basis is reorthogonalized in full (twice per step).  The run
    stops early once the top Ritz value no longer grows, or the Krylov
    space is invariant.  The basis grows with the steps taken, by
    ``_BASIS_ROWS`` rows at a time.
    """
    basis = np.empty((0, start.size), dtype=complex)
    q = start / l2(start)
    alpha: list[float] = []
    beta: list[float] = []
    top = -np.inf
    for k in range(steps):
        if k == len(basis):
            # in place (a realloc), which is safe: no view of the basis
            # outlives a step
            basis.resize((min(k + _BASIS_ROWS, steps), start.size),
                         refcheck=False)
        basis[k] = q
        w = apply(q)
        alpha.append(float(inner(w, q).real))
        for _ in range(2):
            # basis^H w as conj(basis conj(w)): no conjugated basis copy
            w -= (basis[:k + 1] @ w.conj()).conj() @ basis[:k + 1]
        norm = float(l2(w))
        ritz = np.linalg.eigvalsh(_tridiagonal(alpha, beta))[-1]
        if ritz <= top * (1.0 + 4.0 * np.finfo(float).eps) or (
                norm <= 1e-14 * abs(ritz)):
            break
        top = ritz
        beta.append(norm)
        q = w / norm
    values, vectors = np.linalg.eigh(
        _tridiagonal(alpha, beta[:len(alpha) - 1]))
    return (float(values[-1]), vectors[:, -1] @ basis[:len(alpha)],
            norm * abs(vectors[-1, -1]))


def _tridiagonal(alpha: list[float], beta: list[float]) -> np.ndarray:
    return np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)


def _shift_sum(terms, source: np.ndarray, k: int) -> np.ndarray:
    """``out_n = sum_s m_{n, s} x_{n - s}`` over ``terms``' pairs ``(s, m)``
    in order, on grid rows (..., 2K + 1, G), into a complex output."""
    out = np.zeros(source.shape, dtype=complex)
    for s, mult in terms:
        lo, hi = max(0, s), min(2 * k, 2 * k + s) + 1
        if lo < hi:
            out[..., lo:hi, :] += (mult[..., lo:hi, :]
                                   * source[..., lo - s:hi - s, :])
    return out


def _multiplier_rows(f: _Stack, d: DiffeoSpec, box: TruncationBox,
                     bound: int, block_of):
    """Multiplier rows ``m_{n, s} = sum_m f(m, s) exp(2 pi i m u)
    exp(2 pi i alpha m (2 n - s))``, the one evaluation of that sum.

    ``f`` is a stack of tables over one support (a table is
    ``weyl._stack_of(f)``).  Rows are taken for the distinct shifts s of
    the support with ``|s| <= bound``, ascending, at the blocks
    ``n = block_of(s)`` (s a column, so n may add a block axis): every
    block for :func:`represent` and :func:`_apply`, ``n = s`` for the
    vacuum image (the only row of shift s that meets the vacuum),
    ``n = 0`` for the vacuum-route paren table.  Returns the shifts, the
    twist table (tables, shifts, blocks, distinct modes), each cycle
    count reduced by ``grids.waves`` once and shared by the stack, and
    the chart waves ``exp(2 pi i m u)`` (modes, G), ``m u`` exact too.
    Each reader multiplies the slice it reads (:func:`_rows`), so a NaN
    coefficient reaches the rows of its own table and shift only.  An
    alpha mismatch raises; each shift beyond the block range ``2K`` warns
    once (pointing at the caller's caller), whichever bound is kept.
    """
    if f.alpha != d.alpha:
        raise AlphaMismatchError(
            f"element alpha {f.alpha!r} does not match dynamics {d.alpha!r}")
    ss = f.keys[:, 1]
    for s in sorted(set(ss[np.abs(ss) > 2 * box.block_bound].tolist())):
        warnings.warn(f"shift {s} exceeds the block range; term dropped",
                      stacklevel=3)
    keep = np.abs(ss) <= bound
    ms, ss, coeffs = f.keys[keep, 0], ss[keep], f.values[:, keep]
    shifts, shift_at = np.unique(ss, return_inverse=True)
    modes, mode_at = np.unique(ms, return_inverse=True)
    column = shifts[:, None]
    blocks = np.broadcast_arrays(block_of(column), column)[0]
    powers = (2 * blocks[shift_at] - ss[:, None]) * ms[:, None]
    counts, count_at = np.unique(powers, return_inverse=True)
    twists = waves(d.alpha, counts)[count_at].reshape(powers.shape)
    table = np.zeros((len(coeffs),) + blocks.shape + modes.shape,
                     dtype=complex)
    table[:, shift_at, :, mode_at] = twists[:, None] * coeffs.T[:, :, None]
    return shifts, table, _context(d, box).chart.waves(modes[:, None])


def _rows(table: np.ndarray, chart: np.ndarray) -> np.ndarray:
    """A twist-table slice (..., modes) times the chart waves as one
    product over all its rows (a stacked ``@`` is slower)."""
    flat = table.reshape(int(np.prod(table.shape[:-1])), table.shape[-1])
    return (flat @ chart).reshape(table.shape[:-1] + chart.shape[1:])


def represent(f: WeylElement, d: DiffeoSpec, box: TruncationBox) -> GnsOperator:
    """Image of a coefficient table in the block representation: the
    multiplier rows of every shift ``|s| <= 2K`` at every block."""
    shifts, table, chart = _multiplier_rows(_stack_of(f), d, box,
                                            2 * box.block_bound,
                                            lambda s: box.blocks())
    return GnsOperator(box, dict(zip(shifts.tolist(),
                                     _rows(table[0], chart))))


def _apply(f: _Stack, d: DiffeoSpec, box: TruncationBox, rows):
    """``represent(f_i).apply_to_grid`` of grid rows (2K + 1, G), or of
    one such array per table, as (tables, 2K + 1, G) with no operator
    formed: each shift's rows are built as they are summed, bit-equal."""
    shifts, table, chart = _multiplier_rows(f, d, box, 2 * box.block_bound,
                                            lambda s: box.blocks())
    source = np.broadcast_to(rows, (len(table),) + rows.shape[-2:])
    return _shift_sum(((s, _rows(table[:, i], chart))
                       for i, s in enumerate(shifts.tolist())),
                      source, box.block_bound)


def _spread(box: TruncationBox, blocks: np.ndarray,
            rows: np.ndarray) -> np.ndarray:
    """Arrays (..., 2K + 1, W) holding live rows (..., L, W), band or grid,
    at the block indices ``blocks`` and zero elsewhere: the layout of a
    vector, in which its norms and inner products are summed."""
    out = np.zeros(rows.shape[:-2] + (box.n_blocks, rows.shape[-1]),
                   dtype=complex)
    out[..., blocks, :] = rows
    return out


def _shifts(f: _Stack, bound) -> np.ndarray:
    """The distinct shifts s of a support with ``|s| <= bound``, ascending
    (through a set: ``np.unique`` would import ``numpy.ma``)."""
    ss = f.keys[:, 1]
    return np.array(sorted(set(ss[np.abs(ss) <= bound].tolist())),
                    dtype=np.int64)


def _chunked(fn, f: _Stack, box: TruncationBox) -> np.ndarray:
    """``fn`` of consecutive parts of a stack, concatenated.

    Each part's grid rows, one per table and shift, fill at most one
    (2K + 1, G) array, and nothing of a part outlives its call, so a
    stack's transient grid memory is bounded by a single vector's.
    """
    step = max(1, box.n_blocks // max(len(_shifts(f, np.inf)), 1))
    return np.concatenate([fn(f.take(slice(lo, lo + step)))
                           for lo in range(0, max(len(f.values), 1), step)])


def _vacuum_rows(f: _Stack, d: DiffeoSpec,
                 box: TruncationBox) -> tuple[np.ndarray, np.ndarray]:
    """``pi(f_i) xi`` for a stack: the block indices of the shifts and
    the band rows (tables, shifts, 2M + 1), the multiplier row of shift
    s being block s."""
    def band(part):
        _, table, chart = _multiplier_rows(part, d, box, box.block_bound,
                                           lambda s: s)
        return project_to_modes(_rows(table[:, :, 0], chart), box.mode_bound)

    return (_shifts(f, box.block_bound) + box.block_bound,
            _chunked(band, f, box))


def vacuum_image(f: WeylElement, d: DiffeoSpec,
                 box: TruncationBox) -> GnsVector:
    """``pi(f) xi`` without the operator: the vacuum sits in block 0, so
    block s is the single multiplier row of shift s, and only the
    occupied blocks are projected.  Equal to
    ``represent(f, d, box).apply(vacuum(box))`` up to roundoff; the
    stack of one of :func:`_vacuum_rows`."""
    return GnsVector(box, _spread(box, *_vacuum_rows(_stack_of(f), d,
                                                     box))[0])


def _u_kl_rows(d: DiffeoSpec, box: TruncationBox, k, l, n) -> np.ndarray:
    """Rows ``exp(2 pi i l F_{n-k}(x))``: row n of the shift-k ``u_kl``.

    k, l and n broadcast; the grid is the appended last axis, so each
    caller evaluates only the rows it reads and nothing is kept.
    """
    ctx = _context(d, box)
    # F_j = H(u + 2 alpha j) is H(u + frac(2 alpha j)) plus an integer,
    # which l times drops out of the exponential; l F is reduced exactly.
    shift = cycles(2.0 * d.alpha, n - k)
    lift = d.lift.value(ctx.u + shift[..., None])
    return waves(lift, np.asarray(l)[..., None])


def build_u_kl(d: DiffeoSpec, box: TruncationBox, k: int,
               l: int) -> GnsOperator:
    """Unitary generator pair product ``u_kl = W(0, k) * h^l``, represented.

    Its only shift is k, and row n of that shift is the closed-form
    multiplier ``exp(2 pi i l F_{n-k}(x))`` with ``F_j = H(u + 2 alpha j)``
    in the chart ``u = H^{-1}(x)``; no series is truncated, and nothing
    is cached per ``(k, l)``.
    """
    return GnsOperator(box, {k: _u_kl_rows(d, box, k, l, box.blocks())})


def state_coefficients(d: DiffeoSpec, mode_bound: int) -> np.ndarray:
    """Moments ``mu(m) = integral exp(2 pi i m h^{-1}(x)) dx``, closed form.

    Indexed ``-mode_bound .. mode_bound``; these are the coefficients of
    the invariant state on the first generator row.  Substituting
    ``x = H(u)`` gives ``mu(m) = integral exp(2 pi i m u) H'(u) du``, and
    ``H'`` is a trigonometric polynomial: ``mu(0) = 1``,
    ``mu(+-k) = pi k (a_k -+ i b_k)`` for the sin and cos coefficients
    ``a_k``, ``b_k`` of the lift, and every other moment vanishes.  No
    inverse solve and no quadrature.
    """
    positive = np.zeros(mode_bound, dtype=complex)
    for k, a in enumerate(d.lift.sin_coeffs[:mode_bound], start=1):
        positive[k - 1] += np.pi * k * a
    for k, b in enumerate(d.lift.cos_coeffs[:mode_bound], start=1):
        positive[k - 1] -= 1j * np.pi * k * b
    return np.concatenate([np.conj(positive[::-1]), [1.0], positive])


def _series(f: _Stack, d: DiffeoSpec) -> np.ndarray:
    """The series route of :func:`state_eval` for each table of a stack:
    the ``n = 0`` row against the closed-form moments, summed term by
    term in key order from zero, as Python's ``sum`` adds."""
    radius = int(np.abs(f.keys[:, 0]).max(initial=0))
    mu = state_coefficients(d, radius)
    row = f.keys[:, 1] == 0
    terms = f.values[:, row] * mu[f.keys[row, 0] + radius]
    total = np.zeros(len(terms), dtype=complex)
    for term in terms.T:
        total = total + term
    return total


def _expectations(f: _Stack, d: DiffeoSpec,
                  box: TruncationBox | None = None) -> np.ndarray:
    """The gns route of :func:`state_eval` for each table of a stack: its
    whole vacuum image paired with the vacuum, by default on the box of
    the support's shift radius and radius, each at least 1."""
    if box is None:
        box = TruncationBox(max(1, int(np.abs(f.keys[:, 1]).max(initial=0))),
                            max(1, int(np.abs(f.keys).max(initial=0))))
    vac = vacuum(box).coeffs
    return np.array([inner(x, vac) for x in
                     _spread(box, *_vacuum_rows(f, d, box))], dtype=complex)


def state_eval(f: WeylElement, d: DiffeoSpec, route: str = "series",
               box: TruncationBox | None = None) -> complex:
    """Invariant state applied to a table, by series or by inner product.

    The series route contracts the ``n = 0`` row of the table against
    the closed-form moments; the gns route takes the vacuum expectation
    of the element's vacuum image on a box, by grid quadrature.  The
    two are compared in the verification suite.
    """
    if route == "series":
        return complex(_series(_stack_of(f), d)[0])
    if route == "gns":
        return complex(_expectations(_stack_of(f), d, box)[0])
    raise ValueError(f"unknown route {route!r}")
