"""Truncated cyclic representation: basis, characters, state evaluation.

The conjugator mode tables have the closed form J_{m-l}(0.3 l) (Bessel
functions of the first kind), since the benchmark writes h(e^(i t)) as
exp(i t + 0.3 i sin t) up to the angle scaling.  scipy provides the
independent oracle for that identity.
"""

import inspect
import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

from nctorus import (cli, dynamics, fourier, gns, grids, modular, summation,
                     weyl)
from nctorus.errors import AlphaMismatchError, OutOfBoxError
from nctorus.gns import TruncationBox

import oracle


def test_box_layout():
    b = TruncationBox(3, 4)
    assert b.n_blocks == 7 and b.n_modes == 9
    assert b.dim == 63
    assert b.grid_size == 64  # default: power of two >= 8 (M + 1)
    assert list(b.blocks()) == list(range(-3, 4))
    with pytest.raises(ValueError):
        TruncationBox(3, 4, grid_size=100)


def test_vacuum_and_basis():
    b = TruncationBox(4, 4)
    xi = gns.vacuum(b)
    assert_allclose(xi.norm(), 1.0, atol=1e-15)
    e = gns.basis_vector(b, 2, -3)
    assert_allclose(e.inner(e), 1.0 + 0j, atol=1e-15)
    assert abs(xi.inner(e)) == 0.0
    with pytest.raises(OutOfBoxError):
        gns.basis_vector(b, 5, 0)


def test_conjugator_modes_match_bessel(bench):
    """Mode table of h^l against the Bessel closed form."""
    for l in (1, 2, -3):
        table = oracle.conjugator_mode_table(bench, l, 8)
        want = scipy.special.jv(np.arange(-8, 9) - l, 0.3 * l)
        assert_allclose(table, want, atol=1e-12)


def test_conjugator_modes_frozen_spot_values(bench):
    # mpmath besselj literals, dps = 40
    t1 = oracle.conjugator_mode_table(bench, 1, 4)
    assert_allclose(t1[4 + 1], 0.97762624653829609, atol=1e-12)
    assert_allclose(t1[4 + 2], 0.14831881627310401, atol=1e-12)
    assert_allclose(t1[4 + 0], -0.14831881627310401, atol=1e-12)
    t2 = oracle.conjugator_mode_table(bench, 2, 4)
    assert_allclose(t2[4 + 2], 0.91200486349721078, atol=1e-12)
    assert_allclose(t2[4 + 4], 0.04366509671584169, atol=1e-12)


def test_characters_hit_the_basis(bench, small_box):
    """u_kl applied to the vacuum gives the matrix unit e^(kl)."""
    worst = 0.0
    xi = gns.vacuum(small_box)
    for k in range(-4, 5):
        for l in range(-4, 5):
            u = gns.build_u_kl(bench, small_box, k, l)
            dev = (u.apply(xi) - gns.basis_vector(small_box, k, l)).norm()
            worst = max(worst, dev)
    assert worst < 1e-8


def test_basis_gram_identity(bench, small_box):
    vecs = [gns.basis_vector(small_box, k, l)
            for k in (-2, 0, 3) for l in (-5, 1, 4)]
    gram = np.array([[v.inner(w) for w in vecs] for v in vecs])
    assert np.max(np.abs(gram - np.eye(len(vecs)))) < 1e-14


def test_represent_is_multiplicative_on_the_grid(bench, small_box, rng):
    """Operator products act pointwise on the multiplier grid."""
    f = weyl.random_element(rng, bench.alpha, 2, decay=1.0)
    g = weyl.random_element(rng, bench.alpha, 2, decay=1.0)
    af = gns.represent(f, bench, small_box)
    ag = gns.represent(g, bench, small_box)
    afg = gns.represent(weyl.star_product(f, g), bench, small_box)
    x = gns.random_vector(rng, small_box, block_margin=4, mode_margin=5)
    seq = af.apply_to_grid(ag.apply_to_grid(x.on_grid()))
    comp = afg.apply_to_grid(x.on_grid())
    dev = np.sqrt(np.sum(np.mean(np.abs(seq - comp) ** 2, axis=1)))
    assert dev < 1e-10


def test_adjoint_matches_involution(bench, small_box, rng):
    f = weyl.random_element(rng, bench.alpha, 2, decay=1.0)
    a = gns.represent(f, bench, small_box)
    astar = gns.represent(weyl.involution(f), bench, small_box)
    x = gns.random_vector(rng, small_box, block_margin=3, mode_margin=4)
    y = gns.random_vector(rng, small_box, block_margin=3, mode_margin=4)
    lhs = a.apply(x).inner(y)
    rhs = x.inner(astar.apply(y))
    assert abs(lhs - rhs) < 1e-10
    assert abs(lhs - a.adjoint().apply(y).inner(x).conjugate()) < 1e-10


def test_adjoint_slices_match_the_row_loop(rng):
    """One slice per shift gives the old per-row copy bit for bit,
    including shifts that move every row out of the box."""
    b = TruncationBox(3, 4)
    shape = (b.n_blocks, b.grid_size)
    terms = {s: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
             for s in range(-9, 10)}
    expected: dict[int, np.ndarray] = {}
    for s, mult in terms.items():
        arr = np.zeros_like(mult)
        for i in range(mult.shape[0]):
            if 0 <= i + s < mult.shape[0]:
                arr[i] = np.conj(mult[i + s])
        expected[-s] = arr
    got = gns.GnsOperator(b, terms).adjoint().terms
    assert sorted(got) == sorted(expected)
    for s, arr in expected.items():
        assert np.array_equal(got[s], arr), s


# ascending, descending and gapped mixed order, one shift at 0, and on
# K = 3 shifts at +-2K (one row each), at +-n_blocks and past them (none)
ADJOINT_SHIFTS = [[-3, -1, 0, 2, 5], [5, 2, 0, -1, -3], [2, -5, 0, 6, -1],
                  [0], [6, -6, 7, -7, 9, -12]]


@pytest.mark.parametrize("shifts", ADJOINT_SHIFTS)
def test_transposed_shift_sum_is_the_adjoint_apply(shifts):
    """``conj(A^T conj(x))``, the transposed ``_shift_sum`` over the
    operator's own rows, equals ``adjoint().apply_to_grid(x)`` entry for
    entry (a zero may differ in sign), on grid rows and on a stack of
    three."""
    rng = np.random.default_rng(11)
    b = TruncationBox(3, 4)
    shape = (b.n_blocks, b.grid_size)
    op = gns.GnsOperator(b, {s: rng.standard_normal(shape)
                             + 1j * rng.standard_normal(shape)
                             for s in shifts})
    for rows in (shape, (3,) + shape):
        x = _complex_vector(rows, 5)
        got = gns._shift_sum(op.terms.items(), x.conj(), True).conj()
        assert np.array_equal(got, op.adjoint().apply_to_grid(x))


def test_dense_matrix_agrees_with_apply(bench, rng):
    b = TruncationBox(2, 3)
    f = weyl.random_element(rng, bench.alpha, 2, decay=0.5)
    a = gns.represent(f, bench, b)
    mat = a.dense()
    assert mat.shape == (b.dim, b.dim)
    x = gns.random_vector(rng, b)
    direct = a.apply(x).coeffs.ravel()
    assert_allclose(mat @ x.coeffs.ravel(), direct, atol=1e-12)


def _edge_element(alpha, radius, k, seed):
    """Random element of the given radius plus terms at shifts +-2K and
    +-(2K - 1), the farthest shifts that keep one or two block pairs."""
    rng = np.random.default_rng(seed)
    f = weyl.random_element(rng, alpha, radius, decay=1.0)
    edge = {(m, s): complex(*rng.standard_normal(2))
            for s in (2 * k, 1 - 2 * k, 2 * k - 1, -2 * k) for m in (-1, 2)}
    return f + weyl.WeylElement(alpha, edge)


@pytest.mark.parametrize("name", ["bench", "rot"])
@pytest.mark.parametrize("k, m", [(2, 3), (6, 8), (12, 12)])
@pytest.mark.parametrize("radius", [2, 3])
def test_norm_estimate_matches_the_svd(name, k, m, radius, request):
    """The banded Gram route against the SVD of the dense matrix; the
    edge shifts make one run of the whole box, the dense case."""
    d = request.getfixturevalue(name)
    b = TruncationBox(k, m)
    a = gns.represent(_edge_element(d.alpha, radius, k, 10 * k + radius),
                      d, b)
    assert {2 * k, -2 * k} <= set(a.terms)
    svd = np.linalg.norm(a.dense(), ord=2)
    assert abs(a.norm_estimate() - svd) <= 1e-13 * svd


@pytest.mark.parametrize("name", ["bench", "rot"])
@pytest.mark.parametrize("k", [24, 32])
def test_norm_estimate_matches_the_dense_gram(name, k, request):
    """Radius 2 at K = M = 24 and 32, where the top of the Gram spectrum
    is clustered, against the dense Gram eigensolve of the oracle."""
    d = request.getfixturevalue(name)
    b = TruncationBox(k, k)
    f = weyl.random_element(np.random.default_rng(k), d.alpha, 2, decay=1.0)
    a = gns.represent(f, d, b)
    want = oracle.gram_norm(a)
    assert abs(a.norm_estimate() - want) <= 1e-13 * want


def _dense_of_band(band):
    """The Hermitian matrix whose lower block band is ``band`` (blocks
    past the box ignored), as a dense (n_blocks n_m)^2 array."""
    nb, depth, nm, _ = band.shape
    out = np.zeros((nb, nm, nb, nm), dtype=complex)
    for j in range(nb):
        for t in range(min(depth, nb - j)):
            out[j + t, :, j] = band[j, t]
            if t:
                out[j, :, j + t] = band[j, t].conj().T
    return out.reshape(nb * nm, nb * nm)


@pytest.mark.parametrize("order", [[-3, -2, 0, 1, 3], [3, 1, 0, -2, -3],
                                   [0, 3, -2, 1, -3]])
def test_band_gram_is_the_dense_gram_in_any_term_order(order):
    """The band holds the q + 1 lower block diagonals of the Gram, block
    ``(j + t, j)`` at ``[j, t]``, whether the terms ascend, descend or
    are mixed, with gaps between the shifts; the blocks past the box
    are zero."""
    rng = np.random.default_rng(7)
    b = TruncationBox(5, 4)
    shape = (b.n_blocks, b.grid_size)
    op = gns.GnsOperator(b, {s: rng.standard_normal(shape)
                             + 1j * rng.standard_normal(shape)
                             for s in order})
    band = op._band_gram()
    nb, nm = b.n_blocks, b.n_modes
    assert band.shape == (nb, 7, nm, nm)
    dense = op.dense()
    gram = (dense.conj().T @ dense).reshape(nb, nm, nb, nm)
    for j in range(nb):
        for t in range(7):
            if j + t < nb:
                assert_allclose(band[j, t], gram[j + t, :, j], rtol=0,
                                atol=1e-12)
            else:
                assert not band[j, t].any()
    # the stored diagonal blocks are Hermitian, up to roundoff
    assert_allclose(band[:, 0], band[:, 0].conj().transpose(0, 2, 1),
                    rtol=0, atol=1e-13)


@pytest.mark.parametrize("order", [[-3, -2, 0, 1, 3], [3, 1, 0, -2, -3],
                                   [0, 3, -2, 1, -3], [7, -7, 0, 12]])
def test_block_rows_yield_ascending_columns(order):
    """Each block row's columns ``i - s`` ascend, whatever the order of
    the terms, and hold every shift that stays in the box."""
    b = TruncationBox(5, 4)
    shape = (b.n_blocks, b.grid_size)
    op = gns.GnsOperator(b, {s: np.ones(shape) for s in order})
    for i, cols, blocks in op._block_rows():
        assert cols == sorted({i - s for s in order} & set(range(b.n_blocks)))
        assert len(blocks) == len(cols)


def _random_band(nb, q, nm, seed):
    """A random Hermitian lower block band, (nb, q + 1, nm, nm), zero past
    the box, and the dense matrix it stands for."""
    rng = np.random.default_rng(seed)
    shape = (nb, q + 1, nm, nm)
    band = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    band[:, 0] += band[:, 0].conj().transpose(0, 2, 1)
    for j in range(nb):
        band[j, nb - j:] = 0.0
    return band, _dense_of_band(band)


def _complex_vector(size, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


# q = 0 is block diagonal; 7 and 9 are the dense case of 8 blocks, at and
# past q = n_blocks - 1
BAND_DEPTHS = [0, 1, 2, 4, 7, 9]


@pytest.mark.parametrize("q", BAND_DEPTHS)
def test_band_apply_matches_the_dense_product(q, monkeypatch):
    """The Gram apply the first Lanczos run receives is ``A^H A``: the
    Hermitian matrix of the band, for shifts of spread q in mixed order
    with gaps, on nine blocks (q = 0 block diagonal, 9 past
    ``n_blocks - 1``, the dense case)."""
    rng = np.random.default_rng(7)
    b = TruncationBox(4, 3)
    shape = (b.n_blocks, b.grid_size)
    order = dict.fromkeys(s - q // 2 for s in (q // 3, q, 0))
    op = gns.GnsOperator(b, {s: rng.standard_normal(shape)
                             + 1j * rng.standard_normal(shape)
                             for s in order})
    runs = []
    real = gns._top_ritz

    def record(apply, start, steps):
        runs.append((apply, steps))
        return real(apply, start, steps)

    monkeypatch.setattr(gns, "_top_ritz", record)
    assert np.isfinite(op.norm_estimate())
    apply, steps = runs[0]
    assert steps == gns._GRAM_STEPS
    assert op._band_gram().shape[1] == min(q, b.n_blocks - 1) + 1
    x = _complex_vector(b.dim, 1)
    want = _dense_of_band(op._band_gram()) @ x
    assert_allclose(apply(x), want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("q", BAND_DEPTHS)
def test_band_cholesky_and_solve_match_the_dense_solve(q):
    """On a random Hermitian band G and a shift above its spectrum,
    ``_band_cholesky`` then ``_band_solve`` solve ``(sigma I - G) x = b``
    as ``np.linalg.solve`` does."""
    band, dense = _random_band(8, q, 5, 10 + q)
    sigma = np.linalg.eigvalsh(dense)[-1] + 1.0
    system = sigma * np.eye(len(dense)) - dense
    rhs = _complex_vector(len(dense), 2)
    want = np.linalg.solve(system, rhs)
    assert gns._band_cholesky(band, sigma)
    got = gns._band_solve(band, rhs)
    assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("q", BAND_DEPTHS)
def test_band_cholesky_below_the_top_eigenvalue_fails(q):
    """A shift under the largest eigenvalue leaves a pivot block that is
    not positive definite: the factorization returns False."""
    band, dense = _random_band(8, q, 5, 20 + q)
    top = np.linalg.eigvalsh(dense)[-2:]
    assert not gns._band_cholesky(band, top.mean())


def test_norm_estimate_of_no_terms_is_zero():
    assert gns.GnsOperator(TruncationBox(2, 3), {}).norm_estimate() == 0.0


def test_norm_estimate_of_zero_terms_is_zero(monkeypatch):
    """Zero multipliers give 0.0 at once: no Lanczos run, no Cholesky."""
    b = TruncationBox(4, 5)
    zero = np.zeros((b.n_blocks, b.grid_size), dtype=complex)

    def refuse(*args):
        raise AssertionError("iterated on a zero Gram")

    monkeypatch.setattr(gns, "_top_ritz", refuse)
    monkeypatch.setattr(gns, "_band_cholesky", refuse)
    op = gns.GnsOperator(b, {s: zero for s in (-2, 0, 1)})
    assert op.norm_estimate() == 0.0


def _raise_not_definite(*args, **kwargs):
    raise np.linalg.LinAlgError("not positive definite")


def test_norm_estimate_without_a_certificate_is_nan(bench, monkeypatch):
    """No Cholesky ever succeeds: the rounds run out and the norm is NaN."""
    f = weyl.random_element(np.random.default_rng(3), bench.alpha, 2)
    a = gns.represent(f, bench, TruncationBox(4, 5))
    assert np.isfinite(a.norm_estimate())
    monkeypatch.setattr(np.linalg, "cholesky", _raise_not_definite)
    assert np.isnan(a.norm_estimate())


def test_norm_estimate_of_a_nan_sample_is_nan(bench):
    f = weyl.random_element(np.random.default_rng(3), bench.alpha, 2)
    a = gns.represent(f, bench, TruncationBox(4, 5))
    a.terms[1][2, 7] = np.nan
    assert np.isnan(a.norm_estimate())


def test_norm_estimate_never_builds_the_dense_matrix(bench, monkeypatch):
    b = TruncationBox(6, 8)
    f = weyl.random_element(np.random.default_rng(3), bench.alpha, 2)
    a = gns.represent(f, bench, b)
    svd = np.linalg.norm(a.dense(), ord=2)

    def refuse(self):
        raise AssertionError("dense() called")

    monkeypatch.setattr(gns.GnsOperator, "dense", refuse)
    assert abs(a.norm_estimate() - svd) <= 1e-13 * svd


def test_norm_estimate_memory_is_one_gram(bench):
    """Traced peak at most 1.25 Gram matrices; ``conj().T @ dense`` needs
    about three (the matrix, its adjoint copy and the product)."""
    b = TruncationBox(12, 12)
    f = weyl.random_element(np.random.default_rng(5), bench.alpha, 2,
                            decay=1.0)
    a = gns.represent(f, bench, b)
    tracemalloc.start()
    try:
        a.norm_estimate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 16 * b.dim ** 2


def test_norm_estimate_memory_is_half_a_gram_at_32(bench):
    """At K = M = 32 the band, one block Cholesky factor and the Lanczos
    basis stay under half of one dense Gram matrix (16 dim^2 bytes)."""
    b = TruncationBox(32, 32)
    f = weyl.random_element(np.random.default_rng(5), bench.alpha, 2,
                            decay=1.0)
    a = gns.represent(f, bench, b)
    tracemalloc.start()
    try:
        a.norm_estimate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 16 * b.dim ** 2


@pytest.mark.parametrize("k", [24, 32])
def test_norm_estimate_memory_is_one_band(bench, k):
    """The Cholesky factors the band in place and a later factorization
    builds a fresh one after the old is freed, so the traced peak stays
    under 1.5 times the band of :meth:`_band_gram`; a second band for
    the factor alone makes it over 2."""
    b = TruncationBox(k, k)
    f = weyl.random_element(np.random.default_rng(5), bench.alpha, 2,
                            decay=1.0)
    a = gns.represent(f, bench, b)
    band = a._band_gram().nbytes
    tracemalloc.start()
    try:
        a.norm_estimate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * band


@pytest.mark.parametrize("k", [24, 32])
def test_norm_estimate_memory_is_the_exact_band(bench, k):
    """The traced peak stays under 1.5 times the q + 1 lower block
    diagonals of the Gram, ``16 n_blocks (q + 1) n_m^2`` bytes: a band
    that also stores the mirrored upper blocks takes about twice that."""
    b = TruncationBox(k, k)
    f = weyl.random_element(np.random.default_rng(5), bench.alpha, 2,
                            decay=1.0)
    a = gns.represent(f, bench, b)
    q = max(a.terms) - min(a.terms)
    tracemalloc.start()
    try:
        a.norm_estimate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 16 * b.n_blocks * (q + 1) * b.n_modes ** 2


def test_norm_estimate_after_a_failed_factorization_builds_a_fresh_band(
        bench, monkeypatch):
    """A pivot fails in the middle of the first factorization, after two
    block columns are overwritten: the next round must factor a fresh band, and
    the norm still matches the dense Gram eigensolve."""
    f = weyl.random_element(np.random.default_rng(12), bench.alpha, 2,
                            decay=1.0)
    a = gns.represent(f, bench, TruncationBox(12, 12))
    assert len(a._band_gram()) > 3  # block columns left after the failure
    want = oracle.gram_norm(a)
    events = []
    cholesky, factor, gram = (np.linalg.cholesky, gns._band_cholesky,
                              gns.GnsOperator._band_gram)

    def failing_cholesky(pivot):
        events.append("pivot")
        if events.count("pivot") == 3:
            raise np.linalg.LinAlgError("not positive definite")
        return cholesky(pivot)

    def logged_factor(*args):
        events.append("factor")
        return factor(*args)

    def logged_gram(self):
        events.append("band")
        return gram(self)

    monkeypatch.setattr(np.linalg, "cholesky", failing_cholesky)
    monkeypatch.setattr(gns, "_band_cholesky", logged_factor)
    monkeypatch.setattr(gns.GnsOperator, "_band_gram", logged_gram)
    got = a.norm_estimate()
    assert abs(got - want) <= 1e-13 * want
    factors = [i for i, e in enumerate(events) if e == "factor"]
    assert len(factors) >= 2
    # every factorization reads a band no factorization has touched
    for before, i in zip([-1] + factors, factors):
        assert "band" in events[before + 1:i]


def test_state_weights_frozen(bench):
    """mu has density 1 + 0.3 cos(theta): weights 1, 0.15, 0."""
    mu = gns.state_coefficients(bench, 4)
    assert_allclose(mu[4 + 0], 1.0, atol=1e-14)
    assert_allclose(mu[4 + 1], 0.15, atol=1e-14)
    assert_allclose(mu[4 - 1], 0.15, atol=1e-14)
    assert abs(mu[4 + 2]) < 1e-14
    assert abs(mu[4 + 3]) < 1e-14


def test_state_routes_agree(bench, small_box, rng):
    f = weyl.random_element(rng, bench.alpha, 2, decay=1.0)
    series = gns.state_eval(f, bench, route="series")
    vector = gns.state_eval(f, bench, route="gns", box=small_box)
    assert abs(series - vector) < 1e-9


def test_represent_rejects_foreign_alpha(bench, small_box):
    with pytest.raises(AlphaMismatchError):
        gns.represent(weyl.WeylElement.unit(0.25), bench, small_box)


def _dropped(*shifts):
    return sorted(f"shift {s} exceeds the block range; term dropped"
                  for s in shifts)


def test_oversized_shift_warns_and_drops(bench, small_box, tmp_path):
    f = weyl.WeylElement(bench.alpha, {(0, 13): 1.0, (2, 13): 1.0,
                                       (1, -20): 1.0})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        a = gns.represent(f, bench, small_box)
    # one warning per dropped shift, however many keys it holds
    want = _dropped(-20, 13)
    assert sorted(str(w.message) for w in caught) == want
    assert all(w.category is UserWarning for w in caught)
    # each warning points at the caller of represent
    assert all(w.filename == __file__ for w in caught)
    assert a.terms == {}
    assert a.apply(gns.vacuum(small_box)).norm() < 1e-15
    # so does every public route that reads multiplier rows, however deep
    # in the package it reads them; tomita_check also reads the adjoint's
    # shifts, and the command line at K = 0 drops the element's shifts
    # +-1 and +-2 from its vacuum image and from its operator
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"truncation": {"K": 0, "M": 4}}))
    command = ["represent", "--config", str(config), "--out", str(tmp_path)]
    routes = [
        (lambda: gns.vacuum_image(f, bench, small_box), want),
        (lambda: fourier.hat_functional(f, bench, small_box), want),
        (lambda: gns.state_eval(f, bench, route="gns", box=small_box), want),
        (lambda: fourier.paren_functional(f, bench, small_box), want),
        (lambda: fourier.paren_functional(f, bench, small_box,
                                          route="modular"), want),
        (lambda: summation.summation_reference(f, bench, small_box, "paren"),
         want),
        (lambda: modular.tomita_check(f, bench, small_box),
         _dropped(-20, -13, 13, 20)),
        (lambda: cli.main(command), _dropped(*2 * (-2, -1, 1, 2))),
    ]
    for route, messages in routes:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            route()
        assert sorted(str(w.message) for w in caught) == messages
        assert {w.filename for w in caught} == {__file__}


def test_apply_to_grid_takes_real_rows(bench, small_box, rng):
    """Real grid rows, float64 or float32, act as their complex cast, bit
    for bit: the sum is accumulated in a complex array."""
    a = gns.represent(weyl.random_element(rng, bench.alpha, 2), bench,
                      small_box)
    for dtype in (np.float64, np.float32):
        rows = rng.standard_normal(
            (small_box.n_blocks, small_box.grid_size)).astype(dtype)
        got = a.apply_to_grid(rows)
        assert got.dtype == complex
        assert np.array_equal(got, a.apply_to_grid(rows.astype(complex)))


@pytest.mark.parametrize("name", ["bench", "rot"])
def test_stacked_apply_is_represent_table_by_table(name, request):
    """``gns._apply`` of a stack of three dense tables, on one array of
    grid rows per table and on one array shared by the stack, is
    ``represent(f_i).apply_to_grid`` table by table, bit for bit.  So it
    is for the empty table (zero rows) and for a table with shifts at
    and beyond 2K, those beyond dropped with one warning each that
    points at the caller of ``_apply``."""
    d = request.getfixturevalue(name)
    box = TruncationBox(6, 8)
    rng = np.random.default_rng(3)
    stack = weyl._random_stack(rng, d.alpha, 2, 3, decay=1.0)
    shape = (3, box.n_blocks, box.grid_size)
    rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for source in (rows, rows[0]):
        got = gns._apply(stack, d, box, source)
        assert got.shape == shape
        for i in range(3):
            want = gns.represent(stack.element(i), d, box).apply_to_grid(
                np.broadcast_to(source, shape)[i])
            assert np.array_equal(got[i], want)
    far = weyl.WeylElement(d.alpha, {(0, 13): 1.0, (1, -20): 2.0,
                                     (2, 3): 0.5j, (-1, -12): 1.0})
    for f, dropped in ((far, [-20, 13]), (weyl.WeylElement(d.alpha, {}),
                                          [])):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = gns._apply(weyl._stack_of(f), d, box, rows[0])
            want = gns.represent(f, d, box).apply_to_grid(rows[0])
        assert sorted(str(w.message) for w in caught) == sorted(
            2 * [f"shift {s} exceeds the block range; term dropped"
                 for s in dropped])
        assert all(w.filename == __file__ for w in caught)
        assert np.array_equal(got[0], want)
        assert got[0].any() == bool(dropped)


def reference_represent(f, d, box):
    """Per-coefficient represent: one twisted wave per table entry.

    The twist cycles ``alpha m (2 n - s)`` and the wave cycles ``m u_j``
    are reduced modulo 1 in exact integer arithmetic (alpha and u_j are
    dyadic rationals), so far-apart keys keep full accuracy.
    """
    u = [x.as_integer_ratio() for x in gns._context(d, box).u.tolist()]
    blocks = box.blocks()
    num, den = d.alpha.as_integer_ratio()
    terms = {}
    for p, v in f.items():
        cycles = [num * p.m * int(c) % den / den for c in 2 * blocks - p.n]
        twist = np.exp(2j * np.pi * np.array(cycles))
        wave = np.exp(2j * np.pi * np.array(
            [a * p.m % b / b for a, b in u]))
        terms[p.n] = terms.get(p.n, 0) + v * twist[:, None] * wave[None, :]
    return terms


def series_u_kl(d, box, k, l, mode_bound=64):
    """``W(0, k) * h^l`` with ``h^l`` expanded in its mode series.

    At 0.3 conjugator amplitude and |l| <= 8 the Bessel tail beyond
    mode 64 is far below double precision.
    """
    table = oracle.conjugator_mode_table(d, l, mode_bound)
    g_l = weyl.WeylElement(d.alpha, {(m, 0): c for m, c in
                                     zip(range(-mode_bound, mode_bound + 1),
                                         table)})
    f_k = weyl.WeylElement.generator(d.alpha, 0, k)
    return reference_represent(weyl.star_product(f_k, g_l), d, box)


@pytest.mark.parametrize("name", ["bench", "rot"])
def test_closed_form_u_kl_matches_the_series(name, request):
    d = request.getfixturevalue(name)
    b = TruncationBox(8, 8)
    devs = []
    for k in range(-4, 5):
        for l in range(-8, 9):
            got = gns.build_u_kl(d, b, k, l).terms
            want = series_u_kl(d, b, k, l)
            assert set(got) == set(want) == {k}
            devs.append(np.max(np.abs(got[k] - want[k])))
    assert np.max(devs) < 1e-12


def closed_form_u_kl(d, box, k, l):
    """Whole shift-k multiplier of ``u_kl``, every row in one expression."""
    ctx = gns._context(d, box)
    shift = grids.cycles(2.0 * d.alpha, box.blocks() - k)
    lift = d.lift.value(ctx.u[None, :] + shift[:, None])
    return grids.waves(lift, l)


@pytest.mark.parametrize("name", ["bench", "rot"])
def test_u_kl_rows_are_bit_equal_to_the_whole_multiplier(name, request):
    d = request.getfixturevalue(name)
    b = TruncationBox(6, 8)
    for k in b.blocks():
        for l in b.modes():
            got = gns.build_u_kl(d, b, k, l).terms
            assert set(got) == {k}
            assert got[k].tobytes() == closed_form_u_kl(d, b, k, l).tobytes()


def test_every_cache_is_bounded():
    """No module memoizes without a finite size bound."""
    package = Path(gns.__file__).parent
    unbounded = []
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        if re.search(r"functools\.cache\b|import .*\bcache\b|@cache\b", text):
            unbounded.append(f"{path.name}: functools.cache")
        code = re.sub(r"(?m)^\s*(from|import) .*$", "", text)
        for args in re.findall(r"\blru_cache\b(\([^)]*\))?", code):
            if not re.fullmatch(r"\(maxsize=[1-9][0-9]*\)", args):
                unbounded.append(f"{path.name}: lru_cache{args}")
    assert unbounded == []


# A memoizing decorator or its import, however it is spelled.
_CACHE = re.compile(r"\blru_cache\b|\bfunctools\.cache\b|@cache\b"
                    r"|\bcached_property\b|\bimport\b[^#\n]*\bcache\b")


def test_cache_scan_sees_every_spelling():
    for code in ("@functools.lru_cache(maxsize=16)", "@lru_cache(maxsize=8)",
                 "@functools.lru_cache", "from functools import lru_cache",
                 "@functools.cache", "@cache", "from functools import cache",
                 "from functools import cached_property",
                 "@functools.cached_property", "@cached_property",
                 "plan = functools.cache(build)",
                 "plan = functools.lru_cache(None)(build)"):
        assert _CACHE.search(code), code
    for code in ("gns._context.cache_info()", "_plan.cache_clear()",
                 "the package's one cache", "cached = {}",
                 "import numpy as np  # no cache", "np.frombuffer(side)"):
        assert not _CACHE.search(code), code


def test_the_context_is_the_only_cache():
    """``gns._context`` is the one memoized function in the package: the
    star-product plan is built per product, and ROADMAP item 9 bounds
    the one cache left by bytes."""
    package = Path(gns.__file__).parent
    found = [(path.name, line.strip())
             for path in sorted(package.glob("*.py"))
             for line in path.read_text().splitlines()
             if _CACHE.search(line)]
    assert found == [("gns.py", "from functools import lru_cache"),
                     ("gns.py", "@lru_cache(maxsize=8)")]
    assert inspect.getsource(gns._context).startswith(
        "@lru_cache(maxsize=8)\ndef _context(")


def test_represent_matches_the_per_coefficient_loop(bench, small_box):
    rng = np.random.default_rng(5)
    alpha = bench.alpha
    elements = [weyl.random_element(rng, alpha, 3, decay=0.5)
                for _ in range(5)]
    elements += [
        # a row whose modes have gaps, next to a one-key row
        weyl.WeylElement(alpha, {(-3, 1): 0.5, (0, 1): -1j, (4, 1): 2.0,
                                 (2, -1): 1.0 + 1j}),
        weyl.WeylElement(alpha, {(3, -2): 1.5 - 0.5j}),
        weyl.WeylElement(alpha, {}),
        weyl.WeylElement(alpha, {(10 ** 6, 1): 1.0, (-10 ** 6, 1): 2j,
                                 (10 ** 6, -3): 0.5, (0, 0): 1.0}),
    ]
    for f in elements:
        got = gns.represent(f, bench, small_box).terms
        want = reference_represent(f, bench, small_box)
        assert list(got) == sorted(want)
        for s in want:
            assert np.max(np.abs(got[s] - want[s])) < 1e-13
    # one NaN coefficient reaches its own shift's term and no other
    f = weyl.WeylElement(alpha, {(1, 2): np.nan, (-1, 2): 1.0, (0, 0): 1.0,
                                 (2, -1): 1j})
    got = gns.represent(f, bench, small_box).terms
    want = reference_represent(f, bench, small_box)
    assert list(got) == [-1, 0, 2]
    assert np.isnan(got[2]).all()
    for s in (-1, 0):
        assert np.isfinite(got[s]).all()
        assert np.max(np.abs(got[s] - want[s])) < 1e-13


def test_state_series_makes_no_inverse_solve(bench, monkeypatch):
    """The moments are closed forms: the series route never solves
    ``H(u) = x``, on any call."""
    calls = []
    inverse = dynamics.ConjugatorLift.inverse

    def counting(self, y):
        calls.append(y)
        return inverse(self, y)

    monkeypatch.setattr(dynamics.ConjugatorLift, "inverse", counting)
    f = weyl.random_element(np.random.default_rng(3), bench.alpha, 2)
    first = gns.state_eval(f, bench, route="series")
    assert gns.state_eval(f, bench, route="series") == first
    assert calls == []


@pytest.mark.parametrize("sin, cos", [((0.3 / (2 * np.pi),), ()),
                                      ((0.02, -0.01), (0.015, 0.005))])
def test_state_moments_match_the_quadrature(sin, cos):
    """Closed-form moments against ``mean exp(2 pi i m H^{-1}(x_j))`` on
    8192 points, a lift with sin and cos harmonics included."""
    d = dynamics.DiffeoSpec(0.3, dynamics.ConjugatorLift(sin, cos))
    for bound in (0, 1, 2, 6):
        got = gns.state_coefficients(d, bound)
        want = oracle.state_moments_by_quadrature(d, bound)
        assert got.shape == (2 * bound + 1,)
        assert np.max(np.abs(got - want)) <= 1e-14


def test_vector_norm_does_not_depend_on_memory_layout(small_box):
    shape = (small_box.n_blocks, small_box.n_modes)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x = gns.GnsVector(small_box, c)
        y = gns.GnsVector(small_box, np.asfortranarray(c))
        assert x.norm() == y.norm()
        assert x.inner(x) == y.inner(y)


def _vacuum_tables(alpha, k):
    """A dense radius-2 table, one whose shifts mostly lie in
    ``K < |s| <= 2K`` (no vacuum row), and the empty table."""
    rng = np.random.default_rng(k)
    return {
        "dense": weyl.random_element(rng, alpha, 2, decay=1.0),
        "beyond-k": weyl.WeylElement(alpha, {
            (1, k + 1): 1.0, (-2, 2 * k): 0.5j, (0, -k - 2): 2.0,
            (3, -2 * k): 1.0, (1, 1): 0.25, (-1, -k): 1j}),
        "empty": weyl.WeylElement(alpha, {}),
    }


@pytest.mark.parametrize("name", ["bench", "rot"])
@pytest.mark.parametrize("table", ["dense", "beyond-k", "empty"])
def test_vacuum_routes_match_the_operator(name, table, request):
    """The vacuum image against ``represent(f).apply(vacuum)`` and the
    vacuum-route paren table against the operator's block-0 rows."""
    d = request.getfixturevalue(name)
    b = TruncationBox(6, 8)
    f = _vacuum_tables(d.alpha, b.block_bound)[table]
    a = gns.represent(f, d, b)
    for got, want in (
            (gns.vacuum_image(f, d, b).coeffs,
             a.apply(gns.vacuum(b)).coeffs),
            (fourier.paren_functional(f, d, b, route="vacuum").table,
             oracle.vacuum_paren(a))):
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-15 * scale
        assert (scale > 0.0) == (table != "empty")


def test_vacuum_routes_warn_and_drop_as_represent_does(bench, small_box):
    f = weyl.WeylElement(bench.alpha, {(0, 13): 1.0, (2, 13): 1.0,
                                       (1, -20): 1.0, (1, 1): 0.5})
    want = [f"shift {s} exceeds the block range; term dropped"
            for s in (-20, 13)]
    images = []
    for route in (
            lambda: gns.represent(f, bench, small_box).apply(
                gns.vacuum(small_box)),
            lambda: gns.vacuum_image(f, bench, small_box),
            lambda: fourier.paren_functional(f, bench, small_box)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            images.append(route())
        assert sorted(str(w.message) for w in caught) == want
    assert np.array_equal(images[0].coeffs, images[1].coeffs)
    near = weyl.WeylElement(bench.alpha, {(1, 1): 0.5})
    assert np.array_equal(images[2].table, fourier.paren_functional(
        near, bench, small_box).table)


def test_vacuum_routes_reject_foreign_alpha(bench, small_box):
    f = weyl.WeylElement.unit(0.25)
    with pytest.raises(AlphaMismatchError):
        gns.vacuum_image(f, bench, small_box)
    with pytest.raises(AlphaMismatchError):
        fourier.paren_functional(f, bench, small_box, route="vacuum")


def test_a_nan_coefficient_reaches_its_own_block_only(bench, small_box):
    """The whole operator spreads a NaN over every block its shift
    reaches (``NaN * 0``); the vacuum routes keep it in its own row."""
    f = weyl.WeylElement(bench.alpha, {(1, 2): np.nan, (-1, 2): 1.0,
                                       (0, 0): 1.0, (2, -1): 1j})
    k = small_box.block_bound
    image = gns.vacuum_image(f, bench, small_box).coeffs
    paren = fourier.paren_functional(f, bench, small_box).table
    for table, nan_row in ((image, k + 2), (paren, k - 2)):
        assert np.isnan(table[nan_row]).all()
        others = np.delete(table, nan_row, axis=0)
        assert np.isfinite(others).all()
    assert np.abs(image[k]).max() > 0.0 and np.abs(image[k - 1]).max() > 0.0


def test_context_waves_reduce_the_phase_exactly(bench):
    """``e_l`` on the grid is ``grids.waves(j / G, l)``, bit-equal to
    ``exp(2 pi i (l j mod G) / G)`` from the integer product, and, at
    M = 256 (G = 4096), a quadrature Gram at roundoff, where
    ``exp(i l theta_j)`` reads 1.3e-14.  The table is built directly,
    without a G = 4096 context."""
    b = TruncationBox(3, 4)
    waves = gns._context(bench, b).waves
    assert np.array_equal(waves, grid_waves_by_integers(b.modes(), 64))
    assert np.array_equal(waves, grids.waves(np.arange(64) / 64,
                                             b.modes()[:, None]))
    modes = np.arange(-256, 257)
    waves = grids.waves(np.arange(4096) / 4096, modes[:, None])
    assert np.array_equal(waves, grid_waves_by_integers(modes, 4096))
    gram = waves @ np.conj(waves.T) / 4096
    assert np.abs(gram - np.eye(len(modes))).max() <= 3.5e-16


def grid_waves_by_integers(modes, size):
    """``exp(2 pi i (l j mod G) / G)``, the integer product reduced first."""
    return np.exp(2j * np.pi * (np.multiply.outer(modes, np.arange(size))
                                % size / size))


@pytest.mark.parametrize("name", ["bench", "rot"])
@pytest.mark.parametrize("bounds", [(6, 8), (20, 20)])
def test_stacked_vacuum_images_and_series_are_the_per_table_ones(
        name, bounds, request):
    """Eleven tables, a NaN in one: each table's vacuum image (built a
    chunk at a time, two tables per chunk at K = 6) and its series state
    are bit-equal to ``vacuum_image`` and ``state_eval``, and the NaN
    stays in its own table's row of its own shift."""
    d = request.getfixturevalue(name)
    box = TruncationBox(*bounds)
    stack = weyl._random_stack(np.random.default_rng(3), d.alpha, 2, 11,
                               decay=1.0)
    at = np.flatnonzero((stack.keys[:, 0] == 1) & (stack.keys[:, 1] == -1))
    stack.values[4, at] = np.nan
    images = gns._spread(box, *gns._vacuum_rows(stack, d, box))
    series = gns._series(stack, d)
    for i in range(11):
        f = stack.element(i)
        assert images[i].tobytes() == gns.vacuum_image(f, d, box
                                                       ).coeffs.tobytes()
        assert series[i].tobytes() == np.complex128(
            gns.state_eval(f, d, route="series")).tobytes()
    k = box.block_bound
    assert np.isnan(images[4, k - 1]).all()
    assert np.isfinite(np.delete(images[4], k - 1, axis=0)).all()
    assert np.isfinite(np.delete(images, 4, axis=0)).all()
