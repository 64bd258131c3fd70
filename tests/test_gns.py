"""Truncated cyclic representation: basis, characters, state evaluation.

The conjugator mode tables have the closed form J_{m-l}(0.3 l) (Bessel
functions of the first kind), since the benchmark writes h(e^(i t)) as
exp(i t + 0.3 i sin t) up to the angle scaling.  scipy provides the
independent oracle for that identity.
"""

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

from nctorus import dynamics, gns, weyl
from nctorus.errors import AlphaMismatchError, OutOfBoxError
from nctorus.gns import TruncationBox


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
        table = gns.conjugator_mode_table(bench, l, 8)
        want = scipy.special.jv(np.arange(-8, 9) - l, 0.3 * l)
        assert_allclose(table, want, atol=1e-12)


def test_conjugator_modes_frozen_spot_values(bench):
    # mpmath besselj literals, dps = 40
    t1 = gns.conjugator_mode_table(bench, 1, 4)
    assert_allclose(t1[4 + 1], 0.97762624653829609, atol=1e-12)
    assert_allclose(t1[4 + 2], 0.14831881627310401, atol=1e-12)
    assert_allclose(t1[4 + 0], -0.14831881627310401, atol=1e-12)
    t2 = gns.conjugator_mode_table(bench, 2, 4)
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


def test_dense_matrix_agrees_with_apply(bench, rng):
    b = TruncationBox(2, 3)
    f = weyl.random_element(rng, bench.alpha, 2, decay=0.5)
    a = gns.represent(f, bench, b)
    mat = a.dense()
    assert mat.shape == (b.dim, b.dim)
    x = gns.random_vector(rng, b)
    direct = a.apply(x).coeffs.ravel()
    assert_allclose(mat @ x.coeffs.ravel(), direct, atol=1e-12)


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


def test_oversized_shift_warns_and_drops(bench, small_box):
    f = weyl.WeylElement(bench.alpha, {(0, 13): 1.0})
    with pytest.warns(UserWarning):
        a = gns.represent(f, bench, small_box)
    assert a.apply(gns.vacuum(small_box)).norm() < 1e-15


def reference_represent(f, d, box):
    """Per-coefficient represent: one twisted wave per table entry."""
    psi = gns._context(d, box).psi
    blocks = box.blocks()
    terms = {}
    for p, v in f.items():
        twist = np.exp(2j * np.pi * d.alpha * p.m * (2 * blocks - p.n))
        wave = np.exp(1j * p.m * psi)
        terms[p.n] = terms.get(p.n, 0) + v * twist[:, None] * wave[None, :]
    return terms


def series_u_kl(d, box, k, l, mode_bound=64):
    """``W(0, k) * h^l`` with ``h^l`` expanded in its mode series.

    At 0.3 conjugator amplitude and |l| <= 8 the Bessel tail beyond
    mode 64 is far below double precision.
    """
    table = gns.conjugator_mode_table(d, l, mode_bound)
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


def test_represent_matches_the_per_coefficient_loop(bench, small_box):
    rng = np.random.default_rng(5)
    for _ in range(5):
        f = weyl.random_element(rng, bench.alpha, 3, decay=0.5)
        got = gns.represent(f, bench, small_box).terms
        want = reference_represent(f, bench, small_box)
        assert set(got) == set(want)
        for s in want:
            assert np.max(np.abs(got[s] - want[s])) < 1e-13


def test_state_series_solves_the_chart_once(bench, monkeypatch):
    calls = []
    inverse = dynamics.ConjugatorLift.inverse

    def counting(self, y):
        calls.append(y)
        return inverse(self, y)

    monkeypatch.setattr(dynamics.ConjugatorLift, "inverse", counting)
    gns._state_chart.cache_clear()
    f = weyl.random_element(np.random.default_rng(3), bench.alpha, 2)
    first = gns.state_eval(f, bench, route="series")
    assert gns.state_eval(f, bench, route="series") == first
    assert len(calls) == 1


def test_vector_norm_does_not_depend_on_memory_layout(small_box):
    shape = (small_box.n_blocks, small_box.n_modes)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x = gns.GnsVector(small_box, c)
        y = gns.GnsVector(small_box, np.asfortranarray(c))
        assert x.norm() == y.norm()
        assert x.inner(x) == y.inner(y)
