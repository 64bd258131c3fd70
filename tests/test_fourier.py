"""Hat and paren transforms, inversion, Dirichlet coefficient tables."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nctorus import dynamics, fourier, gns, weyl
from nctorus.errors import GridTooSmallError
from nctorus.gns import TruncationBox


def test_hat_of_a_vector_reads_basis_coefficients(bench, small_box):
    x = (gns.basis_vector(small_box, 2, -1).scaled(0.5 + 1j)
         + gns.basis_vector(small_box, -3, 4).scaled(2.0))
    table = fourier.hat_vector(x)
    assert_allclose(table.entry(2, -1), 0.5 + 1j, atol=1e-14)
    assert_allclose(table.entry(-3, 4), 2.0 + 0j, atol=1e-14)
    assert_allclose(table.l2(), x.norm(), atol=1e-13)
    assert_allclose(table.sup(), 2.0, atol=1e-14)


def test_hat_functional_equals_vacuum_image(bench, small_box, rng):
    """The two hat routes: state pairing vs coefficients of pi(f) xi."""
    f = weyl.random_element(rng, bench.alpha, 2, decay=1.0)
    func = fourier.hat_functional(f, bench, small_box)
    vec = fourier.hat_vector(
        gns.represent(f, bench, small_box).apply(gns.vacuum(small_box)))
    assert np.max(np.abs(func.table - vec.table)) < 1e-10


def test_parseval(bench, box, rng):
    for _ in range(5):
        x = gns.random_vector(rng, box)
        assert abs(fourier.hat_vector(x).l2() - x.norm()) < 1e-12


def test_anti_transform_inverts_hat(bench, small_box, rng):
    x = gns.random_vector(rng, small_box)
    back = fourier.anti_transform(fourier.hat_vector(x), bench)
    assert (back - x).norm() < 1e-12


def test_paren_routes_agree(bench, box, rng):
    f = weyl.random_element(rng, bench.alpha, 2, decay=1.0)
    dev = fourier.route_agreement(f, bench, box)
    assert dev < 1e-9


def test_paren_of_vacuum_is_hat_of_vacuum(bench, box):
    """Both transforms see the cyclic vector the same way."""
    xi = gns.vacuum(box)
    hat = fourier.hat_vector(xi)
    paren = fourier.paren_vector(xi, bench)
    assert_allclose(paren.entry(0, 0), hat.entry(0, 0), atol=1e-12)
    assert_allclose(abs(paren.entry(0, 0)), 1.0, atol=1e-12)


def test_epsilon_basis_is_near_orthonormal(bench, box):
    eps = fourier.epsilon_basis(bench, box)
    k0, l0 = box.block_bound, box.mode_bound
    for k in (-3, 0, 2):
        for l in (-2, 0, 4):
            nrm = np.linalg.norm(eps[k0 + k, l0 + l])
            assert abs(nrm - 1.0) < 1e-6
            assert nrm <= 1.0 + 1e-12


def test_classical_limit_matches_swapped_coefficients(rng):
    """At alpha = 0 with identity conjugator both transforms reduce to
    the classical torus coefficients with the index pair swapped."""
    box = TruncationBox(8, 8)
    d0 = dynamics.rotation(0.0, classical=True)
    for _ in range(5):
        f = weyl.random_element(rng, 0.0, 3, decay=0.5)
        devs = fourier.classical_limit_compare(f, box, d0)
        assert max(devs.values()) < 1e-10, devs


def test_riemann_lebesgue_decay(bench, box, rng):
    """Coefficient rings of a smooth element decay fast in the radius."""
    f = weyl.random_element(rng, bench.alpha, 2, decay=1.0)
    prof = fourier.riemann_lebesgue_profile(
        fourier.hat_functional(f, bench, box))
    assert prof[16] < prof[8] < prof[2]
    assert prof[8] < 1e-2
    assert prof[16] < 1e-5


def test_dirichlet_table_is_an_indicator(bench, small_box):
    """X_n coefficients: 1 inside the band |l| <= n, 0 outside."""
    table = fourier.dirichlet_coefficient_table(3, bench, small_box)
    k0, l0 = small_box.block_bound, small_box.mode_bound
    for k in range(-small_box.block_bound, small_box.block_bound + 1):
        for l in range(-small_box.mode_bound, small_box.mode_bound + 1):
            want = 1.0 if (k == 0 and abs(l) <= 3) else 0.0
            assert abs(table.table[k0 + k, l0 + l] - want) < 1e-8, (k, l)


def test_dirichlet_sup_stays_pinned(bench):
    wide = TruncationBox(6, 8, grid_size=256)
    for n in (10, 100):
        table = fourier.dirichlet_coefficient_table(n, bench, wide)
        assert abs(table.sup() - 1.0) < 1e-8


def test_dirichlet_needs_enough_grid(bench, small_box):
    # order 100 against a 64 point grid would alias the full band back
    with pytest.raises(GridTooSmallError):
        fourier.dirichlet_coefficient_table(100, bench, small_box)


def test_classical_limit_oracle_grid_covers_the_box(rng):
    """The oracle grid exceeds max(K, M) + radius, so box modes beyond
    the support do not alias onto it."""
    f = weyl.random_element(rng, 0.0, 8, decay=1.0)
    devs = fourier.classical_limit_compare(f, TruncationBox(56, 56))
    assert max(devs.values()) <= 1e-10, devs
