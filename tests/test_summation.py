"""Summation kernels, transference twists, convergence profiles."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nctorus import dynamics, gns, summation, weyl
from nctorus.errors import GridTooSmallError
from nctorus.gns import TruncationBox

import oracle

# Lebesgue constants of the Dirichlet kernel, mpmath dps = 40
LEBESGUE = {
    1: 1.4359911241769174,
    5: 1.9613605937660149,
    10: 2.2233569241536841,
    100: 3.1387800926548486,
}


def test_fejer_coefficients_are_triangular():
    kern = summation.SummationKernel("fejer", order=4)
    modes = np.arange(-6, 7)
    got = kern.coefficients(modes)
    want = np.clip(1.0 - np.abs(modes) / 5.0, 0.0, None)
    assert_allclose(got, want, atol=1e-15)


def test_abel_coefficients_are_geometric():
    kern = summation.SummationKernel("abel", radius=0.8)
    modes = np.arange(-5, 6)
    assert_allclose(kern.coefficients(modes), 0.8 ** np.abs(modes),
                    atol=1e-15)


def test_abel_kernel_closed_form_matches_mode_sum():
    """Poisson kernel values against a brute-force geometric sum."""
    r = 0.9
    kern = summation.SummationKernel("abel", radius=r)
    theta = 2 * np.pi * np.arange(16) / 16
    brute = np.ones_like(theta, dtype=complex)
    for m in range(1, 200):
        brute += r ** m * (np.exp(1j * m * theta) + np.exp(-1j * m * theta))
    assert_allclose(kern.values(theta), brute.real, atol=1e-9)


def test_positive_kernels_have_unit_mass():
    assert_allclose(summation.SummationKernel("fejer", order=7).l1_norm(),
                    1.0, atol=1e-12)
    assert_allclose(summation.SummationKernel("abel", radius=0.9).l1_norm(),
                    1.0, atol=1e-12)


def test_dirichlet_l1_matches_lebesgue_constants():
    for n, lam in LEBESGUE.items():
        got = summation.SummationKernel("dirichlet", order=n).l1_norm()
        tol = 1e-6 if n <= 10 else 2e-4
        assert abs(got - lam) < tol, n
    # the classical log-rate between orders 10 and 100
    g10 = summation.SummationKernel("dirichlet", order=10).l1_norm()
    g100 = summation.SummationKernel("dirichlet", order=100).l1_norm()
    assert abs((g100 - g10) - 0.91542316850116453) < 1e-3


def test_kernel_validation():
    with pytest.raises(ValueError):
        summation.SummationKernel("gauss", order=3)
    with pytest.raises(ValueError):
        summation.SummationKernel("abel", radius=1.5)


def test_transference_point_must_be_unimodular():
    w = summation.TransferencePoint.from_angles(1.1, 2.3)
    assert abs(abs(w.w1) - 1.0) < 1e-15
    assert abs(abs(w.w2) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        summation.TransferencePoint(1.5, 1.0)
    for bad in (complex("nan"), float("nan"), complex("inf")):
        with pytest.raises(ValueError):
            summation.TransferencePoint(bad, 1.0)
        with pytest.raises(ValueError):
            summation.TransferencePoint(1.0, bad)


def test_transfer_vector_twists_coefficients(bench, small_box):
    w = summation.TransferencePoint.from_angles(0.7, -1.9)
    x = gns.basis_vector(small_box, 3, -2)
    tx = summation.transfer_vector(x, w)
    got = tx.block(3)[small_box.mode_bound - 2]
    assert_allclose(got, w.w1 ** (-2) * w.w2 ** 3, atol=1e-14)


def test_transfer_operator_on_characters(bench, small_box):
    """rho_w(u_kl) xi = w1^l w2^k e^(kl): the transference identity."""
    w = summation.TransferencePoint.from_angles(1.1, 2.3)
    xi = gns.vacuum(small_box)
    worst = 0.0
    for k in (-2, 0, 1):
        for l in (-1, 0, 3):
            u = gns.build_u_kl(bench, small_box, k, l)
            got = summation.transfer_operator(u, w).apply(xi)
            want = gns.basis_vector(small_box, k, l).scaled(
                w.w1 ** l * w.w2 ** k)
            worst = max(worst, (got - want).norm())
    assert worst < 1e-12


def test_wts_on_generators_and_random(bench, box, rng):
    w = summation.TransferencePoint.from_angles(2.2, 0.4)
    gen_dev = 0.0
    for k, l in ((1, 0), (0, 1), (-2, 3)):
        f = weyl.WeylElement.generator(bench.alpha, k, l)
        gen_dev = max(gen_dev, summation.wts_deviation(f, w, bench, box, 4))
    assert gen_dev < 1e-12
    f = weyl.random_element(rng, bench.alpha, 2, decay=1.0)
    assert summation.wts_deviation(f, w, bench, box, 4) < 1e-10


def test_fejer_profile_halves_per_doubling(bench, box, rng):
    """Interior elements: order-N Fejer error drops like 1/N."""
    f = weyl.random_element(rng, bench.alpha, 2, decay=1.0)
    kernels = [summation.SummationKernel("fejer", order=n) for n in (4, 8, 16)]
    rows = summation.convergence_profile(f, bench, box, "hat", kernels)
    errs = [row["l2_error"] for row in rows]
    assert errs[0] > errs[1] > errs[2] > 0.0
    for a, b in zip(errs, errs[1:]):
        assert 0.3 <= b / a <= 0.7


def test_abel_profile_decreases(bench, box, rng):
    f = weyl.random_element(rng, bench.alpha, 2, decay=1.0)
    kernels = [summation.SummationKernel("abel", radius=r)
               for r in (0.9, 0.99, 0.999)]
    rows = summation.convergence_profile(f, bench, box, "hat", kernels)
    errs = [row["l2_error"] for row in rows]
    assert errs[0] > errs[1] > errs[2] > 0.0


@pytest.mark.parametrize("kernel", [
    summation.SummationKernel("fejer", order=8),
    summation.SummationKernel("abel", radius=0.9),
], ids=["fejer", "abel"])
def test_smoothed_mean_is_the_profile_mean(bench, small_box, rng, kernel):
    """The public smoothed mean is the mean the profile measures: its
    error against the reference is the profile's ``l2_error``, bit for
    bit."""
    f = weyl.random_element(rng, bench.alpha, 2, decay=1.0)
    table = summation.table_of(f, bench, small_box, "hat")
    reference = summation.summation_reference(f, bench, small_box, "hat")
    mean = summation.smoothed_mean(table, kernel, bench)
    [row] = summation.convergence_profile(f, bench, small_box, "hat", [kernel])
    assert (mean - reference).norm() == row["l2_error"]


def test_transference_integral_route(bench, box, rng):
    """Fejer smoothing equals the kernel-weighted transference integral."""
    f = weyl.random_element(rng, bench.alpha, 2, decay=1.0)
    x = gns.represent(f, bench, box).apply(gns.vacuum(box))
    dev = summation.transference_integral_check(x, 3, 64, bench)
    assert dev < 1e-9
    with pytest.raises(GridTooSmallError):
        summation.transference_integral_check(x, 3, 6, bench)


def per_pair_wts(f, w, d, box, radius):
    """Weak transference with one transferred ``u_kl`` operator per pair."""
    x = gns.represent(f, d, box).apply(gns.vacuum(box))
    xi = gns.vacuum(box)
    worst = 0.0
    kr = min(radius, box.block_bound)
    lr = min(radius, box.mode_bound)
    for k in range(-kr, kr + 1):
        for l in range(-lr, lr + 1):
            u = summation.transfer_operator(gns.build_u_kl(d, box, k, l), w)
            lhs = x.inner(u.apply(xi))
            rhs = w.w1 ** (-l) * w.w2 ** (-k) * x.block(k)[box.mode_bound + l]
            worst = max(worst, abs(lhs - rhs))
    return worst


def wts_cases(d, rng):
    points = [summation.TransferencePoint.from_angles(1.1, 2.3),
              summation.TransferencePoint.from_angles(4.0, 0.7)]
    elements = [weyl.WeylElement.generator(d.alpha, 1, 2),
                weyl.random_element(rng, d.alpha, 2, decay=1.0)]
    return [(f, w) for w in points for f in elements]


@pytest.mark.parametrize("box", [TruncationBox(6, 8), TruncationBox(16, 16)])
def test_batched_wts_matches_the_per_pair_loop(bench, box, rng):
    for f, w in wts_cases(bench, rng):
        got = summation.wts_deviation(f, w, bench, box, 8)
        assert abs(got - per_pair_wts(f, w, bench, box, 8)) <= 1e-15


def _next_row(real):
    return lambda d, box, k, l, n: real(d, box, k, l, n + 1)


def _unphased(real, w):
    # rows that carry w2^{-k}, which the block phase w2^k then cancels
    def rows(d, box, k, l, n):
        return real(d, box, k, l, n) * (w.w2 ** -np.asarray(k))[..., None]
    return rows


@pytest.mark.parametrize("mutant", ["row n = k + 1", "no w2^k", "unrotated"])
def test_wts_gate_rejects_mutants(bench, small_box, monkeypatch, mutant):
    """Reading the wrong row, dropping the block phase or skipping the
    rotation each break the 1e-12 wts_generators gate."""
    w = summation.TransferencePoint.from_angles(1.1, 2.3)
    if mutant == "row n = k + 1":
        monkeypatch.setattr(summation, "_u_kl_rows",
                            _next_row(summation._u_kl_rows))
    elif mutant == "no w2^k":
        monkeypatch.setattr(summation, "_u_kl_rows",
                            _unphased(summation._u_kl_rows, w))
    else:
        monkeypatch.setattr(summation, "rotate", lambda rows, angle: rows)
    f = weyl.WeylElement.generator(bench.alpha, 1, 2)
    assert summation.wts_deviation(f, w, bench, small_box, 8) > 1e-12


SPECIAL_ANGLES = [0.0, 1e-9, -1e-9, np.pi, -np.pi, 2 * np.pi, -2 * np.pi,
                  4 * np.pi]


@pytest.mark.parametrize("kind", ["dirichlet", "fejer"])
@pytest.mark.parametrize("order", [0, 1, 7, 100])
def test_closed_form_kernels_match_the_mode_sum(kind, order):
    """Closed forms against the direct mode sum, at the pole t = 0, near
    it, at +-pi, at +-2 pi and 4 pi (unreduced, roundoff over roundoff)
    and on a uniform grid."""
    kernel = summation.SummationKernel(kind, order=order)
    angles = np.concatenate([SPECIAL_ANGLES,
                             2 * np.pi * np.arange(1024) / 1024])
    got = kernel.values(angles)
    want = oracle.kernel_mode_sum(kernel, angles)
    assert np.max(np.abs(got - want)) <= 1e-12 * (2 * order + 1)
    peak = 2 * order + 1 if kind == "dirichlet" else order + 1
    assert got[0] == peak


def test_l1_norm_memory_does_not_grow_with_the_order():
    """At order 1000 a table of mode waves would be 2001 x 8192 complex,
    about 262 MB; the closed form needs a few grid-sized arrays."""
    kernel = summation.SummationKernel("dirichlet", order=1000)
    tracemalloc.start()
    try:
        kernel.l1_norm(size=8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
