"""Star-product algebra on finitely supported coefficient tables."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from nctorus import dynamics, weyl
from nctorus.errors import AlphaMismatchError

ALPHA = 0.30901699437494745


def test_generator_product_phase_by_hand():
    # W(1,0) * W(0,1) lands on (1,1) with twist exp(2 pi i alpha)
    u = weyl.WeylElement.generator(ALPHA, 1, 0)
    v = weyl.WeylElement.generator(ALPHA, 0, 1)
    prod = weyl.star_product(u, v)
    assert set(prod.support()) == {(1, 1)}
    assert_allclose(prod[(1, 1)], cmath.exp(2j * cmath.pi * ALPHA),
                    atol=1e-15)
    # and the reversed order picks up the conjugate twist
    rev = weyl.star_product(v, u)
    assert_allclose(rev[(1, 1)], cmath.exp(-2j * cmath.pi * ALPHA),
                    atol=1e-15)


def test_weyl_relation_quarter_alpha():
    # at alpha = 0.25 the (1,0)(0,1) product carries the phase i and the
    # two orders differ by the square of that twist, here exactly -1
    dev = weyl.weyl_relation_check(0.25, [((1, 0), (0, 1))])
    assert dev < 1e-15
    u = weyl.WeylElement.generator(0.25, 1, 0)
    v = weyl.WeylElement.generator(0.25, 0, 1)
    lhs = weyl.star_product(u, v)
    assert_allclose(lhs[(1, 1)], 1j, atol=1e-15)
    rhs = weyl.star_product(v, u).scaled(-1.0)
    assert weyl.table_distance(lhs, rhs) < 1e-15


def test_relation_sweep_all_alphas():
    pairs = [((m, n), (r, s))
             for m in range(-3, 4) for n in range(-3, 4)
             for r in range(-3, 4) for s in range(-3, 4)]
    for alpha in (0.0, 0.25, ALPHA):
        assert weyl.weyl_relation_check(alpha, pairs) < 1e-14


def test_involution_and_trace():
    f = weyl.WeylElement(ALPHA, {(1, 2): 0.5 + 1j, (0, 0): 2.0, (-1, 0): 1j})
    star = weyl.involution(f)
    assert_allclose(star[(-1, -2)], 0.5 - 1j, atol=1e-15)
    assert_allclose(weyl.trace(f), 2.0 + 0j, atol=1e-15)
    # trace(f* star f) recovers the coefficient l2 mass
    gram = weyl.trace(weyl.star_product(star, f))
    assert_allclose(gram, abs(0.5 + 1j) ** 2 + 4.0 + 1.0, atol=1e-12)
    assert gram.real >= 0.0


def test_coefficient_recovery():
    rng = np.random.default_rng(11)
    f = weyl.random_element(rng, ALPHA, 3, decay=0.5)
    for m, n in ((0, 0), (2, -1), (-3, 3)):
        assert_allclose(weyl.abstract_fourier_coeff(f, m, n),
                        f[(m, n)], atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                          st.floats(-1, 1), st.floats(-1, 1)),
                min_size=1, max_size=4))
def test_star_associativity_property(entries):
    f = weyl.WeylElement(ALPHA, {(m, n): complex(re, im)
                                 for m, n, re, im in entries})
    g = weyl.WeylElement(ALPHA, {(1, -1): 0.7, (0, 2): -0.3j})
    h = weyl.WeylElement(ALPHA, {(-2, 0): 1.1 + 0.2j, (1, 1): 0.4})
    left = weyl.star_product(weyl.star_product(f, g), h)
    right = weyl.star_product(f, weyl.star_product(g, h))
    assert weyl.table_distance(left, right) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3),
       st.floats(-2, 2), st.floats(-2, 2))
def test_star_algebra_axioms_property(m, n, re, im):
    f = weyl.WeylElement(ALPHA, {(m, n): complex(re, im), (0, 1): 0.5})
    g = weyl.WeylElement(ALPHA, {(1, 0): 1.0 - 0.5j})
    lhs = weyl.involution(weyl.star_product(f, g))
    rhs = weyl.star_product(weyl.involution(g), weyl.involution(f))
    assert weyl.table_distance(lhs, rhs) < 1e-12
    assert weyl.table_distance(weyl.involution(weyl.involution(f)), f) < 1e-15


def test_traciality_of_the_trace():
    rng = np.random.default_rng(4)
    f = weyl.random_element(rng, ALPHA, 3, decay=0.0)
    g = weyl.random_element(rng, ALPHA, 3, decay=0.0)
    fg = weyl.trace(weyl.star_product(f, g))
    gf = weyl.trace(weyl.star_product(g, f))
    assert abs(fg - gf) < 1e-12


def test_alpha_mismatch_rejected():
    with pytest.raises(AlphaMismatchError):
        weyl.star_product(weyl.WeylElement.unit(0.25),
                          weyl.WeylElement.unit(0.3))


def test_serialization_roundtrip():
    f = weyl.WeylElement(ALPHA, {(2, -1): 1.5 - 0.5j, (0, 0): 1j})
    again = weyl.WeylElement.from_dict(f.to_dict())
    assert again.alpha == f.alpha
    assert weyl.table_distance(again, f) == 0.0


def test_shift_support_lists_distinct_second_indices():
    f = weyl.WeylElement(0.3, {(1, 2): 1.0, (-4, 2): 2.0, (0, -3): 1j,
                               (5, 0): 0.5})
    assert f.shift_support() == [-3, 0, 2]
    assert weyl.WeylElement(0.3).shift_support() == []


def test_random_element_is_deterministic():
    a = weyl.random_element(np.random.default_rng(99), ALPHA, 2, decay=1.0)
    b = weyl.random_element(np.random.default_rng(99), ALPHA, 2, decay=1.0)
    assert weyl.table_distance(a, b) == 0.0
    assert a.sup_radius <= 2


def test_smooth_seminorm_frozen_values():
    """Row functions are indexed by the shift (second) index.

    delta_(1,0) has the single row z at shift 0; its angular derivative
    has sup 1 for the identity conjugator and sup (H^-1)' = 1/(1 - 0.3)
    for the benchmark lift.  delta_(0,1) has a constant row at shift 1.
    """
    d = dynamics.benchmark()
    rot = dynamics.rotation(d.alpha)
    unit = weyl.WeylElement.generator(d.alpha, 0, 0)
    e10 = weyl.WeylElement.generator(d.alpha, 1, 0)
    e01 = weyl.WeylElement.generator(d.alpha, 0, 1)
    assert_allclose(weyl.smooth_seminorm(unit, d, 3, 0), 1.0, atol=1e-12)
    assert_allclose(weyl.smooth_seminorm(e10, rot, 0, 1), 1.0, atol=1e-12)
    assert_allclose(weyl.smooth_seminorm(e10, d, 0, 1), 10.0 / 7.0, atol=1e-9)
    assert weyl.smooth_seminorm(e01, d, 0, 1) == 0.0
    assert_allclose(weyl.smooth_seminorm(e01, d, 2, 0), 4.0, atol=1e-12)


def loop_star_product(f, g):
    """Reference twisted convolution: the plain double loop over pairs."""
    out = {}
    two_pi_alpha = 2.0 * np.pi * f.alpha
    for a, fa in f.items():
        for b, gb in g.items():
            key = (a.m + b.m, a.n + b.n)
            phase = np.exp(-1j * two_pi_alpha * b.form(a))
            out[key] = out.get(key, 0.0) + fa * gb * phase
    return weyl.WeylElement(f.alpha, out)


def assert_matches_loop(f, g, gate=1e-13, same_support=True):
    got = weyl.star_product(f, g)
    want = loop_star_product(f, g)
    if same_support:
        assert set(got.support()) == set(want.support())
    assert weyl.table_distance(got, want) < gate


def test_star_product_matches_the_loop_on_random_elements():
    rng = np.random.default_rng(8)
    for r1 in range(4):
        for r2 in range(4):
            assert_matches_loop(weyl.random_element(rng, ALPHA, r1),
                                weyl.random_element(rng, ALPHA, r2))


def test_star_product_with_an_empty_operand():
    f = weyl.random_element(np.random.default_rng(2), ALPHA, 2)
    empty = weyl.WeylElement(ALPHA)
    assert len(weyl.star_product(f, empty)) == 0
    assert len(weyl.star_product(empty, f)) == 0
    assert len(weyl.star_product(empty, empty)) == 0
    with pytest.raises(AlphaMismatchError):
        weyl.star_product(empty, weyl.WeylElement(0.25))


def test_star_product_drops_cancelled_terms():
    # (1 + W(1,0)) (1 - W(-1,0)): the two origin terms cancel exactly
    f = weyl.WeylElement(ALPHA, {(0, 0): 1.0, (1, 0): 1.0})
    g = weyl.WeylElement(ALPHA, {(0, 0): 1.0, (-1, 0): -1.0})
    assert set(weyl.star_product(f, g).support()) == {(1, 0), (-1, 0)}
    assert_matches_loop(f, g)


def test_star_product_matches_the_loop_on_far_apart_supports():
    corners = [(sm * 1000, sn * 1000) for sm in (-1, 1) for sn in (-1, 1)]
    f = weyl.WeylElement(ALPHA, {key: 1.0 + 0.5j * i
                                 for i, key in enumerate(corners)})
    g = weyl.WeylElement(ALPHA, {(1000, -1000): 0.3, (0, 1): -2.0j,
                                 (-999, 1000): 1.5})
    assert_matches_loop(f, g)
    assert_matches_loop(g, f)
    assert_matches_loop(f, f)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.floats(-1, 1), st.floats(-1, 1)),
                max_size=6),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.floats(-1, 1), st.floats(-1, 1)),
                max_size=6))
def test_star_product_matches_the_loop_property(f_entries, g_entries):
    f = weyl.WeylElement(ALPHA, [((m, n), complex(re, im))
                                 for m, n, re, im in f_entries])
    g = weyl.WeylElement(ALPHA, [((m, n), complex(re, im))
                                 for m, n, re, im in g_entries])
    # A sum that cancels to exactly zero on one route may leave a
    # rounding residue on the other, so only the distance is gated.
    assert_matches_loop(f, g, same_support=False)


def test_table_distance_keeps_nan():
    f = weyl.WeylElement(ALPHA, {(0, 0): 1.0, (1, 2): complex("nan")})
    g = weyl.WeylElement(ALPHA, {(0, 0): 1.0, (1, 2): 1.0})
    assert np.isnan(weyl.table_distance(f, g))
    assert np.isnan(weyl.table_distance(g, f))


def test_duplicate_keys_are_summed_and_cancellations_dropped():
    f = weyl.WeylElement(ALPHA, [((1, 2), 0.5), ((0, 0), 1.0),
                                 ((1, 2), 0.25j), ((3, -1), 2.0),
                                 ((3, -1), -2.0)])
    assert f.support() == [(0, 0), (1, 2)]
    assert f[(1, 2)] == 0.5 + 0.25j
    assert f.keys.dtype == np.int64 and f.keys.shape == (2, 2)
    # an exact cancellation under + and - leaves no key behind
    g = weyl.WeylElement(ALPHA, {(0, 0): -1.0, (5, 5): 1j})
    assert (f + g).support() == [(1, 2), (5, 5)]
    assert len(f - f) == 0
    assert weyl.table_distance(f, f) == 0.0


def test_items_are_sorted_pairs():
    f = weyl.WeylElement(ALPHA, {(2, -1): 1.0, (-1, 3): 2j, (-1, -3): 3.0})
    assert [p for p, _ in f.items()] == [(-1, -3), (-1, 3), (2, -1)]
    assert all(isinstance(p, weyl.SymplecticPair) and isinstance(v, complex)
               for p, v in f.items())
    assert weyl.involution(f).support() == [(-2, 1), (1, -3), (1, 3)]


def test_nan_survives_every_table_operation():
    f = weyl.WeylElement(ALPHA, {(0, 0): 1.0, (1, 2): complex("nan")})
    g = weyl.WeylElement(ALPHA, {(0, 1): 0.5j})
    for out in (f, f + g, g + f, f - g, weyl.involution(f),
                weyl.star_product(f, g), weyl.star_product(g, f),
                f.scaled(2.0)):
        assert np.isnan(out.values).any()
        assert np.isnan(weyl.table_distance(out, g))


def test_malformed_keys_are_rejected():
    with pytest.raises(ValueError):
        weyl.WeylElement(ALPHA, [((1, 2, 3), 1.0)])
    with pytest.raises(ValueError):
        weyl.WeylElement.from_dict(
            {"alpha": ALPHA, "coeffs": [{"m": "x", "n": 0, "re": 1.0}]})
    with pytest.raises(KeyError):
        weyl.WeylElement.from_dict({"alpha": ALPHA,
                                    "coeffs": [{"m": 1, "re": 1.0}]})


def test_random_element_keeps_its_draw_order():
    rng = np.random.default_rng(5)
    want = [complex(rng.standard_normal(), rng.standard_normal())
            / (1.0 + abs(m) + abs(n)) ** 1.5
            for m in range(-2, 3) for n in range(-2, 3)]
    f = weyl.random_element(np.random.default_rng(5), ALPHA, 2, decay=1.5)
    assert f.values.tolist() == want


RELATION_PAIRS = [((m, n), (r, s))
                  for m in range(-3, 4) for n in range(-3, 4)
                  for r in range(-3, 4) for s in range(-3, 4)]


def test_relation_check_makes_one_star_product(monkeypatch):
    calls = []
    real = weyl.star_product

    def counting(f, g):
        calls.append((len(f), len(g)))
        return real(f, g)

    monkeypatch.setattr(weyl, "star_product", counting)
    assert weyl.weyl_relation_check(ALPHA, RELATION_PAIRS) == 0.0
    assert calls == [(49, 49)]


def _drop_first(p):
    return p - weyl.WeylElement(p.alpha, [p.items()[0]])


def _first_key_off_by_one(p):
    return weyl.WeylElement(p.alpha, [((q.m + (i == 0), q.n), v)
                                      for i, (q, v) in enumerate(p.items())])


@pytest.mark.parametrize("mutant", [
    lambda real: lambda f, g: real(g, f),
    lambda real: lambda f, g: _drop_first(real(f, g)),
    lambda real: lambda f, g: _first_key_off_by_one(real(f, g)),
], ids=["swapped_operands", "dropped_term", "key_off_by_one"])
def test_relation_check_catches_a_faulty_product(monkeypatch, mutant):
    monkeypatch.setattr(weyl, "star_product", mutant(weyl.star_product))
    assert weyl.weyl_relation_check(0.25, RELATION_PAIRS) > 1e-14


def test_far_apart_keys_keep_their_places():
    far = {(0, -2 ** 40): 1.0, (2 ** 40, 2 ** 40): 2.0}
    f = weyl.WeylElement(ALPHA, far)
    assert f.support() == sorted(far)
    unit = weyl.WeylElement.unit(ALPHA)
    assert weyl.star_product(f, unit).support() == sorted(far)
    assert weyl.table_distance(weyl.star_product(unit, f), f) == 0.0
