"""Star-product algebra on finitely supported coefficient tables."""

import cmath
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from nctorus import dynamics, tolerances, verify, weyl
from nctorus.errors import AlphaMismatchError

import oracle

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
    assert oracle.table_distance(lhs, rhs) < 1e-15


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
    assert oracle.table_distance(left, right) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3),
       st.floats(-2, 2), st.floats(-2, 2))
def test_star_algebra_axioms_property(m, n, re, im):
    f = weyl.WeylElement(ALPHA, {(m, n): complex(re, im), (0, 1): 0.5})
    g = weyl.WeylElement(ALPHA, {(1, 0): 1.0 - 0.5j})
    lhs = weyl.involution(weyl.star_product(f, g))
    rhs = weyl.star_product(weyl.involution(g), weyl.involution(f))
    assert oracle.table_distance(lhs, rhs) < 1e-12
    twice = weyl.involution(weyl.involution(f))
    assert oracle.table_distance(twice, f) < 1e-15


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
    assert oracle.table_distance(again, f) == 0.0


def test_shift_support_lists_distinct_second_indices():
    f = weyl.WeylElement(0.3, {(1, 2): 1.0, (-4, 2): 2.0, (0, -3): 1j,
                               (5, 0): 0.5})
    assert f.shift_support() == [-3, 0, 2]
    assert weyl.WeylElement(0.3).shift_support() == []


def test_random_element_is_deterministic():
    a = weyl.random_element(np.random.default_rng(99), ALPHA, 2, decay=1.0)
    b = weyl.random_element(np.random.default_rng(99), ALPHA, 2, decay=1.0)
    assert oracle.table_distance(a, b) == 0.0
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


def test_smooth_seminorm_solves_the_chart_at_the_grid_points(monkeypatch):
    """The chart is solved at ``j / size``, the context's grid points;
    at size 2048, 317 of the points ``theta_j / (2 pi)`` are an ulp off."""
    d = dynamics.benchmark()
    points = []
    inverse = dynamics.ConjugatorLift.inverse

    def recording(self, y):
        points.append(np.array(y, dtype=float))
        return inverse(self, y)

    monkeypatch.setattr(dynamics.ConjugatorLift, "inverse", recording)
    weyl.smooth_seminorm(weyl.WeylElement.generator(d.alpha, 1, 0), d, 0, 1)
    assert len(points) == 1
    assert points[0].tobytes() == (np.arange(2048) / 2048).tobytes()


def loop_star_product(f, g):
    """Reference twisted convolution: the plain double loop over pairs,
    each phase reduced exactly (``oracle.exact_turns``)."""
    out = {}
    for a, fa in f.items():
        for b, gb in g.items():
            key = (a.m + b.m, a.n + b.n)
            phase = cmath.exp(2j * cmath.pi
                              * oracle.exact_turns(f.alpha, a.form(b)))
            out[key] = out.get(key, 0.0) + fa * gb * phase
    return weyl.WeylElement(f.alpha, out)


def assert_matches_loop(f, g, gate=1e-13, same_support=True):
    got = weyl.star_product(f, g)
    want = loop_star_product(f, g)
    if same_support:
        assert set(got.support()) == set(want.support())
    assert oracle.table_distance(got, want) < gate


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
    assert np.isnan(oracle.table_distance(f, g))
    assert np.isnan(oracle.table_distance(g, f))
    stacks = weyl._stack_of(f), weyl._stack_of(g)
    assert np.isnan(weyl._distances(*stacks)[0])
    assert np.isnan(weyl._distances(*stacks[::-1])[0])


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
    assert oracle.table_distance(f, f) == 0.0


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
        assert np.isnan(oracle.table_distance(out, g))


def test_malformed_keys_are_rejected():
    with pytest.raises(ValueError):
        weyl.WeylElement(ALPHA, [((1, 2, 3), 1.0)])
    with pytest.raises(ValueError):
        weyl.WeylElement.from_dict(
            {"alpha": ALPHA, "coeffs": [{"m": "x", "n": 0, "re": 1.0}]})
    with pytest.raises(KeyError):
        weyl.WeylElement.from_dict({"alpha": ALPHA,
                                    "coeffs": [{"m": 1, "re": 1.0}]})
    # a key it does not read, on the element or on a coefficient
    for data in ({"alpha": ALPHA, "coeffs": [], "alfa": 0.3},
                 {"alpha": ALPHA,
                  "coeffs": [{"m": 1, "n": 0, "re": 1.0, "imag": 0.5}]}):
        with pytest.raises(ValueError, match="unknown"):
            weyl.WeylElement.from_dict(data)


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
    assert oracle.table_distance(weyl.star_product(unit, f), f) == 0.0


EDGE = 2 ** 62 - 1


def test_keys_past_the_int64_edge_fail_closed():
    # negating -2**63 wrapped to itself (the adjoint's keys came out
    # unsorted), and two W(2**62, 0) multiplied onto (-2**63, 0)
    with pytest.raises(ValueError, match="2\\*\\*62"):
        weyl.WeylElement(ALPHA, {(-2 ** 63, 0): 1.0, (0, 0): 2.0, (5, 1): 1j})
    with pytest.raises(ValueError):
        weyl.WeylElement(ALPHA, {(2 ** 62, 0): 1.0})
    with pytest.raises(ValueError):
        weyl.WeylElement(ALPHA, {(0, 10 ** 20): 1.0})
    edge = weyl.WeylElement(ALPHA, {(EDGE, 0): 1.0})
    with pytest.raises(ValueError):
        weyl.star_product(edge, edge)
    with pytest.raises(ValueError):
        weyl.weyl_relation_check(ALPHA, [((EDGE, 0), (1, 0))])
    low = weyl.WeylElement(ALPHA, {(-EDGE, 0): 1.0, (0, 0): 2.0, (5, 1): 1j})
    assert weyl.involution(low).support() == [(-5, -1), (0, 0), (EDGE, 0)]
    assert weyl.star_product(edge, weyl.involution(edge)).support() == [
        (0, 0)]


GOLDEN = (5 ** 0.5 - 1) / 4
over_oracle_alphas = pytest.mark.parametrize(
    "alpha", [0.0, -0.0, 0.25, GOLDEN],
    ids=["zero", "negative-zero", "quarter", "golden"])


def assert_same_table(got, want):
    """The same alpha bits, keys and value bits (signed zeros and NaN
    included)."""
    assert struct.pack("d", got.alpha) == struct.pack("d", want.alpha)
    assert got.keys.dtype == want.keys.dtype
    assert got.keys.shape == want.keys.shape
    assert (got.keys == want.keys).all()
    assert got.values.tobytes() == want.values.tobytes()


def assert_star_matches_the_pairs(f, g):
    assert_same_table(weyl.star_product(f, g),
                      oracle.star_product_by_pairs(f, g))


def _box_pair(alpha, r1, r2, decay=0.0):
    seed = 10 * r1 + r2
    return tuple(weyl.random_element(np.random.default_rng(seed + i), alpha,
                                     r, decay)
                 for i, r in enumerate((r1, r2)))


@over_oracle_alphas
def test_star_product_is_bit_identical_to_the_pair_reduction(alpha):
    for r1 in range(5):
        for r2 in range(5):
            f, g = _box_pair(alpha, r1, r2, decay=1.0)
            assert_star_matches_the_pairs(f, g)
            # the second call reads the cached plan
            assert_star_matches_the_pairs(f, g)
    far = weyl.WeylElement(alpha, {(0, -2 ** 40): 1.0 - 2j,
                                   (2 ** 40, 2 ** 40): 2.0,
                                   (-2 ** 40, 3): 0.5j})
    near = weyl.random_element(np.random.default_rng(3), alpha, 2)
    for f, g in ((far, far), (far, near), (near, far)):
        assert_star_matches_the_pairs(f, g)
    empty = weyl.WeylElement(alpha)
    for f, g in ((empty, near), (near, empty), (empty, empty)):
        assert_star_matches_the_pairs(f, g)
    nan = near + weyl.WeylElement(alpha, {(1, -1): complex("nan"),
                                          (0, 2): complex(1.0, float("nan"))})
    assert_star_matches_the_pairs(nan, near)
    assert_star_matches_the_pairs(near, nan)
    # (1 + W(1,0)) (1 - W(-1,0)): the two origin terms cancel exactly
    f = weyl.WeylElement(alpha, {(0, 0): 1.0, (1, 0): 1.0})
    g = weyl.WeylElement(alpha, {(0, 0): 1.0, (-1, 0): -1.0})
    assert_star_matches_the_pairs(f, g)
    assert (0, 0) not in weyl.star_product(f, g).support()


@over_oracle_alphas
def test_random_element_is_bit_identical_to_the_coefficient_loop(alpha):
    for decay in (0, 1, 1.5, 2):
        for scale in (1.0, 0.37, -2.5):
            for radius in range(5):
                seed = 100 * radius + int(10 * decay)
                assert_same_table(
                    weyl.random_element(np.random.default_rng(seed), alpha,
                                        radius, decay, scale),
                    oracle.random_element_by_coefficients(
                        np.random.default_rng(seed), alpha, radius, decay,
                        scale))


@over_oracle_alphas
def test_involution_and_scaled_match_the_reducer(alpha):
    tables = [weyl.random_element(np.random.default_rng(r), alpha, r)
              for r in range(5)]
    tables += [
        weyl.WeylElement(alpha),
        # real and imaginary coefficients: conj and -1 make -0.0 parts
        weyl.WeylElement(alpha, {(0, 0): 2.0, (1, -2): -1j, (3, 1): 0.5}),
        weyl.WeylElement(alpha, {(0, -2 ** 40): 1.0, (2 ** 40, 2 ** 40): 2j,
                                 (1, 1): complex("nan")}),
    ]
    for f in tables:
        assert_same_table(weyl.involution(f), weyl._element(
            alpha, weyl._reduce(-f.keys, np.conj(f.values))))
        for factor in (1.0, -1.0, 0.5 - 2j, 0.0, complex("nan")):
            assert_same_table(f.scaled(factor), weyl._element(
                alpha, weyl._reduce(f.keys, factor * f.values)))


def _plan_of(f, g):
    return weyl._plan(struct.pack("d", f.alpha), f.keys.tobytes(),
                      g.keys.tobytes())


def test_plan_cache_is_bounded_read_only_and_never_aliased():
    assert weyl._plan.cache_info().maxsize <= 16
    f, g = _box_pair(ALPHA, 2, 3)
    product = weyl.star_product(f, g)
    phase, slot, keys = _plan_of(f, g)
    for array in (phase, slot, keys):
        assert not array.flags.writeable
    for mine in (product.keys, product.values):
        for held in (phase, slot, keys):
            assert not np.shares_memory(mine, held)
    # the docstring's bound: 24 bytes per pair, 16 per key of the
    # distinct sums and of the two supports in the cache key
    held = sum(a.nbytes for a in (phase, slot, keys, f.keys, g.keys))
    assert held <= 24 * len(f) * len(g) + 16 * (len(keys) + len(f) + len(g))
    # a product that drops nothing still returns fresh arrays
    unit = weyl.WeylElement.unit(ALPHA)
    again = weyl.star_product(unit, f)
    assert not np.shares_memory(again.keys, _plan_of(unit, f)[2])


def test_plan_cache_keys_on_the_bits_of_alpha():
    weyl._plan.cache_clear()
    for alpha in (0.0, -0.0, 0.0):
        unit = weyl.WeylElement.unit(alpha)
        weyl.star_product(unit, unit)
    info = weyl._plan.cache_info()
    assert (info.misses, info.hits) == (2, 1)


@over_oracle_alphas
def test_random_stack_is_the_sequential_draws(alpha):
    """A stack of draws holds the tables of as many draws one after the
    other, bit for bit, and leaves the generator where they leave it."""
    for radius in range(4):
        for decay in (0, 1, 2.5):
            for scale in (1.0, -0.5):
                seed = 10 * radius + int(2 * decay)
                rng = np.random.default_rng(seed)
                one_by_one = np.random.default_rng(seed)
                stack = weyl._random_stack(rng, alpha, radius, 5, decay,
                                           scale)
                for i in range(5):
                    assert_same_table(
                        stack.element(i),
                        oracle.random_element_by_coefficients(
                            one_by_one, alpha, radius, decay, scale))
                assert rng.random() == one_by_one.random()


def _one_support(alpha, tables):
    """The tables as one stack over the union of their supports, an
    absent key held as an exact zero."""
    slot, keys = weyl._runs(np.concatenate([t.keys for t in tables]))
    values = np.zeros((len(tables), len(keys)), dtype=complex)
    ends = np.cumsum([len(t) for t in tables])
    for i, (t, end) in enumerate(zip(tables, ends)):
        values[i, slot[end - len(t):end]] = t.values
    return weyl._Stack(alpha, keys, values)


def _assert_stacked_products(alpha, lefts, rights):
    product = weyl._star_stack(_one_support(alpha, lefts),
                               _one_support(alpha, rights))
    pairs = zip(lefts * len(rights), rights) if len(lefts) == 1 else zip(
        lefts, rights * len(lefts) if len(rights) == 1 else rights)
    for i, (f, g) in enumerate(pairs):
        assert_same_table(product.element(i),
                          oracle.star_product_by_pairs(f, g))


@over_oracle_alphas
def test_star_stack_is_bit_identical_to_the_per_pair_products(alpha):
    """Equal supports, different supports in one call (an absent key is
    a zero of the stack), a stack of one against many, and a NaN
    coefficient met by an absent key, which must add nothing.  No pair
    holds two one-key tables: numpy rounds that lone 1 x 1 product
    without FMA, a stacked one with it."""
    rng = np.random.default_rng(17)
    same = [weyl.random_element(rng, alpha, 2, 1.0) for _ in range(8)]
    _assert_stacked_products(alpha, same[:4], same[4:])
    mixed = [weyl.random_element(rng, alpha, r, 1.0) for r in (0, 1, 2, 3)]
    mixed.append(weyl.WeylElement(alpha, {(0, 0): 1.0, (1, 0): 1.0}))
    far = weyl.WeylElement(alpha, {(0, -2 ** 40): 1.0 - 2j, (3, 1): 0.5j})
    _assert_stacked_products(alpha, mixed, mixed[::-1])
    _assert_stacked_products(alpha, mixed + [far], [far] + mixed)
    _assert_stacked_products(alpha, same[:1], mixed)
    _assert_stacked_products(alpha, mixed, same[-1:])
    nan = same[0] + weyl.WeylElement(alpha, {(1, -1): complex("nan"),
                                             (0, 2): complex(1.0, np.nan)})
    _assert_stacked_products(alpha, [mixed[1], nan, mixed[2]],
                             [nan, mixed[1], nan])


@over_oracle_alphas
def test_stacked_adjoints_and_distances_are_the_per_table_ones(alpha):
    rng = np.random.default_rng(23)
    tables = [weyl.random_element(rng, alpha, r, 0.5) for r in (0, 1, 2, 3)]
    tables.append(tables[1] + weyl.WeylElement(alpha, {(0, 1): np.nan}))
    stack = _one_support(alpha, tables)
    adjoints = weyl._involution_stack(stack)
    for i, f in enumerate(tables):
        assert_same_table(adjoints.element(i), weyl._element(
            alpha, weyl._reduce(-f.keys, np.conj(f.values))))
    others = tables[1:] + tables[:1]
    got = weyl._distances(stack, _one_support(alpha, others))
    want = [oracle.table_distance(f, g) for f, g in zip(tables, others)]
    assert struct.pack("5d", *got) == struct.pack("5d", *want)


FAR_EXPONENTS = [10, 16, 20, 26, 31, 32, 40]


@pytest.mark.parametrize("e", FAR_EXPONENTS)
def test_far_key_products_keep_the_exact_phase(e):
    """``W(0, 2^e + 3) W(2^e + 1, 0)`` carries ``exp(2 pi i alpha sigma)``
    with ``alpha sigma`` reduced in ``Fraction``; from e = 32 on, sigma
    overflows the int64 form, which only counts modulo 2^64."""
    n, m = 2 ** e + 3, 2 ** e + 1
    prod = weyl.star_product(weyl.WeylElement.generator(ALPHA, 0, n),
                             weyl.WeylElement.generator(ALPHA, m, 0))
    assert prod.support() == [(m, n)]
    want = cmath.exp(2j * cmath.pi * oracle.exact_turns(ALPHA, -n * m))
    assert abs(prod[(m, n)] - want) <= 1e-15
    pairs = [((0, n), (m, 0)), ((m, 0), (0, n)), ((0, -n), (m, 1))]
    assert weyl.weyl_relation_check(ALPHA, pairs) <= 1e-15


def unreduced_plan(alpha, left, right):
    """The star-product plan that rounds ``2 pi alpha sigma`` unreduced."""
    a, b = (np.frombuffer(side, dtype=np.int64).reshape(-1, 2)
            for side in (left, right))
    (twist,) = struct.unpack("d", alpha)
    form = (np.multiply.outer(a[:, 1], b[:, 0])
            - np.multiply.outer(a[:, 0], b[:, 1]))
    phase = np.exp(-1j * (2.0 * np.pi * twist) * form)
    slot, keys = weyl._runs((a[:, None, :] + b[None, :, :]).reshape(-1, 2))
    return phase, slot, keys


def test_relation_check_catches_the_unreduced_plan(monkeypatch):
    """The relation's own phases are exact, so a plan that rounds the
    unreduced argument fails it at far keys (about 1e-6 at e = 16)."""
    pairs = [((0, 2 ** 16 + 3), (2 ** 16 + 1, 0))]
    tolerance = tolerances.resolve()["weyl_relation"]

    def row():
        return verify.check("weyl_relation",
                            weyl.weyl_relation_check(ALPHA, pairs), tolerance)

    assert row().passed
    monkeypatch.setattr(weyl, "_plan", unreduced_plan)
    failed = row()
    assert not failed.passed and failed.observed > 1e-7
