"""Deformed difference operators: blocks, closed forms, bounds."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nctorus import dirac, dynamics, gns
from nctorus.errors import OutOfBoxError
from nctorus.gns import TruncationBox

import oracle


@pytest.fixture(scope="module")
def growth(bench):
    return dynamics.growth_sequence(bench, 10)


def test_a_sequence_telescopes(bench, growth):
    a = dirac.a_sequence(growth, 8)
    assert dirac.telescoping_deviation(a, growth) < 1e-12
    off = 8
    assert a[off + 0] == 0.0
    # a_1 = 1 / Gamma_1 with Gamma_1 frozen at 1.7827124086389334
    assert_allclose(a[off + 1], 0.56094297383809695, atol=1e-9)
    # forward steps ascend, backward steps descend
    assert all(np.diff(a) > 0.0)


def test_a_sequence_rotation_is_integer():
    rot = dynamics.rotation(0.25)
    growth = dynamics.growth_sequence(rot, 6)
    a = dirac.a_sequence(growth, 5)
    assert_allclose(a, np.arange(-5, 6, dtype=float), atol=1e-13)


def test_undeformed_corner_and_inverse_norm():
    b = TruncationBox(4, 3)
    corner = oracle.undeformed_corner(b, 1.5)
    modes = np.arange(-3, 4)
    assert_allclose(np.diag(corner), 1j * modes - 1.5, atol=1e-15)
    # smallest singular value of the diagonal corner, inverted
    want = 1.0 / np.min(np.abs(1j * modes - 1.5))
    assert_allclose(dirac.diagonal_inverse_norm(b, 1.5), want, atol=1e-13)


def test_deformed_corner_reduces_at_rotation():
    rot = dynamics.rotation(0.3)
    b = TruncationBox(4, 3)
    for n, a_n in ((2, 1.3), (-1, -0.4)):
        corner = dirac.deformed_corner(n, 0.5, rot, b, a_n)
        want = oracle.undeformed_corner(b, a_n)
        assert np.max(np.abs(corner - want)) < 1e-12


@pytest.mark.parametrize("lift", ["bench", "rot"])
def test_corner_at_block_zero_is_the_drift_diagonal(lift, request, box):
    """delta_0 = 1, so B_0 = I and the corner at n = 0, a_0 = 0 is exactly
    diag(i l) at every eta: no roundoff off the diagonal."""
    d = request.getfixturevalue(lift)
    for eta in dirac.ETAS:
        assert np.array_equal(dirac.deformed_corner(0, eta, d, box, 0.0),
                              np.diag(1j * box.modes()))


@pytest.mark.parametrize("size", [16, 32])
@pytest.mark.parametrize("lift", ["bench", "rot"])
def test_closed_form_corner_matches_the_grid_pipeline(lift, size, request):
    """The affine closed form equals the grid pipeline on every block and
    every entry of the box, not only the master radius."""
    d = request.getfixturevalue(lift)
    box = TruncationBox(size, size)
    ctx = gns._context(d, box)
    a = dirac.a_sequence(dynamics.growth_sequence(d, size), size)
    for n in box.blocks():
        a_n = float(a[n + size])
        for eta in dirac.ETAS:
            closed = dirac.deformed_corner(n, eta, d, box, a_n)
            grid = dirac._corner(ctx.delta[n + size], eta, a_n, ctx.waves.T,
                                 box.modes())
            scale = np.max(np.abs(grid))
            assert np.max(np.abs(closed - grid)) <= 1e-13 * scale, (n, eta)


def test_deformed_block_is_self_adjoint(bench, growth):
    b = TruncationBox(4, 4)
    a = dirac.a_sequence(growth, 5)
    block = oracle.deformed_block(2, 0.5, bench, b, float(a[5 + 2]))
    assert np.max(np.abs(block - block.conj().T)) < 1e-9


def test_closed_form_rotation_values():
    """At the rotation the matrix element tables are exactly diagonal."""
    rot = dynamics.rotation(0.30901699437494745)
    b = TruncationBox(8, 8)
    growth = dynamics.growth_sequence(rot, 8)
    a = dirac.a_sequence(growth, 8)
    r = 4
    tables = {(eta, k): dirac.matrix_element_closed_form(eta, k, rot, b, a, r)
              for eta in dirac.ETAS for k in (1, 2)}
    # eta = 1/2, (k, l) = (1, 2): -(i l + a_{-k}) = 1 - 2i
    assert_allclose(tables[0.5, 1][2 + r, 2 + r], 1.0 - 2.0j, atol=1e-13)
    # eta != 1/2, (k, l) = (2, -3): i l - a_k
    for eta in (0.0, 0.25, 0.75, 1.0):
        assert_allclose(tables[eta, 2][-3 + r, -3 + r], -2.0 - 3.0j,
                        atol=1e-13)
    # off the diagonal everything vanishes
    off = ~np.eye(2 * r + 1, dtype=bool)
    for table in tables.values():
        assert table.shape == (2 * r + 1, 2 * r + 1)
        assert np.max(np.abs(table[off])) < 1e-13


def test_master_deviation_benchmark(bench, box):
    assert dirac.master_deviation(bench, box, 4) < 1e-12


def test_master_deviation_rotation(rot, box):
    assert dirac.master_deviation(rot, box, 4) < 1e-12


def test_oracle_radius_guard(bench, growth):
    b = TruncationBox(4, 4)
    a = dirac.a_sequence(growth, 4)
    with pytest.raises(OutOfBoxError):
        dirac.matrix_element_oracle_table(0.5, 6, bench, b, a, 4)


def test_resolvent_profile_bounds(bench, box, growth):
    rows = dirac.resolvent_profile(bench, box, range(-4, 5),
                                   (0.0, 0.5, 1.0), growth=growth)
    assert len(rows) == 27
    for row in rows:
        assert row["kernel_dim"] == (1 if row["n"] == 0 else 0)
        assert row["margin"] >= 0.0, row
        assert row["resolvent"] <= row["bound"]


def test_commutator_bound(bench, box, growth):
    for n in (-3, 1, 4):
        for eta in (0.0, 0.25, 0.5, 1.0):
            _, norm, bound = dirac.commutator_block(
                n, eta, bench, box, growth)
            assert norm <= bound * (1.0 + 1e-6), (n, eta)


def test_commutator_rotation_is_exactly_one():
    rot = dynamics.rotation(0.2)
    b = TruncationBox(4, 4)
    growth = dynamics.growth_sequence(rot, 6)
    _, norm, bound = dirac.commutator_block(2, 0.5, rot, b, growth)
    assert_allclose(norm, 1.0, atol=1e-12)
    assert_allclose(bound, 1.0, atol=1e-12)


@pytest.mark.parametrize("size", [12, 20, 32])
@pytest.mark.parametrize("lift", ["bench", "rot"])
def test_inverse_shift_pair_is_the_shift_twin(lift, size, request):
    """The inverse-shift block at (n, eta) is minus the shift block at
    (n + 1, 1 - eta), with the same norm and bound: equal to <= 6e-16
    relative on the benchmark (the products round in another order) and
    bit for bit on the rotation, where every density is 1.  With ETAS
    closed under eta -> 1 - eta, the shift pairs hold both generators."""
    assert sorted(1.0 - eta for eta in dirac.ETAS) == list(dirac.ETAS)
    d = request.getfixturevalue(lift)
    box = TruncationBox(size, size)
    growth = dynamics.growth_sequence(d, 10)
    tol = 1e-15 if lift == "bench" else 0.0
    for n in range(-8, 9):
        for eta in dirac.ETAS:
            inverse = dirac.commutator_block(n, eta, d, box, growth,
                                             generator="shift_inverse")
            twin = dirac.commutator_block(n + 1, 1.0 - eta, d, box, growth)
            scale = np.max(np.abs(twin[0]))
            assert np.max(np.abs(inverse[0] + twin[0])) <= tol * scale
            for got, want in zip(inverse[1:], twin[1:]):
                assert abs(got - want) <= tol * want, (n, eta)


@pytest.mark.parametrize("lift", ["bench", "rot"])
def test_bound_table_rows_are_the_per_block_readers(lift, request):
    """One pass over the blocks, one stacked SVD per block and kind,
    reads the bits of the public readers one block or pair at a time:
    resolvent rows over |n| <= R, shift pairs over n in [-R, R + 1]."""
    d = request.getfixturevalue(lift)
    box, radius, slack = TruncationBox(12, 12), 5, 1e-6
    growth = dynamics.growth_sequence(d, radius + 1)
    etas = (0.5, 0.0, 0.75)
    rows, excess = dirac._bound_table(d, box, growth, radius, etas, slack)
    assert rows == dirac.resolvent_profile(
        d, box, range(-radius, radius + 1), etas, growth, slack)
    assert excess.shape == (2 * radius + 2, len(dirac.ETAS))
    for n in range(-radius, radius + 2):
        for j, eta in enumerate(dirac.ETAS):
            _, norm, bound = dirac.commutator_block(n, eta, d, box, growth)
            assert excess[n + radius, j] == norm - bound * (1.0 + slack)


def test_commutator_block_refuses_a_short_growth_sequence(bench, box):
    growth = dynamics.growth_sequence(bench, 4)
    for n in (len(growth), -len(growth)):
        with pytest.raises(OutOfBoxError):
            dirac.commutator_block(n, 0.5, bench, box, growth)
    # the neighbour counts too: block 4 and its inverse-shift neighbour 5
    with pytest.raises(OutOfBoxError):
        dirac.commutator_block(4, 0.5, bench, box, growth,
                               generator="shift_inverse")


def test_normalized_step_identity(bench, growth):
    """Every step of a is exactly one reciprocal growth value."""
    a = dirac.a_sequence(growth, 8)
    off = 8
    assert_allclose((a[off + 1] - a[off]) * growth.gamma(1), 1.0, atol=1e-12)
    assert dirac.telescoping_deviation(a, growth) < 1e-12


def test_corner_beyond_the_box_solves_no_chart(bench, monkeypatch):
    box = TruncationBox(3, 4)
    n = box.block_bound + 1
    growth = dynamics.growth_sequence(bench, n)
    a_n = float(dirac.a_sequence(growth, n)[2 * n])
    warm = dirac.deformed_corner(n, 0.5, bench, box, a_n)
    calls = []
    inverse = dynamics.ConjugatorLift.inverse

    def counting(self, y):
        calls.append(y)
        return inverse(self, y)

    monkeypatch.setattr(dynamics.ConjugatorLift, "inverse", counting)
    again = dirac.deformed_corner(n, 0.5, bench, box, a_n)
    assert calls == []
    assert np.array_equal(again, warm)
    # the density beyond the box is the closed form on the same chart
    ctx = gns._context(bench, box)
    assert np.array_equal(ctx.density(n),
                          dynamics.radon_nikodym(bench, n, x=ctx.x))


@pytest.mark.parametrize("lift", ["bench", "rot"])
def test_density_helper_matches_the_context_table(lift, request):
    d = request.getfixturevalue(lift)
    box = TruncationBox(20, 20)
    ctx = gns._context(d, box)
    assert np.array_equal(ctx.density(box.blocks()), ctx.delta)
    for n in box.blocks():
        # the context rows are bit-equal to the closed form on the chart
        recomputed = (d.lift.derivative(ctx.u + 2.0 * d.alpha * n)
                      / d.lift.derivative(ctx.u))
        assert np.array_equal(ctx.density(n), recomputed)
    # a stack reaching past the box: the table inside, the chart beyond
    ns = np.arange(-box.block_bound - 2, box.block_bound + 3)
    rows = ctx.density(ns)
    assert rows.shape == (len(ns), box.grid_size)
    assert np.array_equal(rows[2:-2], ctx.delta)
    for n, row in zip(ns, rows):
        assert np.array_equal(row, dynamics.radon_nikodym(d, n, x=ctx.x))


def test_corner_inside_the_box_evaluates_no_lift(bench, monkeypatch):
    box = TruncationBox(3, 4)
    growth = dynamics.growth_sequence(bench, box.block_bound)
    a = dirac.a_sequence(growth, box.block_bound)
    cases = [(n, eta) for n in box.blocks() for eta in dirac.ETAS]
    k = box.block_bound
    warm = [dirac.deformed_corner(n, eta, bench, box, float(a[n + k]))
            for n, eta in cases]
    calls = []
    for name in ("derivative", "inverse"):
        method = getattr(dynamics.ConjugatorLift, name)

        def counting(self, y, name=name, method=method):
            calls.append(name)
            return method(self, y)

        monkeypatch.setattr(dynamics.ConjugatorLift, name, counting)
    again = [dirac.deformed_corner(n, eta, bench, box, float(a[n + k]))
             for n, eta in cases]
    assert calls == []
    assert all(np.array_equal(x, y) for x, y in zip(again, warm))
