"""Verification suites fail closed on non-finite deviations."""

import math
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from nctorus import dirac, dynamics, fourier, gns, modular, summation
from nctorus import tolerances, verify, weyl
from nctorus.gns import TruncationBox

import oracle


def test_nan_tomita_deviation_fails(rot, small_box, monkeypatch):
    """The suite reduces the stacked deviations; a NaN among them fails."""
    monkeypatch.setattr(modular, "_tomita_deviations",
                        lambda f, d, box: np.full(len(f.values), np.nan))
    rows = verify.modular_suite(rot, small_box, tolerances.resolve(),
                                np.random.default_rng(1), count=3)
    row = next(r for r in rows if r.name == "tomita_conjugation")
    assert math.isnan(row.observed)
    assert not row.passed


def _row(rows, name):
    return next(r for r in rows if r.name == name)


def test_decrease_check_needs_a_drop():
    for rows in ([], [{"l2_error": 0.5}]):
        result = verify.decrease_check("abel_monotone", rows)
        assert not result.passed
    two = [{"l2_error": 0.5}, {"l2_error": 0.25}]
    assert verify.decrease_check("abel_monotone", two).passed


def test_empty_master_element_table_is_an_error():
    with pytest.raises(ValueError):
        dirac.element_deviation([])


def test_one_nan_matrix_element_fails_dirac_master(rot, small_box,
                                                   monkeypatch):
    real = dirac.matrix_element_closed_form
    calls = []

    def one_entry_of_third_is_nan(*args):
        calls.append(args)
        table = real(*args)
        if len(calls) == 3:
            table[0, 1] = np.nan
        return table

    monkeypatch.setattr(dirac, "matrix_element_closed_form",
                        one_entry_of_third_is_nan)
    row = _row(verify.dirac_master_suite(rot, small_box, tolerances.resolve(),
                                         radius=2), "dirac_master")
    assert len(calls) > 3
    assert math.isnan(row.observed)
    assert not row.passed


def _rounded_eta(real):
    return lambda delta, eta, a_n, radius: real(delta, round(eta), a_n,
                                                radius)


def _flipped_drift(real):
    # the Dirac derivative-sign mutant, D = diag(-i l - a_n): c (-i x - a)
    # is -(c (i x + a)), the corner at drift -a_n negated
    return lambda delta, eta, a_n, radius: -real(delta, eta, -a_n, radius)


@pytest.mark.parametrize("mutant, lifts", [
    (_rounded_eta, ["bench"]),
    (_flipped_drift, ["bench", "rot"]),
], ids=["rounded-eta", "flipped-drift"])
def test_corner_mutant_fails_dirac_master(small_box, monkeypatch, request,
                                          mutant, lifts):
    """At the rotation delta = 1 and the corner is the same at every eta,
    so only the benchmark lift can see the rounded eta."""
    monkeypatch.setattr(dirac, "_affine_corner", mutant(dirac._affine_corner))
    for lift in lifts:
        d = request.getfixturevalue(lift)
        rows = verify.dirac_master_suite(d, small_box, tolerances.resolve(),
                                         radius=2)
        assert not _row(rows, "dirac_master").passed, lift
    if mutant is _rounded_eta:
        # round(eta) = eta on {0, 1}, and eta = 1/2 has its own closed
        # form: a master over those three etas cannot see this mutant
        bench = request.getfixturevalue("bench")
        assert dirac.master_deviation(bench, small_box, 2,
                                      etas=(0.0, 0.5, 1.0)) < 1e-12


def test_nan_growth_number_fails_telescoping(rot, small_box, monkeypatch):
    real = dirac.telescoping_deviation

    def nan_gamma_2(a, growth):
        values = list(growth.values)
        values[2] = float("nan")
        return real(a, dynamics.GrowthSequence(tuple(values)))

    monkeypatch.setattr(dirac, "telescoping_deviation", nan_gamma_2)
    row = _row(verify.dirac_bounds_suite(rot, small_box, tolerances.resolve(),
                                         n_radius=2), "telescoping")
    assert math.isnan(row.observed)
    assert not row.passed


def test_one_nan_hat_coefficient_fails_wts_generators(rot, small_box,
                                                      monkeypatch):
    real = summation.hat_vector

    def nan_at_origin(x):
        table = real(x)
        poisoned = table.table.copy()
        poisoned[small_box.block_bound, small_box.mode_bound] = np.nan
        return fourier.FourierCoeffs(table.kind, poisoned, table.box)

    monkeypatch.setattr(summation, "hat_vector", nan_at_origin)
    row = _row(verify.wts_suite(rot, small_box, tolerances.resolve(),
                                np.random.default_rng(1), radius=2),
               "wts_generators")
    assert math.isnan(row.observed)
    assert not row.passed


def test_dynamics_suite_solves_only_at_the_iterates(bench, small_box,
                                                   monkeypatch):
    """The densities and iterates of the grid read the context's chart,
    so the nine independent solves at the iterates ``f^n(x)`` (one for
    all nine right-hand densities of each) are the only grid inverse
    solves; the orbit of the rotation number solves at single points."""
    gns._context(bench, small_box)
    grid_calls = []
    inverse = dynamics.ConjugatorLift.inverse

    def counting(self, y):
        if np.ndim(y):
            grid_calls.append(y)
        return inverse(self, y)

    monkeypatch.setattr(dynamics.ConjugatorLift, "inverse", counting)
    rows = verify.dynamics_suite(bench, small_box, tolerances.resolve())
    assert all(r.passed for r in rows)
    assert len(grid_calls) == 9


def test_wts_suite_retains_no_multipliers(bench):
    """The transference sweep keeps nothing per (k, l) once it returns."""
    box = TruncationBox(16, 16)
    gns._context(bench, box)
    tols, rng = tolerances.resolve(), np.random.default_rng(1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = verify.wts_suite(bench, box, tols, rng)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(row.passed for row in rows)
    assert retained < 2 ** 20


@pytest.mark.parametrize("name", ["bench", "rot"])
def test_wts_suite_builds_its_rows_once_for_the_per_call_values(
        name, request, monkeypatch):
    """The suite's seven deviations share one build of the ``u_kl`` rows,
    a block k at a time, and one rotation of each block per transference
    point; each is the bits of its own ``summation.wts_deviation``
    call."""
    d = request.getfixturevalue(name)
    box = TruncationBox(6, 8)
    points = [summation.TransferencePoint.from_angles(1.1, 2.3),
              summation.TransferencePoint.from_angles(4.0, 0.7)]
    f = weyl.random_element(np.random.default_rng(3), d.alpha, 2, decay=1.0)
    gen_want = max(summation.wts_deviation(
        weyl.WeylElement.generator(d.alpha, m, n), w, d, box, 8)
        for w in points for (m, n) in ((0, 1), (1, 0), (1, 2)))
    rand_want = summation.wts_deviation(f, points[0], d, box, 8)
    calls = []
    for fn in ("_u_kl_rows", "rotate"):
        def counted(*args, real=getattr(summation, fn), fn=fn):
            calls.append(fn if fn == "rotate" else args[2])
            return real(*args)
        monkeypatch.setattr(summation, fn, counted)
    rows = verify.wts_suite(d, box, tolerances.resolve(),
                            np.random.default_rng(3))
    blocks = list(range(-box.block_bound, box.block_bound + 1))
    assert calls == [c for k in blocks for c in (k, "rotate", "rotate")]
    assert _row(rows, "wts_generators").observed == gen_want
    assert _row(rows, "wts_random").observed == rand_want


def _inflate_one_commutator(monkeypatch, n_hit, eta_hit, generator_hit):
    """Raise one pair's norm to twice its growth bound.  The Dirac table
    reads the inverse-shift pair (n, eta) as its shift twin (n + 1,
    1 - eta), so that is the pair raised."""
    if generator_hit == "shift_inverse":
        n_hit, eta_hit = n_hit + 1, 1.0 - eta_hit
    real = dirac.commutator_block

    def inflated(n, eta, d, box, growth, generator="shift"):
        matrix, norm, bound = real(n, eta, d, box, growth,
                                   generator=generator)
        if (n, generator) == (n_hit, "shift"):
            norm = np.where(np.equal(eta, eta_hit), 2.0 * bound, norm)
        return matrix, norm, bound

    monkeypatch.setattr(dirac, "commutator_block", inflated)


def test_commutator_bound_reads_the_nontrivial_pairs(bench, small_box):
    """The reported excess is not the -slack |a_1 - a_0| of a trivial
    pair (a constant-step multiplier, where the bound is an equality)."""
    tols = tolerances.resolve()
    row = _row(verify.dirac_bounds_suite(bench, small_box, tols,
                                         n_radius=4), "commutator_bound")
    growth = dynamics.growth_sequence(bench, small_box.block_bound + 1)
    a = dirac.a_sequence(growth, 1)
    trivial = -tols["dirac_bound_slack"] * abs(a[2] - a[1])
    assert row.passed
    assert row.observed < 0.0
    assert abs(row.observed - trivial) > 1e3 * abs(trivial)


@pytest.mark.parametrize("pair, reported", [
    ((3, 0.5, "shift"), True),
    ((-2, 0.0, "shift_inverse"), True),
    ((1, 1.0, "shift"), False),
    ((0, 0.0, "shift_inverse"), False),
    ((0, 0.0, "shift"), False),
    ((2, 0.25, "shift"), True),
    ((-4, 0.75, "shift_inverse"), True),
    ((4, 0.5, "shift_inverse"), True),
], ids=["nontrivial-shift", "nontrivial-inverse", "trivial-shift",
        "trivial-inverse", "trivial-shift-at-zero", "quarter-eta-shift",
        "quarter-eta-inverse", "inverse-at-the-radius"])
def test_one_inflated_commutator_norm_fails(bench, small_box, monkeypatch,
                                            pair, reported):
    """Any pair above its bound fails the check, at every eta of
    ``dirac.ETAS`` and up to the inverse shift at n = n_radius, whose
    twin is the shift at n_radius + 1; only the nontrivial ones set the
    reported excess."""
    _inflate_one_commutator(monkeypatch, *pair)
    row = _row(verify.dirac_bounds_suite(bench, small_box,
                                         tolerances.resolve(), n_radius=4),
               "commutator_bound")
    assert not row.passed
    assert (row.observed > 0.0) == reported


def _shifted_l(rows):
    return lambda d, box, k, l, n: rows(d, box, k, np.asarray(l) + 1, n)


def _one_nan_row(rows):
    def mutant(d, box, k, l, n):
        out = rows(d, box, k, l, n).copy()
        out[(0,) * (out.ndim - 1)] = np.nan
        return out
    return mutant


@pytest.mark.parametrize("mutate", [_shifted_l, _one_nan_row],
                         ids=["l-plus-one", "nan-row"])
def test_u_kl_vacuum_catches_a_faulty_row(rot, small_box, monkeypatch,
                                          mutate):
    """A wrong character row fails ``u_kl_vacuum`` in the quick battery."""
    tols = tolerances.resolve()
    assert _row(verify.run_all(rot, small_box, tols), "u_kl_vacuum").passed
    monkeypatch.setattr(gns, "_u_kl_rows", mutate(gns._u_kl_rows))
    row = _row(verify.run_all(rot, small_box, tols), "u_kl_vacuum")
    assert not row.passed


def test_quick_verify_represents_only_the_operator_probes(rot, small_box,
                                                          monkeypatch):
    """Quick verify builds no whole operator: the homomorphism and
    adjoint probes of ``gns_suite`` apply each table through
    ``gns._apply``, a shift's rows at a time, so ``represent`` runs 0
    times and no ``GnsOperator`` is constructed.  Every vacuum image goes
    through ``gns.vacuum_image``."""
    real = gns.represent
    calls = []
    built = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if (name.startswith("nctorus")
                and getattr(module, "represent", None) is real):
            monkeypatch.setattr(module, "represent", counting)
    init = gns.GnsOperator.__init__

    def constructing(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(gns.GnsOperator, "__init__", constructing)
    rows = verify.run_all(rot, small_box, tolerances.resolve(), quick=True)
    assert all(r.passed for r in rows)
    assert len(calls) == 0
    assert len(built) == 0
    gns.represent(weyl.random_element(np.random.default_rng(1), rot.alpha,
                                      2), rot, small_box)
    assert len(calls) == len(built) == 1


def test_quick_verify_evaluates_no_state_one_table_at_a_time(
        rot, small_box, monkeypatch):
    """The state routes read the stacked series and vacuum images, so
    quick ``run_all`` makes no ``gns.state_eval`` call."""
    real = gns.state_eval
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("nctorus")
                and getattr(module, "state_eval", None) is real):
            monkeypatch.setattr(module, "state_eval", counting)
    rows = verify.run_all(rot, small_box, tolerances.resolve(), quick=True)
    assert all(r.passed for r in rows)
    assert calls == []


@pytest.mark.parametrize("name", ["bench", "rot"])
def test_far_density_rows_fail_the_cocycle_and_normalization(name, request,
                                                            monkeypatch):
    """Densities scaled by 1.01 on |n| >= 5 only: the probes of every
    other suite live in the first few blocks, and the dynamics suite
    reads the context's table, so the cocycle law and the normalization
    of every row catch it at quick K = M = 32."""
    d = request.getfixturevalue(name)
    box, tols = TruncationBox(32, 32), tolerances.resolve()
    names = ("cocycle_identity", "density_normalization")
    rows = verify.run_all(d, box, tols, quick=True)
    assert all(_row(rows, n).passed for n in names)
    ctx = gns._context(d, box)
    scale = np.where(np.abs(box.blocks()) >= 5, 1.01, 1.0)[:, None]
    monkeypatch.setattr(ctx, "delta", ctx.delta * scale)
    monkeypatch.setattr(ctx, "sqrt_delta", ctx.sqrt_delta * np.sqrt(scale))
    rows = verify.run_all(d, box, tols, quick=True)
    for n in names:
        assert _row(rows, n).observed > 1e-3, n
        assert not _row(rows, n).passed, n


def _with_nan_coefficient(real):
    def element(rng, alpha, radius, decay=0.0):
        f = real(rng, alpha, radius, decay=decay)
        return f + weyl.WeylElement(alpha, {(1, 1): np.nan})
    return element


def _with_nan_coefficients(real):
    """Every table of the stack with a NaN added at (1, 1), as the
    tables of ``_with_nan_coefficient`` have it."""
    def stack(rng, alpha, radius, count, decay=0.0):
        tables = real(rng, alpha, radius, count, decay=decay)
        at = (tables.keys[:, 0] == 1) & (tables.keys[:, 1] == 1)
        tables.values[:, at] += np.nan
        return tables
    return stack


def test_a_nan_coefficient_fails_the_tomita_and_parseval_checks(
        bench, small_box, monkeypatch):
    """Its block alone is NaN, and that is enough to fail both gates."""
    tols = tolerances.resolve()
    f = _with_nan_coefficient(weyl.random_element)(
        np.random.default_rng(2), bench.alpha, 2)
    tomita = modular.tomita_check(f, bench, small_box)
    assert not verify.check("tomita_conjugation", tomita,
                            tols["tomita"]).passed
    monkeypatch.setattr(weyl, "_random_stack",
                        _with_nan_coefficients(weyl._random_stack))
    rows = verify.parseval_suite(bench, small_box, tols,
                                 np.random.default_rng(2), count=3)
    for name in ("parseval", "hausdorff_young_endpoint"):
        assert math.isnan(_row(rows, name).observed)
        assert not _row(rows, name).passed
    # the NaN sits in block 1 of each image, off the vacuum's block, and
    # still reaches its vacuum expectation
    assert math.isnan(verify._state_routes(bench, np.random.default_rng(2),
                                           3))


@pytest.mark.parametrize("name", ["bench", "rot"])
@pytest.mark.parametrize("bounds", [(6, 8), (8, 10)])
def test_stacked_suites_give_the_per_element_values(name, bounds, request,
                                                    monkeypatch):
    """Quick ``run_all`` with the star algebra, GNS, modular and Parseval
    suites and the state routes run one element at a time, the GNS
    probes through whole operators (``tests/oracle.py``), gives the
    stacked suites' rows: every observed value to the bit but
    ``tomita_conjugation``, which is held within 1e-16.  On the benchmark at K = 6, M = 8 the J probes trip the
    aliasing gate, and both routes report the same first tripped gate."""
    d = request.getfixturevalue(name)
    box, tols = TruncationBox(*bounds), tolerances.resolve()
    stacked = verify.run_all(d, box, tols, quick=True)
    for suite in ("star_algebra_suite", "gns_suite", "modular_suite",
                  "parseval_suite"):
        monkeypatch.setattr(verify, suite,
                            getattr(oracle, f"{suite}_by_element"))
    monkeypatch.setattr(verify, "_state_routes",
                        oracle.state_routes_by_element)
    reference = verify.run_all(d, box, tols, quick=True)
    assert [r.name for r in stacked] == [r.name for r in reference]
    for got, want in zip(stacked, reference):
        assert (got.tolerance, got.passed, got.note) == (
            want.tolerance, want.passed, want.note), got.name
        if got.name == "tomita_conjugation":
            assert abs(got.observed - want.observed) <= 1e-16
        else:
            assert struct.pack("d", got.observed) == struct.pack(
                "d", want.observed), got.name


def _one_wrong_phase_in_the_last_table(real):
    """The stacked product with one pair twist of its last table
    conjugated: the fault is in that table only."""
    def star(f, g):
        out = real(f, g)
        if len(out.values) < 2:
            return out
        phase, slot, _ = weyl._plan(f.alpha, f.keys, g.keys)
        pair = np.flatnonzero(np.abs(phase.imag) > 0.1)[0]
        a, b = divmod(pair, phase.shape[1])
        values = out.values.copy()
        values[-1, slot[pair]] += (f.values[-1, a] * g.values[-1, b]
                                   * (np.conj(phase[a, b]) - phase[a, b]))
        return weyl._Stack(out.alpha, out.keys, values)
    return star


def _nan_in_the_last_table(real):
    def mutant(f, *args):
        values = f.values.copy()
        values[-1, len(f.keys) // 2] = np.nan  # the origin of a box support
        return real(weyl._Stack(f.alpha, f.keys, values), *args)
    return mutant


def _unconjugated_last_row(real, faulty):
    """J with the conjugate left out of the last row of the transports
    numbered in ``faulty`` (from 1, in call order)."""
    calls = []

    def j_rows(ctx, blocks, rows):
        at, moved = real(ctx, blocks, rows)
        calls.append(len(rows))
        if len(calls) in faulty:
            moved = moved.copy()
            last = (-1,) * (moved.ndim - 1)
            moved[last] = np.conj(moved[last])
        return at, moved
    return j_rows


def test_a_wrong_phase_in_the_last_table_fails_associativity(bench,
                                                             monkeypatch):
    tols, rng = tolerances.resolve(), np.random.default_rng(5)
    rows = verify.star_algebra_suite(bench.alpha, tols, rng, count=7)
    assert _row(rows, "star_associativity").passed
    monkeypatch.setattr(weyl, "_star_stack",
                        _one_wrong_phase_in_the_last_table(weyl._star_stack))
    rows = verify.star_algebra_suite(bench.alpha, tols,
                                     np.random.default_rng(5), count=7)
    assert not _row(rows, "star_associativity").passed


def test_a_nan_in_the_last_table_fails_parseval_and_hausdorff_young(
        rot, small_box, monkeypatch):
    """The Parseval series and the vacuum images each reduce a stack; a
    NaN coefficient in the last table of either fails its row.  Twelve
    tables run in chunks of two at K = 6."""
    tols = tolerances.resolve()
    rows = verify.parseval_suite(rot, small_box, tols,
                                 np.random.default_rng(5), count=7)
    assert all(r.passed for r in rows)
    monkeypatch.setattr(gns, "_series", _nan_in_the_last_table(gns._series))
    monkeypatch.setattr(gns, "_vacuum_rows",
                        _nan_in_the_last_table(gns._vacuum_rows))
    rows = verify.parseval_suite(rot, small_box, tols,
                                 np.random.default_rng(5), count=7)
    for name in ("parseval", "hausdorff_young_endpoint"):
        assert math.isnan(_row(rows, name).observed), name
        assert not _row(rows, name).passed, name


def test_an_unconjugated_last_j_row_fails_tomita_and_borel(rot, small_box,
                                                          monkeypatch):
    """At K = 6 the seven Tomita tables run in chunks of two, so the
    fourth transport holds the last table alone; the tenth is the second
    transport of the last of three probe pairs, whose last row is the
    rational function's.  The fault sits in those two rows only."""
    tols = tolerances.resolve()
    rows = verify.modular_suite(rot, small_box, tols,
                                np.random.default_rng(5), count=7)
    assert all(r.passed for r in rows)
    monkeypatch.setattr(modular, "_j_rows",
                        _unconjugated_last_row(modular._j_rows, {4, 10}))
    rows = verify.modular_suite(rot, small_box, tols,
                                np.random.default_rng(5), count=7)
    for name in ("tomita_conjugation", "borel_identity"):
        assert not _row(rows, name).passed, name


def test_modular_suite_memory_stays_within_the_per_element_peak(bench):
    """With the transport built, ``modular_suite`` at K = M = 20, count
    50, seed 1 peaks at or below 910177 traced bytes, the peak of the
    per-element suite it replaces (measured on that code; these stacks
    read about 647000).  Its stacks carry live rows only, a chunk at a
    time, so no stack holds more grid rows than one vector."""
    box, tols = TruncationBox(20, 20), tolerances.resolve()
    verify.modular_suite(bench, box, tols, np.random.default_rng(0), count=5)
    tracemalloc.start()
    try:
        rows = verify.modular_suite(bench, box, tols,
                                    np.random.default_rng(1), count=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in rows)
    assert peak <= 910177


def test_gns_suite_frees_each_pairs_operators(bench):
    """With the context built, ``gns_suite`` at seed 1 peaks at or below
    3.2e6 traced bytes at K = M = 20 with the default counts (about
    2.6e6 here) and 32e6 at K = M = 64, radius 4, five pairs (about
    15.3e6): no operator is alive, each pi holding one shift's rows at a
    time.  Four whole operators per pair peaked at 6.35e6 and 63.6e6."""
    tols = tolerances.resolve()
    for bounds, counts, limit in (
            ((20, 20), {}, 3.2e6),
            ((64, 64), {"u_radius": 4, "hom_count": 5}, 32e6)):
        box = TruncationBox(*bounds)
        verify.gns_suite(bench, box, tols, np.random.default_rng(0),
                         u_radius=counts.get("u_radius", 8), hom_count=2)
        tracemalloc.start()
        try:
            rows = verify.gns_suite(bench, box, tols,
                                    np.random.default_rng(1), **counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in rows), bounds
        assert peak <= limit, (bounds, peak)


def test_dirac_bounds_suite_holds_one_block_at_a_time(bench):
    """With the context built, ``dirac_bounds_suite`` peaks at or below
    0.9e6 traced bytes at K = M = 20, radius 8 (about 0.57e6 here) and
    1.6e6 at K = M = 32, radius 4 (about 1.10e6): the table is built one
    block at a time, each block's corners and commutators one stack of
    five (2M + 1)^2 matrices.  About 0.3e6 of that is the growth
    sequence.  Built whole, every block's corners and commutators in one
    stack each, the same table read about 5.4e6 and 7.2e6."""
    tols = tolerances.resolve()
    for bounds, n_radius, limit in (((20, 20), 8, 0.9e6),
                                    ((32, 32), 4, 1.6e6)):
        box = TruncationBox(*bounds)
        verify.dirac_bounds_suite(bench, box, tols, n_radius=n_radius)
        tracemalloc.start()
        try:
            rows = verify.dirac_bounds_suite(bench, box, tols,
                                             n_radius=n_radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in rows), bounds
        assert peak <= limit, (bounds, peak)


def test_stacked_suites_take_a_zero_count(bench):
    """No Tomita, Parseval or star-algebra table: the rows read 0.0, as
    the per-element loops that ran zero times did."""
    box, tols = TruncationBox(16, 16), tolerances.resolve()
    for suite, args in (("modular_suite", (bench, box, tols)),
                        ("parseval_suite", (bench, box, tols)),
                        ("star_algebra_suite", (bench.alpha, tols))):
        got = getattr(verify, suite)(*args, np.random.default_rng(1), count=0)
        want = getattr(oracle, f"{suite}_by_element")(
            *args, np.random.default_rng(1), count=0)
        assert got == want, suite
    assert verify._state_routes(bench, np.random.default_rng(1), 0) == 0.0
