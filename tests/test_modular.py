"""Modular conjugation, modular operator powers, Borel calculus."""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nctorus import dirac, dynamics, fourier, gns, modular, tolerances, weyl
from nctorus.errors import AliasingError, SingularBlockError
from nctorus.gns import TruncationBox

import oracle


def orbit_vector(d, box, rng, radius=2, decay=2.0):
    """Image of the vacuum under a random smooth algebra element.

    Algebra-orbit vectors have the analytic mode decay the modular
    machinery expects; raw coefficient noise would trip the aliasing
    guard by design.
    """
    f = weyl.random_element(rng, d.alpha, radius, decay=decay)
    return gns.represent(f, d, box).apply(gns.vacuum(box))


def test_delta_fixes_the_vacuum(bench, box):
    xi = gns.vacuum(box)
    for a in (0.5, -1.0, 0.25):
        dev = (modular.apply_delta_power(xi, a, bench) - xi).norm()
        assert dev < 1e-15


def test_delta_power_additivity(bench, box, rng):
    x = orbit_vector(bench, box, rng)
    once = modular.apply_delta_power(x, 0.75, bench)
    twice = modular.apply_delta_power(
        modular.apply_delta_power(x, 0.5, bench), 0.25, bench)
    # the split route projects its intermediate once more; the gap is
    # the band tail of that intermediate, not an algebraic error
    assert (once - twice).norm() < 1e-8


def test_delta_is_positive(bench, box, rng):
    x = orbit_vector(bench, box, rng)
    val = modular.apply_delta_power(x, 1.0, bench).inner(x)
    assert abs(val.imag) < 1e-12
    assert val.real > 0.0


def test_j_is_an_antiunitary_involution(bench, box, rng):
    x = orbit_vector(bench, box, rng)
    y = orbit_vector(bench, box, rng)
    jx = modular.apply_J(x, bench)
    jy = modular.apply_J(y, bench)
    assert abs(jx.inner(jy) - y.inner(x)) < 1e-12
    # J^2 = 1, checked through the conjugated Borel route at power zero
    back = modular.conjugated_borel_apply(x, ("power", 0.0), bench)
    assert (back - x).norm() < 1e-12


def test_j_fixes_the_vacuum(bench, box):
    xi = gns.vacuum(box)
    assert (modular.apply_J(xi, bench) - xi).norm() < 1e-12


def tomita_worst(d, box, rng, count=5):
    worst = 0.0
    for _ in range(count):
        f = weyl.random_element(rng, d.alpha, 2, decay=2.0)
        worst = max(worst, modular.tomita_check(f, d, box))
    return worst


def test_tomita_on_the_benchmark(bench, box, rng):
    """S pi(a) xi = pi(a*) xi to roundoff: the chain is composed on the
    grid and projected once."""
    assert tomita_worst(bench, box, rng) < 1e-12


def test_tomita_rotation_case_is_exact(rot, box, rng):
    assert tomita_worst(rot, box, rng) < 1e-12


@pytest.mark.parametrize("case", ["bench", "rot"])
@pytest.mark.parametrize("bounds", [(6, 8), (8, 8)])
def test_tomita_is_exact_on_small_boxes(case, bounds, request, rng):
    # with a band cut between Delta^{1/2} and J the aliasing guard trips
    # on the benchmark dynamics at these boxes
    d = request.getfixturevalue(case)
    assert tomita_worst(d, TruncationBox(*bounds), rng) < 1e-12


def _root_rows_power(power):
    def rows(f, d, box):
        # every table through its whole operator, times delta^power,
        # read at the blocks of the shifts
        vacuum = gns.vacuum(box).on_grid()
        delta = gns._context(d, box).delta ** power
        full = np.stack([gns.represent(f.element(i), d, box).apply_to_grid(
            vacuum) * delta for i in range(len(f.values))])
        at = np.unique(f.keys[:, 1]) + box.block_bound
        return at, full[:, at]
    return rows


def _j_without_conjugate(ctx, blocks, rows):
    to_chart, phase, from_chart, _ = modular._transport(ctx)
    at = ctx.box.n_blocks - 1 - blocks[::-1]
    moved = (rows[..., ::-1, :] @ to_chart * phase[at]) @ from_chart
    return at, ctx.sqrt_delta[at] * moved


def _j_without_flip(ctx, blocks, rows):
    to_chart, phase, from_chart, _ = modular._transport(ctx)
    moved = (rows @ to_chart * phase[blocks]) @ from_chart
    return blocks, ctx.sqrt_delta[blocks] * np.conj(moved)


@pytest.mark.parametrize("attr, mutant", [
    ("_root_stack", _root_rows_power(0.5001)),
    ("_root_stack", _root_rows_power(0.0)),
    ("_j_rows", _j_without_conjugate),
    ("_j_rows", _j_without_flip),
], ids=["delta-power-0.5001", "no-sqrt-delta", "no-conjugate", "no-flip"])
def test_tomita_gate_catches_mutants(bench, small_box, rng, monkeypatch,
                                     attr, mutant):
    """The stacked kernels behind ``tomita_check`` (a stack of one),
    mutated, fail the gate."""
    monkeypatch.setattr(modular, attr, mutant)
    assert tomita_worst(bench, small_box, rng) > tolerances.DEFAULTS["tomita"]


def test_borel_identity(bench, box, rng):
    """J f(Delta) J = conj-f(1/Delta) for sampled Borel functions."""
    x = orbit_vector(bench, box, rng)
    for fn in (("power", 0.5), ("power", -1.0),
               ("rational", (1.0, 2.0), (1.0, 3.0))):
        dev = modular.borel_identity_check(fn, x, bench)
        assert dev < 1e-9, fn


def test_aliasing_guard_fires_on_rough_vectors(bench, rng):
    b = TruncationBox(6, 8)
    rough = gns.random_vector(rng, b)
    with pytest.raises(AliasingError):
        modular.apply_J(rough, bench)


def test_rational_pole_on_spectrum_is_rejected(bench, box):
    # denominator t - 1 vanishes at the fixed block delta_0 = 1
    with pytest.raises(SingularBlockError):
        modular.borel_apply(gns.vacuum(box), ("rational", (1.0,), (1.0, -1.0)),
                            bench)


def test_rotation_modular_operator_is_trivial(rot, box, rng):
    """At the rotation the state is a trace: Delta = 1 and J is plain."""
    x = orbit_vector(rot, box, rng)
    dev = (modular.apply_delta_power(x, 0.5, rot) - x).norm()
    assert dev < 1e-13


def j_reference(x, d):
    """``(J x)_n(x_j) = delta_n^{1/2} conj(x_{-n}(F_n(x_j)))`` pointwise.

    Reference for the chart transport: the iterate and the density come
    straight from the dynamics module and the trigonometric sum of each
    block is written out at the iterate positions.
    """
    box = x.box
    grid = np.arange(box.grid_size) / box.grid_size
    rows = np.empty((box.n_blocks, box.grid_size), dtype=complex)
    for i, n in enumerate(box.blocks()):
        f_n = dynamics.iterate_lift(d, int(n), grid)
        waves = np.exp(2j * np.pi * np.multiply.outer(f_n, box.modes()))
        source = x.coeffs[box.n_blocks - 1 - i]
        rows[i] = (np.sqrt(dynamics.radon_nikodym(d, int(n), x=grid))
                   * np.conj(waves @ source))
    return rows


def band(box, rows):
    """Mode coefficients ``|l| <= M`` of grid rows."""
    c = np.fft.fft(rows, axis=1) / box.grid_size
    return c[:, box.modes() % box.grid_size]


@pytest.mark.parametrize("case, tol", [("bench", 1e-13), ("rot", 1e-14)])
def test_j_matches_the_pointwise_definition(case, tol, request, small_box,
                                            rng):
    # on the rotation the chart is the identity and transport is a phase
    d = request.getfixturevalue(case)
    x = gns.random_vector(rng, small_box)
    ref = band(small_box, j_reference(x, d))
    # the band of the J rows, without the aliasing guard of apply_J
    got = band(small_box, modular._j_on_grid(gns._context(d, small_box),
                                             x.on_grid()))
    assert np.max(np.abs(got - ref)) <= tol
    eps = fourier.epsilon_basis(d, small_box)
    kb, mb = small_box.block_bound, small_box.mode_bound
    for k, l in ((-6, 8), (0, -3), (3, 5), (6, -8), (-2, 0)):
        e_kl = gns.basis_vector(small_box, k, l)
        ref = band(small_box, j_reference(e_kl, d))[-k + kb]
        assert np.max(np.abs(eps[k + kb, l + mb] - ref)) <= tol, (k, l)


def test_modular_memory_is_bounded(bench, rng):
    """J, the conjugated basis and the modular paren route stay O(G^2)."""
    box = TruncationBox(32, 32)
    f = weyl.random_element(rng, bench.alpha, 2, decay=2.0)
    gns._context.cache_clear()
    tracemalloc.start()
    try:
        x = gns.represent(f, bench, box).apply(gns.vacuum(box))
        modular.conjugated_borel_apply(x, ("power", 0.5), bench)
        modular.apply_J(x, bench)
        fourier.epsilon_basis(bench, box)
        fourier.paren_functional(f, bench, box, route="modular")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gns._context.cache_clear()
    assert peak < 64 * 2 ** 20


def test_context_build_solves_the_chart_once(bench, small_box, monkeypatch):
    calls = []
    inverse = dynamics.ConjugatorLift.inverse

    def counting(self, y):
        calls.append(y)
        return inverse(self, y)

    monkeypatch.setattr(dynamics.ConjugatorLift, "inverse", counting)
    gns._Context(bench, small_box)
    assert len(calls) == 1


def test_only_a_context_that_applies_j_builds_the_transport(
        bench, small_box, rng, monkeypatch):
    built = []

    class Recorded(gns._Context):
        def __init__(self, d, box):
            super().__init__(d, box)
            built.append(self)

    monkeypatch.setattr(gns, "_Context", Recorded)
    gns._context.cache_clear()
    try:
        f0 = weyl.random_element(rng, 0.0, 3, decay=0.5)
        fourier.classical_limit_compare(f0, TruncationBox(8, 8))
        fourier.dirichlet_coefficient_table(4, bench, small_box)
        f = weyl.random_element(rng, bench.alpha, 2, decay=2.0)
        gns.state_eval(f, bench, route="gns")
        gns.vacuum_image(f, bench, small_box)
        gns.represent(f, bench, small_box).norm_estimate()
        assert len(built) == 3
        assert all(ctx.transport is None for ctx in built)
        xi = gns.vacuum(small_box)
        modular.apply_J(xi, bench)
        ctx = gns._context(bench, small_box)
        first = ctx.transport
        assert first is not None
        modular.apply_J(xi, bench)
        assert ctx.transport is first
        assert len(built) == 3
        assert [c for c in built if c.transport is not None] == [ctx]
    finally:
        gns._context.cache_clear()


@pytest.mark.parametrize("op", [
    lambda x, d: modular.apply_J(x, d),
    lambda x, d: modular.apply_delta_power(x, 1.0, d),
    lambda x, d: modular.borel_apply(x, ("power", 0.5), d),
], ids=["J", "delta_power", "borel"])
def test_reprojection_fails_closed_on_nan(bench, small_box, rng, op):
    x = orbit_vector(bench, small_box, rng)
    x.coeffs[small_box.block_bound, small_box.mode_bound + 1] = np.nan
    with pytest.raises(AliasingError):
        op(x, bench)
    zero = gns.GnsVector.zeros(small_box)
    assert op(zero, bench).norm() == 0.0


def test_only_gns_and_modular_name_the_transport():
    """The J transport is built and applied in modular alone, and
    ``delta^{1/2}`` is a chart field of the context that only modular
    reads, so ``Delta^{1/2} pi(f) xi`` has one composition."""
    package = Path(gns.__file__).parent
    files = sorted(package.glob("*.py"))
    transport = [path.name for path in files
                 if re.search(r"to_chart|from_chart|wave_spectra",
                              path.read_text())]
    root = [path.name for path in files
            if re.search(r"\bsqrt_delta\b", path.read_text())]
    assert transport == ["modular.py"]
    assert root == ["gns.py", "modular.py"]


def _occupied_rows(box, blocks, rng):
    rows = np.zeros((box.n_blocks, box.grid_size), dtype=complex)
    shape = (len(blocks), box.grid_size)
    rows[blocks] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rows


@pytest.mark.parametrize("name", ["bench", "rot"])
@pytest.mark.parametrize("bounds", [(6, 8), (20, 20)])
def test_live_row_transport_equals_the_all_rows_product(name, bounds,
                                                        request, rng):
    """One, five and all blocks occupied: J moves the live rows only and
    is bit-equal to the all-rows product; the pairings agree to roundoff
    (a small product may take another BLAS kernel than the whole)."""
    d = request.getfixturevalue(name)
    box = TruncationBox(*bounds)
    ctx = gns._context(d, box)
    k = box.block_bound
    for blocks in ([0], [k], [box.n_blocks - 1], list(range(k - 2, k + 3)),
                   list(range(box.n_blocks))):
        rows = _occupied_rows(box, blocks, rng)
        j = modular._j_on_grid(ctx, rows)
        assert np.array_equal(j, oracle.j_on_grid_all_rows(ctx, rows))
        assert np.all(np.delete(j, box.n_blocks - 1 - np.array(blocks),
                                axis=0) == 0)
        got = modular._epsilon_pairings(ctx, rows)
        want = oracle.epsilon_pairings_all_rows(ctx, rows)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_epsilon_pairings_round_the_same_below_and_above_the_elision_threshold(
        bench, rng):
    """All 65 rows of K = M = 32 (G = 512) hold 520 KiB of spectra, past
    the 256 KiB where numpy would swap the factors of ``spectra * phase``;
    each row of their pairings is bit-equal to its row among 8 rows."""
    box = TruncationBox(32, 32)
    ctx = gns._context(bench, box)
    rows = _occupied_rows(box, list(range(box.n_blocks)), rng)
    whole = modular._epsilon_pairings(ctx, rows)
    for lo in range(0, box.n_blocks, 8):
        part = np.zeros_like(rows)
        part[lo:lo + 8] = rows[lo:lo + 8]
        table = box.n_blocks - 1 - np.arange(lo, min(lo + 8, box.n_blocks))
        assert np.array_equal(modular._epsilon_pairings(ctx, part)[table],
                              whole[table])


@pytest.mark.parametrize("transport", ["_j_on_grid", "_epsilon_pairings"])
def test_live_row_transport_keeps_nan_and_zero_rows(bench, small_box, rng,
                                                    transport):
    ctx = gns._context(bench, small_box)
    move = getattr(modular, transport)
    k = small_box.block_bound
    rows = _occupied_rows(small_box, [k - 1, k, k + 3], rng)
    rows[k, 5] = np.nan
    out = move(ctx, rows)
    assert np.isnan(out[k]).all()
    assert np.isfinite(np.delete(out, k, axis=0)).all()
    zero = np.zeros_like(rows)
    assert np.all(move(ctx, zero) == 0)


@pytest.mark.parametrize("name", ["bench", "rot"])
@pytest.mark.parametrize("bounds", [(6, 8), (20, 20), (32, 32)])
def test_conjugated_rows_of_a_window_equal_the_all_modes_rows(name, bounds,
                                                              request):
    """J of the waves of a window of 1, 2 and 2r + 1 modes (r = 4, the
    default Dirac master radius) in one block, as the Dirac oracle and
    ``fourier.epsilon_basis`` take it, is bit-equal to the same rows of
    the all-modes product: a lone mode is batched, so it takes the same
    gemm kernel."""
    d = request.getfixturevalue(name)
    box = TruncationBox(*bounds)
    ctx = gns._context(d, box)
    m = box.mode_bound
    windows = [[m], [0], [box.n_modes - 1], [m, m + 1],
               list(range(m - 4, m + 5)), list(range(box.n_modes))]
    for i in (0, box.block_bound + 1, box.n_blocks - 1):
        full = oracle.conjugated_rows_all_modes(ctx, i)
        for window in windows:
            at, got = modular._j_rows(ctx, np.array([i]),
                                      ctx.waves[window][:, None])
            assert at.tolist() == [box.n_blocks - 1 - i]
            assert np.array_equal(got[:, 0], full[window])


@pytest.mark.parametrize("name", ["bench", "rot"])
@pytest.mark.parametrize("bounds", [(6, 8), (20, 20)])
def test_j_of_the_waves_reads_the_kept_spectra(name, bounds, request):
    """``_j_waves``, from the u-spectra of the waves the transport keeps,
    is ``_j_rows`` of the waves bit for bit, over all modes, a window of
    nine and a lone mode; it, ``epsilon_basis`` and the eta = 1/2 Dirac
    oracle leave the kept table as it was."""
    d = request.getfixturevalue(name)
    box = TruncationBox(*bounds)
    ctx = gns._context(d, box)
    kept = modular._transport(ctx)[3]
    before = kept.copy()
    m = box.mode_bound
    for i in (0, box.block_bound + 1, box.n_blocks - 1):
        for window in (slice(None), np.arange(m - 4, m + 5), [m]):
            at, want = modular._j_rows(ctx, np.array([i]),
                                       ctx.waves[window][:, None])
            image, got = modular._j_waves(ctx, i, window)
            assert [image] == at.tolist()
            assert np.array_equal(got, want[:, 0])
    fourier.epsilon_basis(d, box)
    dirac.master_elements(d, box, 4, etas=(0.5,))
    assert modular._transport(ctx)[3] is kept
    assert np.array_equal(kept, before)


@pytest.mark.parametrize("name", ["bench", "rot"])
@pytest.mark.parametrize("bounds", [(6, 8), (20, 20), (32, 32)])
def test_stacked_j_rows_are_the_per_vector_rows(name, bounds, request):
    """J of the live rows of a stack of nine ``Delta^{1/2} pi(f) xi``, in
    one transport batch of 45 rows, is bit-equal row for row to J of each
    vector through every block (``oracle.j_on_grid_all_rows``); a stack
    of one vector with one live row is too.  ``_tomita_deviations`` of
    the stack, run in chunks, is ``tomita_check`` table by table."""
    d = request.getfixturevalue(name)
    box = TruncationBox(*bounds)
    ctx = gns._context(d, box)
    stack = weyl._random_stack(np.random.default_rng(8), d.alpha, 2, 9,
                               decay=2.0)
    blocks, rows = modular._root_stack(stack, d, box)
    at, moved = modular._j_rows(ctx, blocks, rows)
    assert np.array_equal(at, box.n_blocks - 1 - blocks[::-1])
    for i in range(9):
        full = np.zeros((box.n_blocks, box.grid_size), dtype=complex)
        full[blocks] = rows[i]
        want = oracle.j_on_grid_all_rows(ctx, full)
        assert np.array_equal(moved[i], want[at])
    lone = rows[:1, 2:3]
    full = np.zeros((box.n_blocks, box.grid_size), dtype=complex)
    full[blocks[2]] = lone[0, 0]
    assert np.array_equal(modular._j_rows(ctx, blocks[2:3], lone)[1][0],
                          oracle.j_on_grid_all_rows(ctx, full)[at[-3:-2]])
    deviations = modular._tomita_deviations(stack, d, box)
    assert [float(v) for v in deviations] == [
        modular.tomita_check(stack.element(i), d, box) for i in range(9)]


def _outcome(route, *args):
    """The coefficient bytes (or the float) a route returns, or the
    message of the aliasing gate it trips."""
    try:
        value = route(*args)
    except AliasingError as err:
        return str(err)
    return np.asarray(getattr(value, "coeffs", value)).tobytes()


@pytest.mark.parametrize("name", ["bench", "rot"])
def test_borel_readers_keep_the_whole_grid_bits(name, request, box,
                                                small_box, rng):
    """``apply_J``, ``conjugated_borel_apply`` and
    ``borel_identity_check``, read from one ``_borel_stack`` of live
    rows, equal the whole-grid routes of ``oracle`` bit for bit (a
    complex rational function included), and a rough vector trips the
    same gate with the same message on the benchmark."""
    d = request.getfixturevalue(name)
    fns = (("power", 0.0), ("power", 0.5), ("power", -1.0),
           ("rational", (1.0, 2.0), (1.0, 3.0)),
           ("rational", (1j, 2.0), (1.0, 3.0 - 1j)))
    vectors = [orbit_vector(d, box, rng), orbit_vector(d, box, rng, 4, 3.0),
               gns.random_vector(rng, small_box)]
    for x in vectors:
        assert (_outcome(modular.apply_J, x, d)
                == _outcome(oracle.apply_J_by_grid, x, d))
        for fn in fns:
            assert (_outcome(modular.conjugated_borel_apply, x, fn, d)
                    == _outcome(oracle.conjugated_borel_by_grid, x, fn, d))
            assert (_outcome(modular.borel_identity_check, fn, x, d)
                    == _outcome(oracle.borel_identity_by_grid, fn, x, d))
    # the rotation's J moves no mass out of the band
    tripped = isinstance(_outcome(modular.apply_J, vectors[-1], d), str)
    assert tripped == (name == "bench")
    assert isinstance(_outcome(modular.apply_J, vectors[0], d), bytes)
