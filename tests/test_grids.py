import inspect
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nctorus import dirac, dynamics, gns, grids
from nctorus.errors import GridMismatchError, GridTooSmallError
from nctorus.gns import TruncationBox

import oracle


def poly_of(mode_bound, entries):
    """Coefficients ``[l + M]`` from a {mode: coefficient} mapping."""
    coeffs = np.zeros(2 * mode_bound + 1, dtype=complex)
    for m, c in entries.items():
        coeffs[m + mode_bound] = c
    return coeffs


def test_default_grid_size_is_power_of_two():
    assert grids.default_grid_size(16) == 256
    assert grids.default_grid_size(0) == 8
    for m in range(0, 40):
        g = grids.default_grid_size(m)
        assert g >= 8 * (m + 1)
        assert g & (g - 1) == 0


def test_poly_evaluate_matches_grid_samples():
    poly = poly_of(3, {0: 1.0, 2: 0.5 - 0.25j, -3: 1j})
    theta = grids.grid_angles(64)
    direct = (1.0 + (0.5 - 0.25j) * np.exp(2j * theta)
              + 1j * np.exp(-3j * theta))
    assert_allclose(oracle.evaluate(poly, theta), direct, atol=1e-14)
    assert_allclose(grids.on_grid(poly, 64), direct, atol=1e-13)


def test_derivative_multiplies_by_il():
    poly = poly_of(4, {1: 2.0, -4: 1.0 + 1j})
    theta = grids.grid_angles(32)
    want = 2j * np.exp(1j * theta) - 4j * (1.0 + 1j) * np.exp(-4j * theta)
    assert_allclose(oracle.evaluate(oracle.derivative(poly), theta), want,
                    atol=1e-13)
    # the spectral derivative on a stack acts row by row, along any axis
    stack = np.stack([grids.on_grid(poly, 32), np.exp(3j * theta)])
    rows = np.stack([want, 3j * np.exp(3j * theta)])
    assert_allclose(grids.spectral_derivative(stack), rows, atol=1e-12)
    assert_allclose(grids.spectral_derivative(stack.T, axis=0), rows.T,
                    atol=1e-12)
    # sign d/dtheta - drift, applied twice
    shifted = (-1j * 3 - 0.5) ** 2 * np.exp(3j * theta)
    assert_allclose(grids.spectral_derivative(stack, 0.5, -1.0, order=2)[1],
                    shifted, atol=1e-12)


def test_projection_roundtrip_and_tail():
    """Band-limited samples project back to the exact coefficients."""
    rng = np.random.default_rng(3)
    entries = {m: complex(rng.normal(), rng.normal()) for m in range(-5, 6)}
    f = grids.on_grid(poly_of(5, entries), 64)
    back = grids.project_to_modes(f, 5)
    for m, c in entries.items():
        assert abs(back[m + 5] - c) < 1e-13
    assert oracle.projection_tail(f, 5) < 1e-13
    # dropping the edge modes leaves exactly their mass in the tail
    mass = abs(entries[5]) ** 2 + abs(entries[-5]) ** 2
    assert_allclose(oracle.projection_tail(f, 4) ** 2, mass, rtol=1e-10)
    # a row stack projects row by row; its tail counts all rows together
    coeffs = rng.normal(size=(3, 11)) + 1j * rng.normal(size=(3, 11))
    stack = grids.on_grid(coeffs, 64)
    assert stack.shape == (3, 64)
    for row, c in zip(stack, coeffs):
        assert np.array_equal(row, grids.on_grid(c, 64))
    band = grids.project_to_modes(stack, 4)
    assert band.shape == (3, 9)
    for row, got in zip(stack, band):
        assert np.array_equal(got, grids.project_to_modes(row, 4))
    assert_allclose(band, coeffs[:, 1:-1], atol=1e-13)
    tails = [oracle.projection_tail(row, 4) for row in stack]
    assert_allclose(oracle.projection_tail(stack, 4),
                    np.sqrt(np.sum(np.square(tails))), rtol=1e-14)
    assert_allclose(oracle.projection_tail(stack, 4),
                    np.linalg.norm(coeffs[:, [0, -1]]), rtol=1e-12)


def test_toeplitz_matches_the_mode_loop():
    rng = np.random.default_rng(5)
    g, m = 32, 4
    spec = rng.normal(size=(2, g)) + 1j * rng.normal(size=(2, g))
    mats = grids.toeplitz(spec, m)
    assert mats.shape == (2, 2 * m + 1, 2 * m + 1)
    freqs = list(grids.frequencies(g))
    for r in range(2):
        c = dict(zip(freqs, spec[r]))
        for i, l in enumerate(range(-m, m + 1)):
            for j, lp in enumerate(range(-m, m + 1)):
                assert mats[r, i, j] == c[l - lp]
    # on the band it multiplies by the function the spectrum samples
    theta = grids.grid_angles(g)
    mult = 2.0 + np.cos(theta)
    x = np.zeros(2 * m + 1, dtype=complex)
    x[m + 1] = 1.0
    prod = grids.project_to_modes(mult * np.exp(1j * theta), m)
    assert_allclose(grids.toeplitz(grids.spectrum(mult), m) @ x, prod,
                    atol=1e-15)


def test_rotate_shifts_the_angle():
    theta = grids.grid_angles(16)
    stack = np.stack([np.exp(2j * theta), np.cos(3 * theta) + 0j])
    want = np.stack([np.exp(2j * (theta + 0.3)), np.cos(3 * (theta + 0.3))])
    assert_allclose(grids.rotate(stack, 0.3), want, atol=1e-14)


def test_only_grids_calls_the_fft():
    """The sampled Fourier convention lives in one module."""
    package = Path(grids.__file__).parent
    users = []
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        if "np.fft" in text or "numpy.fft" in text:
            users.append(path.name)
    assert users == ["grids.py"]


# BLAS dot, behind np.vdot, np.dot, np.inner and a vector np.linalg.norm,
# rounds by its thread count past 10,000 entries.
_BLAS_REDUCTION = re.compile(
    r"\bvdot\b|\bdot\(|np\.inner\(|np\.linalg\.norm\([^)]*\)")


def test_blas_reduction_scan_sees_every_spelling():
    for call in ("np.vdot(q, w)", "q.dot(w)", "np.dot(a, b)",
                 "np.inner(a, b)", "np.linalg.norm(w)",
                 "np.linalg.norm(images, axis=-1)"):
        assert _BLAS_REDUCTION.search(call), call
    for call in ("l2(w)", "inner(w, q)", "grids.inner(a, b)", "x.norm()",
                 "np.sum(x * np.conj(y))"):
        assert not _BLAS_REDUCTION.search(call), call


def test_only_grids_reduces_norms_and_inner_products():
    """Every vector norm and inner product is ``grids.l2`` or
    ``grids.inner``, numpy's pairwise sum, so no artifact depends on the
    BLAS thread count.  No exception: the Dirac operator norms are read
    off the one LAPACK SVD (see below) until the Dirac gates are
    certified without it (ROADMAP item 3)."""
    package = Path(grids.__file__).parent
    found = [(path.name, call) for path in sorted(package.glob("*.py"))
             if path.name != "grids.py"
             for call in _BLAS_REDUCTION.findall(path.read_text())]
    assert found == []


# A LAPACK SVD, spelled out or behind a matrix norm, condition number,
# rank, pseudo-inverse or least squares solve.
_SVD = re.compile(
    r"\bsvd(?:vals)?\b|\bord\s*=\s*-?2\b|['\"]nuc['\"]"
    r"|\blinalg\.(?:cond|matrix_rank|pinv|lstsq)\b")


def test_svd_scan_sees_every_spelling():
    for call in ("np.linalg.svd(stack, compute_uv=False)",
                 "numpy.linalg.svd(a)", "linalg.svd(x)",
                 "from numpy.linalg import svd", "scipy.linalg.svdvals(a)",
                 "np.linalg.norm(matrix, ord=2)",
                 "np.linalg.norm(m, ord = -2)",
                 "np.linalg.norm(m, 'nuc')", "np.linalg.cond(m)",
                 "np.linalg.matrix_rank(m)", "np.linalg.pinv(m)",
                 "np.linalg.lstsq(a, b)"):
        assert _SVD.search(call), call
    for call in ("_singular_values(corners)", "np.linalg.norm(w)",
                 "np.linalg.norm(images, axis=-1)", "np.linalg.eigvalsh(t)",
                 "np.linalg.cholesky(gram)", "norm(x, ord=20)",
                 "a LAPACK SVD"):
        assert not _SVD.search(call), call


def test_only_the_dirac_table_takes_an_svd():
    """Every Dirac corner and commutator norm is read off one LAPACK SVD,
    ``dirac._singular_values``, the one call ROADMAP item 3 replaces with
    certified Cholesky bounds."""
    package = Path(grids.__file__).parent
    found = [(path.name, call) for path in sorted(package.glob("*.py"))
             for call in _SVD.findall(path.read_text())]
    assert found == [("dirac.py", "svd")]
    assert "np.linalg.svd(" in inspect.getsource(dirac._singular_values)


def test_inner_rounds_the_same_below_and_above_the_elision_threshold():
    """Above 256 KiB numpy would reuse the temporary ``conj(y)`` and swap
    the factors of ``x * conj(y)``; with FMA that changes the bits of
    the product.  The whole inner product over 2^15 entries (512 KiB)
    equals the sum of products taken 1024 entries at a time."""
    rng = np.random.default_rng(11)
    x, y = (rng.standard_normal(2 ** 15) + 1j * rng.standard_normal(2 ** 15)
            for _ in range(2))
    pieces = np.concatenate([x[lo:lo + 1024] * np.conj(y[lo:lo + 1024])
                             for lo in range(0, len(x), 1024)])
    assert grids.inner(x, y) == np.sum(pieces)
    assert grids.inner(x[:1024], y[:1024]) == np.sum(pieces[:1024])


def test_l2_and_inner_are_the_euclidean_norm_and_inner_product():
    rng = np.random.default_rng(5)
    x, y = (rng.standard_normal((3, 40)) + 1j * rng.standard_normal((3, 40))
            for _ in range(2))
    assert_allclose(grids.l2(x), np.linalg.norm(x), rtol=1e-15)
    assert_allclose(grids.l2(x, axis=-1), np.linalg.norm(x, axis=-1),
                    rtol=1e-15)
    assert_allclose(grids.inner(x, y), np.vdot(y, x), rtol=1e-14)
    assert_allclose(grids.inner(2j * x, y), 2j * grids.inner(x, y),
                    rtol=1e-15)
    assert_allclose(grids.inner(x, x).real, grids.l2(x) ** 2, rtol=1e-14)
    assert grids.l2(np.zeros(0)) == 0.0


def test_on_grid_rejects_undersized_grid():
    with pytest.raises(GridTooSmallError):
        grids.on_grid(poly_of(8, {8: 1.0}), 16)
    with pytest.raises(ValueError, match="odd length"):
        grids.on_grid(np.ones(4), 16)


def test_quadrature_mean_kills_nonzero_modes():
    theta = grids.grid_angles(32)
    for m in (1, 5, -7, 15):
        wave = np.exp(1j * m * theta)
        val = oracle.quadrature_mean(wave)
        assert abs(val) < 1e-15
    const = oracle.quadrature_mean(np.full(32, 2.5 + 1j))
    assert_allclose(const, 2.5 + 1j, atol=1e-15)


def test_quadrature_inner_orthonormality():
    theta = grids.grid_angles(64)
    e2 = np.exp(2j * theta)
    e3 = np.exp(3j * theta)
    assert abs(oracle.quadrature_inner(e2, e3)) < 1e-15
    assert_allclose(oracle.quadrature_inner(e2, e2), 1.0 + 0j, atol=1e-15)


def test_inner_rejects_mismatched_grids():
    a = np.ones(16)
    b = np.ones(32)
    with pytest.raises(GridMismatchError):
        oracle.quadrature_inner(a, b)


def exact_cycles(x, n) -> float:
    """``x n mod 1`` in ``Fraction``, rounded once."""
    return float(Fraction(x) * n % 1)


def circle_gap(a, b) -> float:
    """Distance of two cycle counts on the circle R / Z."""
    gap = abs(a - b) % 1.0
    return min(gap, 1.0 - gap)


def test_cycles_is_the_exact_fraction_rounded_once():
    """From 2^-11 up, ``x n mod 1`` is reduced exactly and rounded once,
    so it is the ``Fraction`` value (1.0 where that rounds up to 1);
    below, the part of x under 2^-64 times n is rounded once more."""
    rng = np.random.default_rng(25)
    big = 2 ** 63 - 1
    ns = np.concatenate([rng.integers(-big, big, 40, endpoint=True),
                         [0, 1, -1, 7, big, -big, 2 ** 53 + 1, -(2 ** 62)]])
    large = np.concatenate([
        rng.uniform(-4.0, 4.0, 40), [0.0, -0.0, 0.25, -3.5, 2.0 ** -11,
                                     -(2.0 ** -11), 0.30901699437494745,
                                     2.0 ** 53, 2.0 ** 53 + 2,
                                     2.0 ** 60 + 2 ** 8,
                                     -(2.0 ** 70), 1e300, 4.0 - 2.0 ** -51]])
    small = np.concatenate([
        rng.uniform(-1.0, 1.0, 40) * 2.0 ** -rng.integers(12, 80, 40),
        [2.0 ** -12, -(2.0 ** -64), 2.0 ** -65 * 3, 5e-324, -1e-300]])
    got = grids.cycles(large[:, None], ns[None, :])
    for i, x in enumerate(large.tolist()):
        for j, n in enumerate(ns.tolist()):
            assert got[i, j] == exact_cycles(x, n), (x, n)
    got = grids.cycles(small[:, None], ns[None, :])
    for i, x in enumerate(small.tolist()):
        for j, n in enumerate(ns.tolist()):
            assert circle_gap(got[i, j], exact_cycles(x, n)) <= 2.3e-16
    # integers, large ones included, have no fraction
    assert not grids.cycles(np.array([3.0, 2.0 ** 53, 1e300]), big).any()
    # a scalar against a scalar
    assert grids.cycles(0.25, 3) == 0.75


def test_cycles_fails_closed_on_non_finite_points():
    points = np.array([np.nan, np.inf, -np.inf, 0.5])
    got = grids.cycles(points[:, None], np.array([0, 1, -3]))
    assert np.isnan(got[:3]).all() and got[3].tolist() == [0.0, 0.5, 0.5]
    assert np.isnan(grids.waves(points, 2)[:3]).all()


def test_waves_keep_the_bits_of_the_exact_tables():
    """``waves(r, 1)`` is ``exp(2 pi i r)`` for r in [0, 1) (the relation
    weights); ``waves(j / G, l)`` is ``exp(2 pi i (l j mod G) / G)``
    from the integer product, and so is the context's ``e_l`` table."""
    rng = np.random.default_rng(3)
    r = np.concatenate([rng.random(4096), [0.0, 2.0 ** -53, 2.0 ** -20,
                                           1.0 - 2.0 ** -53]])
    assert grids.waves(r, 1).tobytes() == np.exp(2j * np.pi * r).tobytes()
    # the phase is 2 pi i cycles(x, n), in its bits from 2^-11 up
    x = rng.uniform(-4.0, 4.0, 256)
    n = rng.integers(-2 ** 63, 2 ** 63 - 1, (3, 256), endpoint=True)
    want = np.exp(2j * np.pi * grids.cycles(x, n))
    assert grids.waves(x, n).tobytes() == want.tobytes()
    tiny = x * 2.0 ** -40
    assert_allclose(grids.waves(tiny, n),
                    np.exp(2j * np.pi * grids.cycles(tiny, n)), atol=1e-15)
    for size in (64, 256, 1024, 4096):
        modes = np.arange(-size // 2, size // 2 + 1, max(1, size // 512))
        want = np.exp(2j * np.pi * (np.multiply.outer(modes, np.arange(size))
                                    % size / size))
        got = grids.waves(np.arange(size) / size, modes[:, None])
        assert got.tobytes() == want.tobytes()
        box = TruncationBox(1, 7, size)
        ctx = gns._context(dynamics.benchmark(), box)
        want = np.exp(2j * np.pi * (np.multiply.outer(box.modes(),
                                                      np.arange(size))
                                    % size / size))
        assert ctx.waves.tobytes() == want.tobytes()


# Every numpy or cmath exponential in the package is a phase.
_COMPLEX_EXP = re.compile(
    r"\b(?:np|numpy|cmath)\.exp\("
    r"|\bfrom\s+(?:numpy|cmath)\s+import\b.*\bexp\b")


def test_complex_exponential_scan_sees_every_spelling():
    """Each phase spelling the package once had outside grids, and the
    imports that would hide one."""
    for call in (
            "np.exp(2j * np.pi * _cycles(points, freqs))",
            "np.exp(2j * np.pi * (np.multiply.outer(modes, np.arange(size))",
            "np.exp(1j * np.multiply.outer(modes, ctx.psi))",
            "np.exp(2j * np.pi * np.asarray(l)[..., None] * lift)",
            "np.exp(-1j * (2.0 * np.pi * twist) * form)",
            "np.exp(1j * frequencies(values.shape[-1]) * angle)",
            "cls(np.exp(1j * phi1), np.exp(1j * phi2))",
            "coeffs @ np.exp(1j * np.multiply.outer(ms, base))",
            "* np.exp(2j * np.pi * alpha * form))",
            "left, np.exp(2j * np.pi * rng.random(len(left)))))",
            "cmath.exp(2j * cmath.pi * alpha)", "numpy.exp(1j * t)",
            "from cmath import exp", "from numpy import pi, exp"):
        assert _COMPLEX_EXP.search(call), call
    for call in ("waves(ctx.u, modes[:, None])", "grids.waves(lift, l)",
                 "cycles(2.0 * d.alpha, n - k)", "np.expm1(x)", "np.exp2(x)",
                 "math.exp(-1.0 / (t * (1.0 - t)))", "import cmath"):
        assert not _COMPLEX_EXP.search(call), call


def test_only_grids_takes_a_complex_exponential():
    """Phases have one home: ``grids.waves``, which reduces them exactly
    before rounding (``grids.cycles``).  No exception."""
    package = Path(grids.__file__).parent
    found = [(path.name, call) for path in sorted(package.glob("*.py"))
             if path.name != "grids.py"
             for call in _COMPLEX_EXP.findall(path.read_text())]
    assert found == []


# J's block flip, ``n_blocks - 1 - i``, however it is spaced.
_BLOCK_FLIP = re.compile(r"n_blocks\s*-\s*1\s*-")


def test_block_flip_scan_sees_every_spelling():
    for code in ("ctx.box.n_blocks - 1 - blocks", "box.n_blocks-1-kk",
                 "self.n_blocks - 1 -i"):
        assert _BLOCK_FLIP.search(code), code
    for code in ("box.n_blocks - 1", "range(box.n_blocks)",
                 "2 * box.n_blocks - 2"):
        assert not _BLOCK_FLIP.search(code), code


def test_only_modular_flips_a_block():
    """J maps block n to block -n in one place, ``modular._j_spectra``
    (the second half of ``_j_rows``); the reference basis and the Dirac
    oracle read the image blocks it returns."""
    package = Path(grids.__file__).parent
    found = [(path.name, call) for path in sorted(package.glob("*.py"))
             for call in _BLOCK_FLIP.findall(path.read_text())]
    assert found == [("modular.py", "n_blocks - 1 -")]
