"""Direct reference routes that only the tests use.

Each is the plain, slow way to get a quantity the package computes
another way (mode sums for closed forms, quadrature for moments, dense
diagonals, a dense Gram eigensolve for the operator norm, the csv
module cell by cell for the CLI tables, the whole operator for a vacuum
read, every block through the chart transport, the orbit by full
inverse solves, the star product and random tables by the reducer for
arbitrary keys, the stacked verify suites one element at a time, the
GNS probes through whole operators), kept out of ``src`` so that the
package holds only what it calls or exports.
"""

import csv
import math
from fractions import Fraction

import numpy as np

from nctorus import (dirac, dynamics, fourier, gns, grids, modular, verify,
                     weyl)
from nctorus.errors import AliasingError, GridMismatchError


def _modes(coeffs) -> np.ndarray:
    """Mode of each coefficient of ``coeffs[l + M]``."""
    m = (len(coeffs) - 1) // 2
    return np.arange(-m, m + 1)


def evaluate(coeffs, angles) -> np.ndarray:
    """Evaluate the trigonometric polynomial with ``coeffs[l + M]`` at
    arbitrary angles."""
    angles = np.asarray(angles, dtype=float)
    return np.exp(1j * np.multiply.outer(angles, _modes(coeffs))) @ coeffs


def derivative(coeffs) -> np.ndarray:
    """Coefficients of the angular derivative d/dtheta."""
    return coeffs * (1j * _modes(coeffs))


def projection_tail(g, mode_bound: int) -> float:
    """L2 mass of the sampled spectrum outside ``|l| <= mode_bound``.

    Rows of a stack count together.  Only the in-grid tail is visible;
    energy aliased from beyond the grid bandwidth folds into the
    retained modes and is not counted.
    """
    return grids.tail_mass(grids.spectrum(g), mode_bound)


def quadrature_mean(g) -> complex:
    """Quadrature of ``g`` against normalized Lebesgue measure."""
    return complex(np.mean(np.asarray(g, dtype=complex), axis=-1))


def quadrature_inner(f, g) -> complex:
    """L2 inner product ``(1/G) sum f conj(g)``, linear in the first slot."""
    fv = np.asarray(f, dtype=complex)
    gv = np.asarray(g, dtype=complex)
    if fv.shape[-1] != gv.shape[-1]:
        raise GridMismatchError(
            f"grid sizes {fv.shape[-1]} and {gv.shape[-1]} differ")
    return complex(np.mean(fv * np.conj(gv), axis=-1))


def conjugator_mode_table(d, l: int, mode_bound: int) -> np.ndarray:
    """Fourier coefficients of ``h^l`` for modes ``-mode_bound..mode_bound``."""
    g = grids.default_grid_size(mode_bound)
    x = np.arange(g) / g
    values = np.exp(2j * np.pi * l * d.lift.value(x))
    return grids.project_to_modes(values, mode_bound)


def riemann_lebesgue_by_rings(c) -> np.ndarray:
    """Sup of |table| on each square ring ``max(|k|, |l|) = L``, one mask
    per ring."""
    box = c.box
    ring_of = np.maximum(np.abs(box.blocks())[:, None],
                         np.abs(box.modes())[None, :])
    mags = np.abs(c.table)
    out = np.zeros(max(box.block_bound, box.mode_bound) + 1)
    for ring in range(len(out)):
        mask = ring_of == ring
        if mask.any():
            out[ring] = float(mags[mask].max())
    return out


def undeformed_corner(box, a_n: float) -> np.ndarray:
    """Diagonal corner with entries ``i l - a_n``."""
    return np.diag(1j * box.modes() - a_n)


def deformed_block(n: int, eta: float, d, box, a_n: float) -> np.ndarray:
    """Two-corner block D_n: the package's upper corner above, below it
    the lower corner ``P delta^{-eta} (-d/dtheta - a_n) delta^{eta-1} P``
    built here from the adjoint factors and a separately solved density.

    At finite truncation the mode projections sandwich both products, so
    the block is self-adjoint exactly when the two routes agree.
    """
    delta = dynamics.radon_nikodym(d, n, size=box.grid_size)[:, None]
    modes = box.modes()
    waves = np.exp(1j * np.multiply.outer(grids.grid_angles(box.grid_size),
                                          modes))
    stage = grids.spectral_derivative(delta ** (eta - 1.0) * waves, a_n, -1.0,
                                      axis=0)
    stage *= delta ** (-eta)
    m = box.n_modes
    out = np.zeros((2 * m, 2 * m), dtype=complex)
    out[:m, m:] = dirac.deformed_corner(n, eta, d, box, a_n)
    out[m:, :m] = grids.at_modes(grids.spectrum(stage, axis=0), modes, axis=0)
    return out


def gram_norm(op) -> float:
    """``sqrt(lambda_max(A^H A))`` by a dense Hermitian eigensolve.

    The Gram matrix is summed block row by block row without forming A:
    row i, its blocks ``B_i`` side by side, adds ``B_i^H B_i`` to the
    blocks (j, j') of its columns.  Memory is one dim x dim Gram plus the
    copy the eigensolve makes.
    """
    box = op.box
    nb, nm = box.n_blocks, box.n_modes
    gram = np.zeros((nb, nm, nb, nm), dtype=complex)
    for _, cols, blocks in op._block_rows():
        if not cols:
            continue
        row = np.hstack(blocks)
        p, j = len(cols), np.array(cols)
        pairs = (row.conj().T @ row).reshape(p, nm, p, nm)
        gram[j[:, None], :, j[None, :], :] += pairs.transpose(0, 2, 1, 3)
    top = np.linalg.eigvalsh(gram.reshape(box.dim, box.dim))[-1]
    return float(np.sqrt(max(top, 0.0)))


def kernel_mode_sum(kernel, angles) -> np.ndarray:
    """``sum_j c_j cos(j t)`` over the kernel's coefficients, |j| <= order."""
    js = np.arange(-kernel.order, kernel.order + 1)
    angles = np.asarray(angles, dtype=float)
    return np.cos(np.multiply.outer(angles, js)) @ kernel.coefficients(js)


def state_moments_by_quadrature(d, mode_bound: int,
                                size: int = 8192) -> np.ndarray:
    """``mu(m) = mean exp(2 pi i m H^{-1}(x_j))`` on ``size`` points."""
    u = d.lift.inverse(np.arange(size) / size)
    ms = np.arange(-mode_bound, mode_bound + 1)
    return np.exp(2j * np.pi * np.multiply.outer(ms, u)).mean(axis=1)


def csv_cell(value) -> str:
    """One CSV cell: bools (numpy's too) as 1/0, floats to 17 significant
    digits, anything else by ``str``."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path, header, rows) -> None:
    """The CLI table format through ``csv.writer``, one cell at a time."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([csv_cell(v) for v in row])


def vacuum_paren(op) -> np.ndarray:
    """Paren table read off the block-0 row of each shift multiplier of
    a whole operator: entry (k, l) is the mode -l of shift -k, row 0."""
    box = op.box
    table = np.zeros((box.n_blocks, box.n_modes), dtype=complex)
    for i, k in enumerate(box.blocks()):
        if -int(k) in op.terms:
            table[i] = grids.at_modes(
                grids.spectrum(op.terms[-int(k)][box.block_bound]),
                -box.modes())
    return table


def j_on_grid_all_rows(ctx, rows) -> np.ndarray:
    """One J step with every block through the transport, zero or not."""
    to_chart, phase, from_chart, _ = modular._transport(ctx)
    spectra = rows[::-1] @ to_chart
    return ctx.sqrt_delta * np.conj((spectra * phase) @ from_chart)


def epsilon_pairings_all_rows(ctx, rows) -> np.ndarray:
    """The epsilon pairings with every block through the transport."""
    _, phase, from_chart, wave_spectra = modular._transport(ctx)
    spectra = (ctx.sqrt_delta * rows)[::-1] @ from_chart.T
    # contiguous like the package's gathered phases: numpy rounds a
    # complex product over a strided operand differently
    phase = np.ascontiguousarray(phase[::-1])
    return (spectra * phase) @ wave_spectra.T / ctx.box.grid_size


def conjugated_rows_all_modes(ctx, i: int) -> np.ndarray:
    """Grid rows of ``J e_kl`` for block row i, every mode in one product."""
    _, phase, from_chart, wave_spectra = modular._transport(ctx)
    flip = ctx.box.n_blocks - 1 - i
    return ctx.sqrt_delta[flip] * np.conj(
        (wave_spectra * phase[flip]) @ from_chart)


def rotation_number_by_iterates(d, iterations: int = 256) -> float:
    """The bump-weighted orbit average, each step a full inverse solve
    (bisection plus Newton) through ``iterate_lift``."""
    x = total = weight_sum = 0.0
    for j in range(iterations):
        t = (j + 0.5) / iterations
        w = math.exp(-1.0 / (t * (1.0 - t)))
        x_next = float(dynamics.iterate_lift(d, 1, x))
        total += w * (x_next - x)
        weight_sum += w
        x = x_next
    return total / weight_sum


def table_distance(f, g) -> float:
    """Sup of the coefficient difference of two tables (NaN when a
    coefficient is), through the table subtraction."""
    return float(np.max(np.abs((f - g).values), initial=0.0))


def exact_turns(alpha, sigma) -> float:
    """``alpha sigma`` modulo 1 for a Python integer sigma: exact in
    ``Fraction``, rounded once."""
    return float(Fraction(alpha) * sigma % 1)


def relation_phases(alpha, left, right) -> np.ndarray:
    """``exp(2 pi i alpha sigma(a, b))`` over two key arrays, sigma in
    Python integers and reduced by :func:`exact_turns`."""
    turns = [[exact_turns(alpha, m * nn - mm * n) for mm, nn in right.tolist()]
             for m, n in left.tolist()]
    return np.exp(2j * np.pi * np.array(turns, dtype=float).reshape(
        len(left), len(right)))


def star_product_by_pairs(f, g):
    """The twisted convolution without a plan: the pair phases over the
    two supports (:func:`relation_phases`), the pair sums ``a + b`` and
    the reducer for arbitrary keys, fed in the order of the double loop
    over ``f`` then ``g``."""
    a, b = f.keys, g.keys
    phase = relation_phases(f.alpha, a, b)
    values = np.multiply.outer(f.values, g.values) * phase
    keys = a[:, None, :] + b[None, :, :]
    return weyl._element(f.alpha, weyl._reduce(keys.reshape(-1, 2),
                                               values.ravel()))


def random_element_by_coefficients(rng, alpha, radius, decay=0.0,
                                   scale=1.0):
    """The dense random table one Python complex per coefficient, two
    scalar normal draws each, through the table constructor."""
    span = range(-radius, radius + 1)
    return weyl.WeylElement(alpha, [
        ((m, n), scale * complex(rng.standard_normal(), rng.standard_normal())
         / (1.0 + abs(m) + abs(n)) ** decay)
        for m in span for n in span])


def star_algebra_suite_by_element(alpha, tols, rng, count=100):
    """``verify.star_algebra_suite`` one triple at a time through the
    per-table functions."""
    assoc = tracial = invol = recover = 0.0
    for _ in range(count):
        f = weyl.random_element(rng, alpha, 2)
        g = weyl.random_element(rng, alpha, 2)
        h = weyl.random_element(rng, alpha, 2)
        left = weyl.star_product(weyl.star_product(f, g), h)
        right = weyl.star_product(f, weyl.star_product(g, h))
        assoc = np.maximum(assoc, table_distance(left, right))
        tracial = np.maximum(tracial,
                             abs(weyl.trace(weyl.star_product(f, g))
                                 - weyl.trace(weyl.star_product(g, f))))
        invol = np.maximum(invol, table_distance(
            weyl.involution(weyl.star_product(f, g)),
            weyl.star_product(weyl.involution(g), weyl.involution(f))))
        probe = weyl.star_product(
            weyl.WeylElement.generator(alpha, -1, -2), f)
        recover = np.maximum(recover,
                             abs(probe[(0, 0)]
                                 - weyl.abstract_fourier_coeff(f, 1, 2)))
    return [
        verify.check("star_associativity", assoc, tols["star_associativity"],
                     f"{count} random triples"),
        verify.check("star_traciality", tracial, tols["star_traciality"],
                     f"{count} random pairs"),
        verify.check("star_involution", invol, tols["star_associativity"],
                     "anti-homomorphism"),
        verify.check("coefficient_recovery", recover,
                     tols["star_associativity"], "generator pairing route"),
    ]


def state_routes_by_element(d, rng, count):
    """``verify._state_routes`` one table at a time through both routes
    of ``gns.state_eval``."""
    state_dev = 0.0
    for _ in range(count):
        f = weyl.random_element(rng, d.alpha, 3)
        state_dev = np.maximum(state_dev,
                               abs(gns.state_eval(f, d, route="series")
                                   - gns.state_eval(f, d, route="gns")))
    return state_dev


def apply_J_by_grid(x, d):
    """``modular.apply_J`` on the whole (2K + 1, G) grid array of x, each
    step finding its own live rows, and the band of every block."""
    rows = modular._j_on_grid(gns._context(d, x.box), x.on_grid())
    return modular._reproject(x, rows, "J")


def conjugated_borel_by_grid(x, fn, d):
    """``modular.conjugated_borel_apply`` as two J steps on whole grid
    arrays."""
    ctx = gns._context(d, x.box)
    rows = modular._j_on_grid(ctx, x.on_grid())
    rows = rows * modular._fn_values(fn, ctx.delta)
    rows = modular._j_on_grid(ctx, rows)
    return modular._reproject(x, rows, "conjugated Borel calculus")


def borel_identity_by_grid(fn, x, d):
    """``modular.borel_identity_check`` on whole grid arrays."""
    left = conjugated_borel_by_grid(x, fn, d)
    rows = x.on_grid() * modular._fn_values(
        fn, gns._context(d, x.box).delta, inverse=True, conjugate=True)
    return (left - modular._reproject(x, rows, "Borel calculus")).norm()


def modular_suite_by_element(d, box, tols, rng, count=20):
    """``verify.modular_suite`` one element and one probe pair at a time
    through ``tomita_check``, ``vacuum_image`` and the whole-grid J and
    Borel routes above."""
    tomita_dev = 0.0
    for _ in range(count):
        f = weyl.random_element(rng, d.alpha, 2, decay=2.0)
        tomita_dev = np.maximum(tomita_dev, modular.tomita_check(f, d, box))
    j_dev = anti_dev = borel_dev = 0.0
    note = ""
    try:
        for _ in range(max(3, count // 4)):
            f = weyl.random_element(rng, d.alpha, 2, decay=2.0)
            g = weyl.random_element(rng, d.alpha, 2, decay=2.0)
            x = gns.vacuum_image(f, d, box)
            y = gns.vacuum_image(g, d, box)
            j_dev = np.maximum(j_dev, (conjugated_borel_by_grid(
                x, ("power", 0.0), d) - x).norm())
            anti_dev = np.maximum(anti_dev, abs(
                apply_J_by_grid(x, d).inner(apply_J_by_grid(y, d))
                - y.inner(x)))
            for fn in (("power", 0.5), ("power", -1.0),
                       ("rational", (1.0, 2.0), (1.0, 3.0))):
                borel_dev = np.maximum(
                    borel_dev, borel_identity_by_grid(fn, x, d))
    except AliasingError as err:
        j_dev = anti_dev = borel_dev = np.inf
        note = str(err)
    return [
        verify.check("tomita_conjugation", tomita_dev, tols["tomita"],
                     f"{count} random interior elements"),
        verify.check("j_involution", j_dev, tols["borel"], note),
        verify.check("j_antiunitary", anti_dev, tols["borel"], note),
        verify.check("borel_identity", borel_dev, tols["borel"],
                     note or "powers and a rational function"),
    ]


def gns_suite_by_element(d, box, tols, rng, u_radius=8, hom_count=10):
    """``verify.gns_suite`` with each homomorphism pair's four operators
    built whole by ``gns.represent`` and applied by ``apply_to_grid``."""
    waves = gns._context(d, box).waves
    gram = waves @ np.conj(waves.T) / box.grid_size
    gram_dev = float(np.max(np.abs(gram - np.eye(box.n_modes))))
    kr = min(u_radius, box.block_bound)
    lr = min(u_radius, box.mode_bound)
    ks, ls = np.arange(-kr, kr + 1), np.arange(-lr, lr + 1)
    rows = gns._u_kl_rows(d, box, ks[:, None], ls[None, :], ks[:, None])
    images = grids.project_to_modes(rows, box.mode_bound)
    images[:, np.arange(len(ls)), ls + box.mode_bound] -= 1.0
    u_dev = float(np.max(grids.l2(images, axis=-1)))
    margin = verify._PROBE_MARGIN
    hom_dev = 0.0
    adj_dev = 0.0
    for _ in range(hom_count):
        f = weyl.random_element(rng, d.alpha, 2)
        g = weyl.random_element(rng, d.alpha, 2)
        af = gns.represent(f, d, box)
        ag = gns.represent(g, d, box)
        afg = gns.represent(weyl.star_product(f, g), d, box)
        x = gns.random_vector(rng, box, margin, margin)
        seq = af.apply_to_grid(ag.apply_to_grid(x.on_grid()))
        comp = afg.apply_to_grid(x.on_grid())
        hom_dev = np.maximum(hom_dev, float(grids.l2(seq - comp))
                             / np.sqrt(box.grid_size))
        y = gns.random_vector(rng, box, margin, margin)
        star_rep = gns.represent(weyl.involution(f), d, box)
        adj_dev = np.maximum(adj_dev, abs(af.apply(x).inner(y)
                                          - x.inner(star_rep.apply(y))))
    state_dev = verify._state_routes(d, rng, hom_count)
    return [
        verify.check("basis_gram", gram_dev, tols["gram"],
                     "quadrature orthonormality"),
        verify.check("u_kl_vacuum", u_dev, tols["u_kl_vacuum"],
                     f"|k|, |l| <= {min(kr, lr)}"),
        verify.check("homomorphism", hom_dev, tols["homomorphism"],
                     "interior vectors"),
        verify.check("adjoint_pairing", adj_dev, tols["homomorphism"]),
        verify.check("state_routes", state_dev, tols["state_routes"],
                     "series vs vacuum expectation"),
    ]


def parseval_suite_by_element(d, box, tols, rng, count=50):
    """``verify.parseval_suite`` one element at a time through
    ``hat_functional``, ``state_eval`` and ``vacuum_image``."""
    parseval_dev = hy_dev = 0.0
    for _ in range(count):
        f = weyl.random_element(rng, d.alpha, 2, decay=1.0)
        table = fourier.hat_functional(f, d, box)
        lhs = gns.state_eval(
            weyl.star_product(weyl.involution(f), f), d, route="series")
        parseval_dev = np.maximum(parseval_dev,
                                  abs(lhs.real - table.l2() ** 2)
                                  + abs(lhs.imag))
    for _ in range(5):
        f = weyl.random_element(rng, d.alpha, 2, decay=1.0)
        x = gns.vacuum_image(f, d, box)
        table = fourier.hat_vector(x)
        norm = x.norm()
        hy_dev = np.maximum(hy_dev, table.sup() - norm)
    return [
        verify.check("parseval", parseval_dev, tols["parseval"],
                     f"{count} random elements"),
        verify.check("hausdorff_young_endpoint", np.maximum(hy_dev, 0.0),
                     tols["hausdorff_young_endpoint"],
                     "sup coefficient vs vector norm"),
    ]
