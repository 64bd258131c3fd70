"""Named verification suites behind the CLI and the acceptance surface.

Every suite returns :class:`CheckResult` rows with the observed
deviation and the tolerance it was held against; the CLI commands build
their rows with the same constructors.  Every comparison with NaN is
False, so a non-finite deviation fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dirac, dynamics, fourier, gns, modular, summation, weyl
from .dynamics import DiffeoSpec
from .gns import TruncationBox


@dataclass
class CheckResult:
    name: str
    observed: float
    tolerance: float
    passed: bool
    note: str = ""


def check(name: str, observed: float, tolerance: float,
          note: str = "") -> CheckResult:
    """Passes when ``observed <= tolerance``."""
    return CheckResult(name, float(observed), float(tolerance),
                       bool(observed <= tolerance), note)


def ratio_band_checks(names, rows: list[dict], low: float,
                      high: float) -> list[CheckResult]:
    """Successive ``l2_error`` ratios of convergence profile rows, each
    held in ``[low, high]``; a zero error gives inf or NaN, which fails."""
    errs = np.array([row["l2_error"] for row in rows], dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = errs[1:] / errs[:-1]
    return [CheckResult(name, float(r), float(high), bool(low <= r <= high),
                        f"band [{low}, {high}]")
            for name, r in zip(names, ratios)]


def decrease_check(name: str, rows: list[dict],
                   note: str = "") -> CheckResult:
    """Passes when ``l2_error`` strictly decreases; observed: least drop."""
    drops = -np.diff([row["l2_error"] for row in rows])
    return CheckResult(name, float(np.min(drops, initial=np.inf)), 0.0,
                       bool(np.all(drops > 0.0)), note)


def weyl_relation_suite(alpha: float, tols: dict,
                        radius: int = 3) -> list[CheckResult]:
    span = range(-radius, radius + 1)
    pairs = [((m, n), (mm, nn)) for m in span for n in span
             for mm in span for nn in span]
    alphas = [0.0, 0.25]
    if alpha not in alphas:
        alphas.append(alpha)
    dev = float(np.max([weyl.weyl_relation_check(a, pairs)
                        for a in alphas]))
    return [check("weyl_relation", dev, tols["weyl_relation"],
                  f"{len(pairs)} generator pairs, {len(alphas)} twists")]


def star_algebra_suite(alpha: float, tols: dict, rng: np.random.Generator,
                       count: int = 100) -> list[CheckResult]:
    assoc = 0.0
    tracial = 0.0
    invol = 0.0
    recover = 0.0
    for _ in range(count):
        f = weyl.random_element(rng, alpha, 2)
        g = weyl.random_element(rng, alpha, 2)
        h = weyl.random_element(rng, alpha, 2)
        left = weyl.star_product(weyl.star_product(f, g), h)
        right = weyl.star_product(f, weyl.star_product(g, h))
        assoc = np.maximum(assoc, weyl.table_distance(left, right))
        tracial = np.maximum(tracial,
                             abs(weyl.trace(weyl.star_product(f, g))
                                 - weyl.trace(weyl.star_product(g, f))))
        invol = np.maximum(invol, weyl.table_distance(
            weyl.involution(weyl.star_product(f, g)),
            weyl.star_product(weyl.involution(g), weyl.involution(f))))
        probe = weyl.star_product(
            weyl.WeylElement.generator(alpha, -1, -2), f)
        recover = np.maximum(recover,
                             abs(probe[(0, 0)]
                                 - weyl.abstract_fourier_coeff(f, 1, 2)))
    return [
        check("star_associativity", assoc, tols["star_associativity"],
              f"{count} random triples"),
        check("star_traciality", tracial, tols["star_traciality"],
              f"{count} random pairs"),
        check("star_involution", invol, tols["star_associativity"],
              "anti-homomorphism"),
        check("coefficient_recovery", recover, tols["star_associativity"],
              "generator pairing route"),
    ]


def dynamics_suite(d: DiffeoSpec, box: TruncationBox,
                   tols: dict) -> list[CheckResult]:
    ctx = gns._context(d, box)
    # each density and iterate is an inverse solve: take each one once
    density = {k: dynamics.radon_nikodym(d, k, x=ctx.x) for k in range(-8, 9)}
    worst_cocycle = 0.0
    worst_mean = 0.0
    for n in range(-4, 5):
        dn = density[n]
        worst_mean = np.maximum(worst_mean, abs(float(np.mean(dn)) - 1.0))
        fn = dynamics.iterate_lift(d, n, ctx.x) % 1.0
        for m in range(-4, 5):
            rhs = dynamics.radon_nikodym(d, m, x=fn) * dn
            worst_cocycle = np.maximum(
                worst_cocycle, float(np.max(np.abs(density[m + n] - rhs))))
    rho = dynamics.rotation_number(d, iterations=256)
    rho_dev = abs(rho - 2.0 * d.alpha)
    return [
        check("cocycle_identity", worst_cocycle, tols["cocycle"],
              "|m|, |n| <= 4 on the grid"),
        check("density_normalization", worst_mean,
              tols["growth_normalization"]),
        check("rotation_number", rho_dev, tols["rotation_number"],
              "256 orbit points"),
    ]


def gns_suite(d: DiffeoSpec, box: TruncationBox, tols: dict,
              rng: np.random.Generator, u_radius: int = 8,
              hom_count: int = 10) -> list[CheckResult]:
    ctx = gns._context(d, box)
    modes = box.modes()
    waves = np.exp(1j * np.multiply.outer(modes, ctx.theta))
    gram = waves @ np.conj(waves.T) / box.grid_size
    gram_dev = float(np.max(np.abs(gram - np.eye(box.n_modes))))

    xi = gns.vacuum(box)
    u_dev = 0.0
    kr = min(u_radius, box.block_bound)
    lr = min(u_radius, box.mode_bound)
    for k in range(-kr, kr + 1):
        for l in range(-lr, lr + 1):
            image = gns.build_u_kl(d, box, k, l).apply(xi)
            u_dev = np.maximum(u_dev,
                               (image - gns.basis_vector(box, k, l)).norm())

    # The sequential product is compared on grid rows: the interior
    # block margin covers both shifts, and keeping the intermediate at
    # grid bandwidth avoids charging the product with band truncation
    # that neither route owns.
    hom_dev = 0.0
    adj_dev = 0.0
    for _ in range(hom_count):
        f = weyl.random_element(rng, d.alpha, 2)
        g = weyl.random_element(rng, d.alpha, 2)
        af = gns.represent(f, d, box)
        ag = gns.represent(g, d, box)
        afg = gns.represent(weyl.star_product(f, g), d, box)
        x = gns.random_vector(rng, box, block_margin=6, mode_margin=6)
        seq = af.apply_to_grid(ag.apply_to_grid(x.on_grid()))
        comp = afg.apply_to_grid(x.on_grid())
        hom_dev = np.maximum(hom_dev, float(np.sqrt(np.sum(
            np.mean(np.abs(seq - comp) ** 2, axis=1)))))
        y = gns.random_vector(rng, box, block_margin=6, mode_margin=6)
        star_rep = gns.represent(weyl.involution(f), d, box)
        adj_dev = np.maximum(adj_dev, abs(af.apply(x).inner(y)
                                          - x.inner(star_rep.apply(y))))

    state_dev = 0.0
    for _ in range(hom_count):
        f = weyl.random_element(rng, d.alpha, 3)
        state_dev = np.maximum(state_dev,
                               abs(gns.state_eval(f, d, route="series")
                                   - gns.state_eval(f, d, route="gns")))
    return [
        check("basis_gram", gram_dev, tols["gram"],
              "quadrature orthonormality"),
        check("u_kl_vacuum", u_dev, tols["u_kl_vacuum"],
              f"|k|, |l| <= {min(kr, lr)}"),
        check("homomorphism", hom_dev, tols["homomorphism"],
              "interior vectors"),
        check("adjoint_pairing", adj_dev, tols["homomorphism"]),
        check("state_routes", state_dev, tols["state_routes"],
              "series vs vacuum expectation"),
    ]


def modular_suite(d: DiffeoSpec, box: TruncationBox, tols: dict,
                  rng: np.random.Generator, count: int = 20) -> list[CheckResult]:
    tomita_tol = (tols["tomita_rotation"] if d.is_rotation
                  else tols["tomita"])
    tomita_dev = 0.0
    for _ in range(count):
        f = weyl.random_element(rng, d.alpha, 2, decay=2.0)
        tomita_dev = np.maximum(tomita_dev, modular.tomita_check(f, d, box))

    # J is probed on algebra-orbit vectors pi(f) xi; raw coefficient
    # noise carries too much high-mode mass through the compositions
    # and would trip the aliasing gate instead of measuring anything.
    xi = gns.vacuum(box)
    j_dev = 0.0
    anti_dev = 0.0
    borel_dev = 0.0
    for _ in range(max(3, count // 4)):
        f = weyl.random_element(rng, d.alpha, 2, decay=2.0)
        g = weyl.random_element(rng, d.alpha, 2, decay=2.0)
        x = gns.represent(f, d, box).apply(xi)
        y = gns.represent(g, d, box).apply(xi)
        j_dev = np.maximum(j_dev, (modular.conjugated_borel_apply(
            x, ("power", 0.0), d) - x).norm())
        anti_dev = np.maximum(
            anti_dev, abs(modular.apply_J(x, d).inner(modular.apply_J(y, d))
                          - y.inner(x)))
        for fn in (("power", 0.5), ("power", -1.0),
                   ("rational", (1.0, 2.0), (1.0, 3.0))):
            borel_dev = np.maximum(borel_dev,
                                   modular.borel_identity_check(fn, x, d))
    return [
        check("tomita_conjugation", tomita_dev, tomita_tol,
              f"{count} random interior elements"),
        check("j_involution", j_dev, tols["borel"]),
        check("j_antiunitary", anti_dev, tols["borel"]),
        check("borel_identity", borel_dev, tols["borel"],
              "powers and a rational function"),
    ]


def parseval_suite(d: DiffeoSpec, box: TruncationBox, tols: dict,
                   rng: np.random.Generator, count: int = 50) -> list[CheckResult]:
    parseval_dev = 0.0
    hy_dev = 0.0
    for _ in range(count):
        f = weyl.random_element(rng, d.alpha, 2, decay=1.0)
        table = fourier.hat_functional(f, d, box)
        lhs = gns.state_eval(
            weyl.star_product(weyl.involution(f), f), d, route="series")
        parseval_dev = np.maximum(parseval_dev,
                                  abs(lhs.real - table.l2() ** 2)
                                  + abs(lhs.imag))
    xi = gns.vacuum(box)
    for _ in range(5):
        f = weyl.random_element(rng, d.alpha, 2, decay=1.0)
        table = fourier.hat_functional(f, d, box)
        norm = gns.represent(f, d, box).apply(xi).norm()
        hy_dev = np.maximum(hy_dev, table.sup() - norm)
    return [
        check("parseval", parseval_dev, tols["parseval"],
              f"{count} random elements"),
        check("hausdorff_young_endpoint", np.maximum(hy_dev, 0.0),
              tols["hausdorff_young_endpoint"],
              "sup coefficient vs vector norm"),
    ]


def classical_suite(box: TruncationBox, tols: dict, rng: np.random.Generator,
                    count: int = 20) -> list[CheckResult]:
    worst = 0.0
    radius = min(8, box.block_bound, box.mode_bound)
    for _ in range(count):
        f = weyl.random_element(rng, 0.0, radius, decay=1.0)
        devs = fourier.classical_limit_compare(f, box)
        worst = float(np.max([worst, devs["hat"], devs["paren"]]))
    return [check("classical_limit", worst, tols["classical_limit"],
                  f"{count} random elements, both kinds")]


def wts_suite(d: DiffeoSpec, box: TruncationBox, tols: dict,
              rng: np.random.Generator, radius: int = 8) -> list[CheckResult]:
    points = [summation.TransferencePoint.from_angles(1.1, 2.3),
              summation.TransferencePoint.from_angles(4.0, 0.7)]
    gen_dev = 0.0
    for w in points:
        for (m, n) in ((0, 1), (1, 0), (1, 2)):
            f = weyl.WeylElement.generator(d.alpha, m, n)
            gen_dev = np.maximum(gen_dev,
                                 summation.wts_deviation(f, w, d, box, radius))
    rand_dev = 0.0
    for w in points[:1]:
        f = weyl.random_element(rng, d.alpha, 2, decay=1.0)
        rand_dev = np.maximum(rand_dev,
                              summation.wts_deviation(f, w, d, box, radius))
    return [
        check("wts_generators", gen_dev, tols["wts_generators"],
              f"sweep |k|, |l| <= {radius}"),
        check("wts_random", rand_dev, tols["wts_random"]),
    ]


def summation_suite(d: DiffeoSpec, box: TruncationBox, tols: dict,
                    rng: np.random.Generator) -> list[CheckResult]:
    results = []
    f = weyl.random_element(rng, d.alpha, 2)
    for kind in ("hat", "paren"):
        rows = summation.convergence_profile(
            f, d, box, kind,
            [summation.SummationKernel("fejer", order=n) for n in (4, 8, 16)])
        results += ratio_band_checks(
            [f"fejer_ratio_{kind}_{label}"
             for label in ("8_over_4", "16_over_8")],
            rows, tols["fejer_ratio_low"], tols["fejer_ratio_high"])
        abel_rows = summation.convergence_profile(
            f, d, box, kind,
            [summation.SummationKernel("abel", radius=r)
             for r in (0.9, 0.99, 0.999)])
        results.append(decrease_check(f"abel_monotone_{kind}", abel_rows,
                                      "errors strictly decreasing in r"))
    results.append(transference_check(d, box, tols, rng))
    return results


def transference_check(d: DiffeoSpec, box: TruncationBox, tols: dict,
                       rng: np.random.Generator) -> CheckResult:
    x = gns.random_vector(rng, box, block_margin=box.block_bound - 2,
                          mode_margin=box.mode_bound - 2)
    return check("transference_integral",
                 summation.transference_integral_check(x, 3, 16, d),
                 tols["transference_integral"], "N = 3 on the 16 point grid")


def dirichlet_suite(d: DiffeoSpec, box: TruncationBox,
                    tols: dict) -> list[CheckResult]:
    band_dev = summation.dirichlet_growth_deviation(10, 100)

    small = TruncationBox(min(4, box.block_bound), min(6, box.mode_bound))
    table = fourier.dirichlet_coefficient_table(3, d, small)
    expected = np.zeros_like(table.table)
    for j, l in enumerate(small.modes()):
        if abs(l) <= 3:
            expected[small.block_bound, j] = 1.0
    table_dev = float(np.max(np.abs(table.table - expected)))

    wide = TruncationBox(small.block_bound, small.mode_bound, grid_size=256)
    sup_dev = float(np.max([
        abs(fourier.dirichlet_coefficient_table(n, d, wide).sup() - 1.0)
        for n in (10, 100)]))
    return [
        check("dirichlet_growth", band_dev, tols["dirichlet_band"],
              "L1 norm increment vs logarithmic slope"),
        check("dirichlet_table", table_dev, tols["dirichlet_table"],
              "0/1 indicator via quadrature"),
        check("dirichlet_sup_pinned", sup_dev, tols["dirichlet_table"],
              "coefficient sup stays 1 at orders 10 and 100"),
    ]


def dirac_master_suite(d: DiffeoSpec, box: TruncationBox, tols: dict,
                       radius: int = 8) -> list[CheckResult]:
    return [check("dirac_master", dirac.master_deviation(d, box, radius),
                  tols["dirac_master_rotation" if d.is_rotation
                       else "dirac_master"],
                  f"eta in {{0, 1/2, 1}}, |k|, |l|, |s| <= {radius}")]


def dirac_bounds_suite(d: DiffeoSpec, box: TruncationBox, tols: dict,
                       n_radius: int = 8) -> list[CheckResult]:
    growth = dynamics.growth_sequence(d, max(n_radius, box.block_bound) + 1)
    rows = dirac.resolvent_profile(
        d, box, range(-n_radius, n_radius + 1), (0.0, 0.25, 0.5, 0.75, 1.0),
        growth=growth, slack=tols["dirac_bound_slack"])
    return dirac_bound_checks(d, box, tols, growth, rows, n_radius,
                              ("shift", "shift_inverse"))


def dirac_bound_checks(d: DiffeoSpec, box: TruncationBox, tols: dict,
                       growth, rows: list[dict], n_radius: int,
                       generators) -> list[CheckResult]:
    """Telescoping, resolvent and commutator rows over ``|n| <= n_radius``
    from resolvent profile ``rows``; the corner kernel must be n = 0 only."""
    a = dirac.a_sequence(growth, n_radius + 1)
    margin = float(np.min([row["margin"] for row in rows]))
    kernel_ok = all(row["kernel_dim"] == (1 if row["n"] == 0 else 0)
                    for row in rows)
    excess = dirac.commutator_excess(
        d, box, growth, range(-n_radius, n_radius + 1),
        generators=generators, slack=tols["dirac_bound_slack"])
    return [
        check("telescoping", dirac.telescoping_deviation(a, growth),
              tols["telescoping"], "|a_{n-1} - a_n| Gamma_|n| = 1"),
        CheckResult("resolvent_margin", margin, 0.0,
                    margin >= 0.0 and kernel_ok,
                    "bound minus resolvent, min over blocks and eta"),
        check("commutator_bound", excess, 0.0,
              "norm never above the growth bound"),
    ]


def run_all(d: DiffeoSpec, box: TruncationBox, tols: dict, seed: int = 7,
            quick: bool = True) -> list[CheckResult]:
    """Full battery; ``quick`` shrinks counts and sweep radii."""
    rng = np.random.default_rng(seed)
    count = 20 if quick else 100
    radius = 4 if quick else 8
    results: list[CheckResult] = []
    results += weyl_relation_suite(d.alpha, tols)
    results += star_algebra_suite(d.alpha, tols, rng, count=count)
    results += dynamics_suite(d, box, tols)
    results += gns_suite(d, box, tols, rng, u_radius=radius,
                         hom_count=max(5, count // 4))
    results += modular_suite(d, box, tols, rng, count=max(5, count // 2))
    results += parseval_suite(d, box, tols, rng, count=max(10, count // 2))
    results += classical_suite(box, tols, rng, count=max(5, count // 4))
    results += wts_suite(d, box, tols, rng, radius=radius)
    results += summation_suite(d, box, tols, rng)
    results += dirichlet_suite(d, box, tols)
    results += dirac_master_suite(d, box, tols, radius=radius)
    results += dirac_bounds_suite(d, box, tols, n_radius=radius)
    return results
