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
from .errors import AliasingError
from .gns import TruncationBox
from .grids import l2, project_to_modes

# Blocks and modes left empty at each edge by the interior probe vectors
# of the homomorphism checks, so K and M must reach it.
_PROBE_MARGIN = 6


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
    """Passes when ``l2_error`` has drops, all positive; observed: least."""
    drops = -np.diff([row["l2_error"] for row in rows])
    return CheckResult(name, float(np.min(drops, initial=np.inf)), 0.0,
                       bool(drops.size > 0 and np.all(drops > 0.0)), note)


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


def _gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest ``|a_i - b_i|`` of two complex arrays, each the absolute
    value Python takes of a complex scalar (``np.abs`` rounds otherwise)."""
    diff = a - b
    return float(np.max(np.hypot(diff.real, diff.imag), initial=0.0))


def star_algebra_suite(alpha: float, tols: dict, rng: np.random.Generator,
                       count: int = 100) -> list[CheckResult]:
    # the triples f, g, h of each round, drawn in that order, as one stack
    probes = weyl._random_stack(rng, alpha, 2, 3 * count)
    f, g, h = (probes.take(slice(i, None, 3)) for i in range(3))
    star, adjoint = weyl._star_stack, weyl._involution_stack
    fg = star(f, g)
    assoc = np.max(weyl._distances(star(fg, h), star(f, star(g, h))),
                   initial=0.0)
    tracial = _gap(fg.coefficient(0, 0), star(g, f).coefficient(0, 0))
    invol = np.max(weyl._distances(adjoint(fg),
                                   star(adjoint(g), adjoint(f))), initial=0.0)
    probe = star(weyl._stack_of(weyl.WeylElement.generator(alpha, -1, -2)),
                 f)
    recover = _gap(probe.coefficient(0, 0), f.coefficient(1, 2))
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
    # every delta_n is the context's (beyond the box, on its chart); the
    # only solves are the independent ones at the iterates f^n(x)
    ctx = gns._context(d, box)
    ms = np.arange(-4, 5)
    worst_cocycle = 0.0
    for n in range(-4, 5):
        fn = d.lift.value(ctx.u + 2.0 * d.alpha * n) % 1.0
        rhs = (dynamics._density(d, d.lift.inverse(fn), ms[:, None])
               * ctx.density(n))
        worst_cocycle = np.maximum(worst_cocycle, float(np.max(np.abs(
            ctx.density(ms + n) - rhs))))
    worst_mean = np.max(np.abs(np.mean(ctx.delta, axis=-1) - 1.0))
    rho = dynamics.rotation_number(d, iterations=256)
    rho_dev = abs(rho - 2.0 * d.alpha)
    return [
        check("cocycle_identity", worst_cocycle, tols["cocycle"],
              "|m|, |n| <= 4 on the grid"),
        check("density_normalization", worst_mean,
              tols["growth_normalization"], f"|n| <= {box.block_bound}"),
        check("rotation_number", rho_dev, tols["rotation_number"],
              "256 orbit points"),
    ]


def gns_suite(d: DiffeoSpec, box: TruncationBox, tols: dict,
              rng: np.random.Generator, u_radius: int = 8,
              hom_count: int = 10) -> list[CheckResult]:
    waves = gns._context(d, box).waves
    gram = waves @ np.conj(waves.T) / box.grid_size
    gram_dev = float(np.max(np.abs(gram - np.eye(box.n_modes))))

    # u_kl xi = e_kl: the vacuum sits in block 0, so only row n = k of
    # each shift-k multiplier is read, all projected as one stack
    kr = min(u_radius, box.block_bound)
    lr = min(u_radius, box.mode_bound)
    ks, ls = np.arange(-kr, kr + 1), np.arange(-lr, lr + 1)
    rows = gns._u_kl_rows(d, box, ks[:, None], ls[None, :], ks[:, None])
    images = project_to_modes(rows, box.mode_bound)
    images[:, np.arange(len(ls)), ls + box.mode_bound] -= 1.0
    u_dev = float(np.max(l2(images, axis=-1)))

    def pi(f, rows):
        return gns._apply(f, d, box, rows)[0]

    def band(rows):
        return gns.GnsVector(box, project_to_modes(rows, box.mode_bound))

    # The sequential product is compared on grid rows: the interior
    # block margin covers both shifts, and keeping the intermediate at
    # grid bandwidth avoids charging the product with band truncation
    # that neither route owns.  Each pi streams its shifts: no operator.
    hom_dev = adj_dev = 0.0
    for _ in range(hom_count):
        pair = weyl._random_stack(rng, d.alpha, 2, 2)
        f, g = pair.take(slice(0, 1)), pair.take(slice(1, 2))
        x = gns.random_vector(rng, box, _PROBE_MARGIN, _PROBE_MARGIN)
        seq = pi(f, pi(g, x.on_grid()))
        comp = pi(weyl._star_stack(f, g), x.on_grid())
        hom_dev = np.maximum(hom_dev, float(l2(seq - comp))
                             / np.sqrt(box.grid_size))
        y = gns.random_vector(rng, box, _PROBE_MARGIN, _PROBE_MARGIN)
        adj_dev = np.maximum(adj_dev, abs(
            band(pi(f, x.on_grid())).inner(y)
            - x.inner(band(pi(weyl._involution_stack(f), y.on_grid())))))

    state_dev = _state_routes(d, rng, hom_count)
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


def _state_routes(d: DiffeoSpec, rng: np.random.Generator,
                  count: int) -> float:
    """Largest gap between the two state routes over ``count`` random
    radius-3 tables, drawn as one stack."""
    f = weyl._random_stack(rng, d.alpha, 3, count)
    return _gap(gns._series(f, d), gns._expectations(f, d))


def modular_suite(d: DiffeoSpec, box: TruncationBox, tols: dict,
                  rng: np.random.Generator, count: int = 20) -> list[CheckResult]:
    tomita_dev = np.max(modular._tomita_deviations(
        weyl._random_stack(rng, d.alpha, 2, count, decay=2.0), d, box),
        initial=0.0)

    # J is probed on algebra-orbit vectors pi(f) xi; raw coefficient
    # noise carries too much high-mode mass through the compositions
    # and would trip the aliasing gate instead of measuring anything.
    # A box too small for the probes trips it all the same: the J rows
    # then fail with an infinite deviation and the gate's message, and
    # no pair is drawn after the one that tripped it.
    fns = (("power", 0.5), ("power", -1.0),
           ("rational", (1.0, 2.0), (1.0, 3.0)))
    j_dev = anti_dev = borel_dev = 0.0
    note = ""
    try:
        j_dev, anti_dev, borel_dev = np.max([modular._probe_pair(
            weyl._random_stack(rng, d.alpha, 2, 2, decay=2.0), d, box, fns)
            for _ in range(max(3, count // 4))], axis=0)
    except AliasingError as err:
        j_dev = anti_dev = borel_dev = np.inf
        note = str(err)
    return [
        check("tomita_conjugation", tomita_dev, tols["tomita"],
              f"{count} random interior elements"),
        check("j_involution", j_dev, tols["borel"], note),
        check("j_antiunitary", anti_dev, tols["borel"], note),
        check("borel_identity", borel_dev, tols["borel"],
              note or "powers and a rational function"),
    ]


def parseval_suite(d: DiffeoSpec, box: TruncationBox, tols: dict,
                   rng: np.random.Generator, count: int = 50) -> list[CheckResult]:
    # the Parseval elements, then five Hausdorff-Young ones, one stack
    probes = weyl._random_stack(rng, d.alpha, 2, count + 5, decay=1.0)
    blocks, rows = gns._vacuum_rows(probes, d, box)
    # each hat table's norm summed over its whole layout, as
    # FourierCoeffs.l2 sums it, and squared as a Python float
    norms = [float(l2(gns._spread(box, blocks, row))) for row in rows]
    f = probes.take(slice(count))
    lhs = gns._series(weyl._star_stack(weyl._involution_stack(f), f), d)
    parseval_dev = np.max(np.abs(lhs.real - [n ** 2 for n in norms[:count]])
                          + np.abs(lhs.imag), initial=0.0)
    hy_dev = np.max(np.max(np.abs(rows[count:]), axis=(1, 2))
                    - norms[count:], initial=0.0)
    return [
        check("parseval", parseval_dev, tols["parseval"],
              f"{count} random elements"),
        check("hausdorff_young_endpoint", hy_dev,
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
    generators = [weyl.WeylElement.generator(d.alpha, m, n)
                  for (m, n) in ((0, 1), (1, 0), (1, 2))]
    f = weyl.random_element(rng, d.alpha, 2, decay=1.0)
    # one stack of generator rows for the suite, one rotation per point
    first, second = summation._wts_deviations(
        [(points[0], generators + [f]), (points[1], generators)], d, box,
        radius)
    # np.max, not max: a NaN deviation must fail the check
    gen_dev = np.max([0.0, *first[:3], *second])
    rand_dev = np.max([0.0, first[3]])
    return [
        check("wts_generators", gen_dev, tols["wts_generators"],
              f"sweep |k|, |l| <= {radius}"),
        check("wts_random", rand_dev, tols["wts_random"]),
    ]


def summation_suite(d: DiffeoSpec, box: TruncationBox, tols: dict,
                    rng: np.random.Generator) -> list[CheckResult]:
    results = []
    f = weyl.random_element(rng, d.alpha, 2)
    kernel = summation.SummationKernel
    kernels = ([kernel("fejer", order=n) for n in (4, 8, 16)]
               + [kernel("abel", radius=r) for r in (0.9, 0.99, 0.999)])
    for kind in ("hat", "paren"):
        rows = summation.convergence_profile(f, d, box, kind, kernels)
        results += ratio_band_checks(
            [f"fejer_ratio_{kind}_{label}"
             for label in ("8_over_4", "16_over_8")],
            rows[:3], tols["fejer_ratio_low"], tols["fejer_ratio_high"])
        results.append(decrease_check(f"abel_monotone_{kind}", rows[3:],
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
    expected[small.block_bound, np.abs(small.modes()) <= 3] = 1.0
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
                       radius: int = 8, growth=None) -> list[CheckResult]:
    return [check("dirac_master",
                  dirac.master_deviation(d, box, radius, growth=growth),
                  tols["dirac_master"],
                  f"eta in {{0, 1/4, 1/2, 3/4, 1}}, "
                  f"|k|, |l|, |s| <= {radius}")]


def dirac_bounds_suite(d: DiffeoSpec, box: TruncationBox, tols: dict,
                       n_radius: int = 8, growth=None) -> list[CheckResult]:
    if growth is None:
        growth = dynamics.growth_sequence(
            d, max(n_radius, box.block_bound) + 1)
    return dirac_bound_checks(d, box, tols, growth, n_radius, dirac.ETAS)[1]


def dirac_bound_checks(d: DiffeoSpec, box: TruncationBox, tols: dict,
                       growth, n_radius: int,
                       etas) -> tuple[list[dict], list[CheckResult]]:
    """Resolvent profile rows at ``etas`` and the telescoping, resolvent
    and commutator rows over ``|n| <= n_radius``, from one pass over the
    blocks (``dirac._bound_table``).  Reported: the least margin over
    n != 0 (at n = 0 it is the slack), passing when every margin is >= 0
    and the kernel is n = 0 only; the largest commutator excess over the
    nontrivial pairs (not the constant steps, the shift's (n, eta) =
    (0, 0) and (1, 1)), passing when every excess is <= 0."""
    slack = tols["dirac_bound_slack"]
    rows, excess = dirac._bound_table(d, box, growth, n_radius, etas, slack)
    a = dirac.a_sequence(growth, n_radius + 1)
    margins = np.array([row["margin"] for row in rows])
    margin = float(np.min(margins[[row["n"] != 0 for row in rows]]))
    kernel_ok = all(row["kernel_dim"] == (1 if row["n"] == 0 else 0)
                    for row in rows)
    nontrivial = np.ones(excess.shape, dtype=bool)
    nontrivial[[n_radius, n_radius + 1], [0, -1]] = False
    return rows, [
        check("telescoping", dirac.telescoping_deviation(a, growth),
              tols["telescoping"], "|a_{n-1} - a_n| Gamma_|n| = 1"),
        CheckResult("resolvent_margin", margin, 0.0,
                    bool(np.all(margins >= 0.0)) and kernel_ok,
                    "bound minus resolvent, min over blocks n != 0 and eta"),
        CheckResult("commutator_bound", float(np.max(excess[nontrivial])),
                    0.0, bool(np.max(excess) <= 0.0),
                    "norm minus growth bound, max over nontrivial pairs"),
    ]


def run_all(d: DiffeoSpec, box: TruncationBox, tols: dict, seed: int = 7,
            quick: bool = True) -> list[CheckResult]:
    """Full battery; ``quick`` shrinks counts and sweep radii."""
    if min(box.block_bound, box.mode_bound) < _PROBE_MARGIN:
        raise ValueError(f"verify needs K, M >= {_PROBE_MARGIN} (the probe "
                         f"margin), got {box.block_bound}, {box.mode_bound}")
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
    # one growth sequence for both Dirac suites (each Gamma_n on its own)
    growth = dynamics.growth_sequence(d, max(box.block_bound, radius + 1) + 1)
    results += dirac_master_suite(d, box, tols, radius, growth)
    results += dirac_bounds_suite(d, box, tols, radius, growth)
    return results
