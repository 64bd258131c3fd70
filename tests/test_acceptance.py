"""Acceptance gate: thirteen pinned checks at production truncation.

Every check runs on the benchmark dynamics (golden-ratio angle, one
sine harmonic of amplitude 0.3) with blocks |k| <= 16, modes |l| <= 16
and a 256-point grid, plus rotation-case variants where the identity
is exact.  Tolerances are pinned literally here, independent of the
package defaults, so loosening a default cannot silently weaken the
gate.  Each test prints one PASS/FAIL line (visible with -s or on
failure).
"""

import json

import numpy as np
import pytest

from nctorus import cli, dirac, dynamics, fourier, gns, summation, verify, weyl
from nctorus.gns import TruncationBox
from nctorus.tolerances import resolve

ALPHA = 0.30901699437494745


def report(num, name, observed, tolerance):
    passed = observed <= tolerance
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {num:2d} {name}: "
          f"observed {observed:.3e} vs {tolerance:.1e}")
    assert passed, f"criterion {num} {name}: {observed:.3e} > {tolerance:.1e}"


def rows_by_name(results):
    return {r.name: r for r in results}


@pytest.fixture(scope="module")
def tols():
    return resolve()


def test_criterion_01_weyl_relations():
    span = range(-3, 4)
    pairs = [((m, n), (r, s)) for m in span for n in span
             for r in span for s in span]
    dev = max(weyl.weyl_relation_check(alpha, pairs)
              for alpha in (0.0, 0.25, ALPHA))
    report(1, "weyl relations", dev, 1e-14)


def test_criterion_02_star_algebra(tols):
    rng = np.random.default_rng(7)
    rows = rows_by_name(verify.star_algebra_suite(ALPHA, tols, rng,
                                                  count=100))
    report(2, "star associativity", rows["star_associativity"].observed,
           1e-12)
    report(2, "trace traciality", rows["star_traciality"].observed, 1e-12)


def test_criterion_03_basis_and_characters(bench, box, tols):
    rng = np.random.default_rng(7)
    rows = rows_by_name(verify.gns_suite(bench, box, tols, rng, u_radius=8))
    report(3, "basis gram identity", rows["basis_gram"].observed, 1e-14)
    report(3, "characters hit basis", rows["u_kl_vacuum"].observed, 1e-8)


def test_criterion_04_cocycle(bench, box, tols):
    rows = rows_by_name(verify.dynamics_suite(bench, box, tols))
    report(4, "cocycle identity", rows["cocycle_identity"].observed, 1e-9)
    report(4, "density normalization",
           rows["density_normalization"].observed, 1e-9)


def test_criterion_05_tomita_benchmark(bench, box, tols):
    rng = np.random.default_rng(7)
    rows = rows_by_name(verify.modular_suite(bench, box, tols, rng, count=20))
    report(5, "tomita conjugation", rows["tomita_conjugation"].observed, 1e-7)
    report(5, "borel identity", rows["borel_identity"].observed, 1e-9)


def test_criterion_05_tomita_rotation(rot, box, tols):
    rng = np.random.default_rng(7)
    rows = rows_by_name(verify.modular_suite(rot, box, tols, rng, count=20))
    report(5, "tomita at the rotation",
           rows["tomita_conjugation"].observed, 1e-9)


def test_criterion_06_parseval(bench, box, tols):
    rng = np.random.default_rng(7)
    rows = rows_by_name(verify.parseval_suite(bench, box, tols, rng,
                                              count=50))
    report(6, "parseval", rows["parseval"].observed, 1e-12)
    report(6, "hausdorff-young endpoint",
           rows["hausdorff_young_endpoint"].observed, 1e-12)


def test_criterion_07_classical_limit(box, tols):
    rng = np.random.default_rng(7)
    rows = rows_by_name(verify.classical_suite(box, tols, rng, count=20))
    report(7, "classical limit", rows["classical_limit"].observed, 1e-10)


def test_criterion_08_transference_twist(bench, box, tols):
    rng = np.random.default_rng(7)
    rows = rows_by_name(verify.wts_suite(bench, box, tols, rng, radius=8))
    report(8, "twist on generators", rows["wts_generators"].observed, 1e-12)
    report(8, "twist on random elements", rows["wts_random"].observed, 1e-10)


def test_criterion_09_summation(bench, box):
    rng = np.random.default_rng(7)
    f = weyl.random_element(rng, bench.alpha, 2, decay=1.0)
    fejer = [summation.SummationKernel("fejer", order=n) for n in (4, 8, 16)]
    errs = [row["l2_error"]
            for row in summation.convergence_profile(f, bench, box, "hat",
                                                     fejer)]
    ratio_dev = 0.0
    for a, b in zip(errs, errs[1:]):
        assert b < a, "fejer errors must strictly decrease"
        ratio = b / a
        ratio_dev = max(ratio_dev, max(0.3 - ratio, ratio - 0.7))
    report(9, "fejer halving band", ratio_dev, 0.0)
    abel = [summation.SummationKernel("abel", radius=r)
            for r in (0.9, 0.99, 0.999)]
    aerrs = [row["l2_error"]
             for row in summation.convergence_profile(f, bench, box, "hat",
                                                      abel)]
    assert aerrs[0] > aerrs[1] > aerrs[2], "abel errors must strictly decrease"
    report(9, "abel monotone", 0.0, 0.0)
    x = gns.represent(f, bench, box).apply(gns.vacuum(box))
    report(9, "transference integral route",
           summation.transference_integral_check(x, 3, 64, bench), 1e-9)


def test_criterion_10_dirichlet(bench):
    l1 = {n: summation.SummationKernel("dirichlet", order=n).l1_norm()
          for n in (10, 100)}
    target = 4.0 / np.pi ** 2 * np.log(10.0)
    report(10, "dirichlet log growth",
           abs((l1[100] - l1[10]) - target), 0.2)
    wide = TruncationBox(6, 8, grid_size=256)
    sup_dev = np.max([
        abs(fourier.dirichlet_coefficient_table(n, bench, wide).sup() - 1.0)
        for n in (10, 100)])
    report(10, "truncation sup pinned at 1", sup_dev, 1e-8)


def test_criterion_11_matrix_elements(bench, rot, box):
    report(11, "closed form vs oracle (benchmark)",
           dirac.master_deviation(bench, box, 8), 1e-7)
    report(11, "closed form vs oracle (rotation)",
           dirac.master_deviation(rot, box, 8), 1e-12)


def test_criterion_12_bounds(bench, box):
    growth = dynamics.growth_sequence(bench, 17)
    etas = (0.0, 0.25, 0.5, 0.75, 1.0)
    rows = dirac.resolvent_profile(bench, box, range(-8, 9), etas,
                                   growth=growth, slack=1e-6)
    res_excess = np.max([row["resolvent"] - row["bound"] for row in rows])
    report(12, "resolvent bound", np.maximum(res_excess, 0.0), 0.0)
    comm_excess = 0.0
    for n in range(-8, 9):
        for eta in etas:
            _, norm, bound = dirac.commutator_block(n, eta, bench, box,
                                                    growth)
            comm_excess = np.maximum(comm_excess, norm - bound * (1.0 + 1e-6))
    report(12, "commutator bound", np.maximum(comm_excess, 0.0), 0.0)
    a = dirac.a_sequence(growth, 9)
    report(12, "normalized telescoping",
           dirac.telescoping_deviation(a, growth), 1e-12)


def test_criterion_12_fails_on_a_nan_commutator_norm(bench, box, monkeypatch):
    # the folds keep NaN: the builtin max(0.0, nan) would read 0.0 and pass
    real = dirac.commutator_block

    def nan_norm(*args, **kwargs):
        matrix, _, bound = real(*args, **kwargs)
        return matrix, float("nan"), bound

    monkeypatch.setattr(dirac, "commutator_block", nan_norm)
    with pytest.raises(AssertionError, match="commutator bound"):
        test_criterion_12_bounds(bench, box)


def test_criterion_13_determinism(tmp_path):
    config = {"truncation": {"K": 16, "M": 16, "G": 256}, "seed": 11}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    payloads = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        code = cli.main(["verify", "--config", str(cfg), "--out", str(out)])
        assert code == 0, "verify must pass on the benchmark"
        payloads.append(((out / "verify.csv").read_bytes(),
                         (out / "verify_report.json").read_bytes()))
    identical = payloads[0] == payloads[1]
    print(f"[{'PASS' if identical else 'FAIL'}] criterion 13 determinism: "
          f"bit-identical reports = {identical}")
    assert identical
