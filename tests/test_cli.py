"""End-to-end command line runs against temp directories."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nctorus import cli, dirac, fourier, gns, summation, weyl

import oracle


def run_cli(tmp_path, name, config, *extra):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = cli.main([name, "--config", str(cfg), "--out", str(out), *extra])
    report_path = out / f"{name}_report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return code, out, report


ROTATION = {
    "alpha": 0.30901699437494745,
    "truncation": {"K": 8, "M": 8, "G": 128},
    "seed": 7,
}

BENCH = {
    "diffeo": {"alpha": 0.30901699437494745,
               "conjugator": {"sin": [0.04774648292756861], "cos": []}},
    "truncation": {"K": 8, "M": 8, "G": 128},
    "seed": 7,
}


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_star_command_writes_product(tmp_path):
    code, out, report = run_cli(tmp_path, "star", ROTATION)
    assert code == 0
    payload = json.loads((out / "star_product.json").read_text())
    assert payload["alpha"] == ROTATION["alpha"]
    assert report["config_echo"]["truncation"]["K"] == 8
    assert "tolerances" in report


def test_represent_command_reports_norms(tmp_path):
    code, out, report = run_cli(tmp_path, "represent", BENCH)
    assert code == 0
    rows = read_csv(out / "represent_terms.csv")
    assert {"shift", "n", "mode", "re", "im"} <= set(rows[0])
    assert report["vacuum_image_norm"] > 0.0
    assert report["operator_norm"] >= report["vacuum_image_norm"]


def test_fourier_command_emits_tables(tmp_path):
    code, out, report = run_cli(tmp_path, "fourier", BENCH)
    assert code == 0
    for name in ("fourier_hat.csv", "fourier_paren.csv",
                 "riemann_lebesgue.csv"):
        assert (out / name).exists(), name


def test_fejer_errors_strictly_decrease(tmp_path):
    code, out, report = run_cli(tmp_path, "fejer", BENCH)
    assert code == 0
    rows = read_csv(out / "fejer_convergence.csv")
    errs = [float(r["l2_error"]) for r in rows]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_abel_errors_strictly_decrease(tmp_path):
    code, out, report = run_cli(tmp_path, "abel", BENCH)
    assert code == 0
    rows = read_csv(out / "abel_convergence.csv")
    errs = [float(r["l2_error"]) for r in rows]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_dirac_rotation_closed_forms_hold(tmp_path):
    config = dict(ROTATION)
    config["dirac"] = {"etas": [0.5], "master_radius": 4}
    code, out, report = run_cli(tmp_path, "dirac", config)
    assert code == 0
    rows = read_csv(out / "dirac_elements.csv")
    assert rows, "element table must not be empty"
    assert max(float(r["deviation"]) for r in rows) <= 1e-12


def test_dirac_quarter_eta_has_a_closed_form(tmp_path):
    config = dict(BENCH, dirac={"etas": [0.25], "master_radius": 3})
    code, out, report = run_cli(tmp_path, "dirac", config)
    assert code == 0
    rows = read_csv(out / "dirac_elements.csv")
    assert len(rows) == 7 ** 3
    assert {r["eta"] for r in rows} == {"0.25"}
    assert max(float(r["deviation"]) for r in rows) <= 1e-12


def test_dirac_fails_on_an_inflated_inverse_shift_pair(tmp_path,
                                                      monkeypatch):
    """The command reads the inverse shift too, as its shift twin: the
    inverse-shift pair (n, eta) = (-3, 1/4) is the table's shift pair
    (-2, 3/4).  Its norm at twice its bound fails ``commutator_bound``."""
    real = dirac.commutator_block

    def inflated(n, eta, d, box, growth, generator="shift"):
        matrix, norm, bound = real(n, eta, d, box, growth,
                                   generator=generator)
        if (n, generator) == (-2, "shift"):
            norm = np.where(np.equal(eta, 0.75), 2.0 * bound, norm)
        return matrix, norm, bound

    monkeypatch.setattr(dirac, "commutator_block", inflated)
    code, _, report = run_cli(tmp_path, "dirac", BENCH)
    assert code == 2
    assert report["failures"] == ["commutator_bound"]
    assert report["commutator_excess"] > 0.0


def test_growth_command(tmp_path):
    code, out, report = run_cli(tmp_path, "growth", BENCH)
    assert code == 0
    rows = read_csv(out / "growth.csv")
    gammas = {int(r["n"]): float(r["gamma"]) for r in rows}
    assert gammas[0] == 1.0
    assert abs(gammas[1] - 1.7827124086389334) < 1e-9


def test_verify_rotation_passes(tmp_path):
    code, out, report = run_cli(tmp_path, "verify", ROTATION)
    assert code == 0
    rows = read_csv(out / "verify.csv")
    assert rows and all(int(r["passed"]) == 1 for r in rows)


@pytest.mark.parametrize("dynamics, code", [({}, 2), ({"alpha": 0.3}, 0)],
                         ids=["bench", "rot"])
def test_small_box_verify_writes_its_report(tmp_path, capsys, dynamics,
                                            code):
    """At K = 6, M = 8 the J probes on the benchmark dynamics carry more
    than the band holds: the aliasing gate's message becomes the note of
    failing J rows with an infinite deviation, and the report is still
    written.  The rotation passes there."""
    config = dict(dynamics, truncation={"K": 6, "M": 8}, seed=7)
    got, out, report = run_cli(tmp_path, "verify", config)
    assert got == code
    rows = {r["name"]: r for r in read_csv(out / "verify.csv")}
    j_rows = ("j_involution", "j_antiunitary", "borel_identity")
    if code == 0:
        assert all(int(r["passed"]) == 1 for r in rows.values())
        return
    for name in j_rows:
        assert rows[name]["observed"] == "inf"
        assert int(rows[name]["passed"]) == 0
        assert name in report["failures"]
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("[FAIL] j_involution")]
    assert len(printed) == 1 and "J dropped" in printed[0]


def test_verify_is_deterministic(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(ROTATION))
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli.main(["verify", "--config", str(cfg),
                         "--out", str(out)]) == 0
        outputs.append(((out / "verify.csv").read_bytes(),
                        (out / "verify_report.json").read_bytes()))
    assert outputs[0] == outputs[1]


def _artifacts_per_thread_count(tmp_path, command, config, names):
    """Run ``command`` in a subprocess under one and two OpenBLAS threads;
    the bytes of each named artifact, per run."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    src = Path(cli.__file__).resolve().parents[1]
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, PYTHONPATH=str(src),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        run = subprocess.run(
            [sys.executable, "-m", "nctorus.cli", command,
             "--config", str(cfg), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        written.append({name: (out / name).read_bytes() for name in names})
    return written


def test_verify_csv_does_not_depend_on_the_blas_thread_count(tmp_path):
    """Quick verify at K = M = 16, seed 101, writes the same bytes under
    one and two OpenBLAS threads; a sampled classical-limit oracle (a
    threaded matrix product) used to move ``classical_limit``."""
    config = {"truncation": {"K": 16, "M": 16}, "seed": 101, "quick": True}
    written = _artifacts_per_thread_count(tmp_path, "verify", config,
                                          ["verify.csv"])
    assert written[0] == written[1]


# Rows read from a LAPACK SVD, which rounds by the thread count: the
# Dirac table's corner sigma_min and commutator norms
# (dirac._singular_values).  ROADMAP item 3 replaces both with certified
# Cholesky bounds.
_SVD_ROWS = ("resolvent_margin", "commutator_bound")


def test_verify_csv_past_the_blas_dot_threshold_moves_only_svd_rows(
        tmp_path):
    """Quick verify at K = M = 56, seed 101, the smallest box whose
    interior probe vectors exceed the 10,000 entries past which BLAS dot
    threads: every norm and inner product is numpy's pairwise sum
    (``grids.l2``, ``grids.inner``), so only the two SVD rows may move
    between one and two OpenBLAS threads, and only by roundoff."""
    config = {"truncation": {"K": 56, "M": 56}, "seed": 101, "quick": True}
    written = _artifacts_per_thread_count(tmp_path, "verify", config,
                                          ["verify.csv"])
    one, two = ([row.split(",") for row in w["verify.csv"].decode().splitlines()]
                for w in written)
    assert set(_SVD_ROWS) <= {row[0] for row in one}
    for a, b in zip(one, two, strict=True):
        if a[0] in _SVD_ROWS:
            assert a[:2] + a[3:] == b[:2] + b[3:]
            assert abs(float(a[2]) - float(b[2])) <= 1e-14
        else:
            assert a == b


def test_represent_does_not_depend_on_the_blas_thread_count(tmp_path):
    """``represent`` at K = M = 24 and 32, seed 101: the banded Gram norm
    writes the same ``operator_norm`` under one and two OpenBLAS threads,
    where the dense Gram eigensolve it replaced moved in the last bits.
    Its kernels make many block-sized products; one whose sum BLAS split
    across threads would move the norm."""
    for k in (24, 32):
        config = {"truncation": {"K": k, "M": k}, "seed": 101}
        (tmp_path / f"box-{k}").mkdir()
        written = _artifacts_per_thread_count(
            tmp_path / f"box-{k}", "represent", config,
            ["represent_report.json", "vacuum_image.csv",
             "represent_terms.csv"])
        assert written[0] == written[1], k


# every cell type the commands write, the float edge cases among them,
# and text cells the csv module quotes (or, for "\r", may quote)
CSV_ROWS = [
    ["hat", True, False, 3, np.int64(-4), 0.1, np.float64(-2.5)],
    ["paren", False, True, -7, np.int64(0), 0.0, -0.0],
    ["x", True, 0, 1, 2, float("nan"), np.float64("nan")],
    ["y", False, 0, 1, 2, float("inf"), -float("inf")],
    ["z", True, 0, 1, 2, 5e-324, 1.7976931348623157e308],
    ["z", True, 0, 1, 2, np.float64(-5e-324), np.float64(1 / 3)],
    [np.True_, np.False_, np.bool_(1), np.float32(0.1), "", "a b", 1e16],
]
CSV_QUOTED = [["a,b"], ['say "hi"'], ["two\nlines"], ["cr\rhere"], [""],
              ["", ""], ["", 1, 2.5]]


@pytest.mark.parametrize("chunk", [2, cli._CSV_CHUNK])
@pytest.mark.parametrize("rows", [CSV_ROWS, CSV_ROWS + CSV_QUOTED],
                         ids=["plain", "quoted"])
def test_csv_writer_matches_the_csv_module(tmp_path, monkeypatch, rows,
                                           chunk):
    """Chunks of two rows mix quoted and plain chunks in one file."""
    monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
    header = ["kind", "a", "b", "c", "d", "e", "f"]
    cli._write_csv(tmp_path / "fast.csv", header, rows)
    oracle.write_csv(tmp_path / "reference.csv", header, rows)
    assert ((tmp_path / "fast.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())


def test_csv_writes_numpy_bools_as_one_and_zero(tmp_path):
    """``str(np.True_)`` is ``True``; every bool cell is 1 or 0."""
    cli._write_csv(tmp_path / "b.csv", ["p", "q", "r", "s"],
                   [[np.True_, np.False_, True, False],
                    [np.all([1.0]), np.any([0.0]), 1 > 0, 1 < 0]])
    assert (tmp_path / "b.csv").read_text() == "p,q,r,s\n1,0,1,0\n1,0,1,0\n"


def test_artifacts_match_the_reference_writer(tmp_path, monkeypatch):
    """Every file of every artifact command, written once by the CLI and
    once with its CSV writer swapped for the csv module cell by cell."""
    commands = ["star", "represent", "fourier", "fejer", "abel", "dirac",
                "growth"]
    written = []
    for tag in ("fast", "reference"):
        if tag == "reference":
            monkeypatch.setattr(cli, "_write_csv", oracle.write_csv)
        (tmp_path / tag).mkdir()
        files = {}
        for command in commands:
            code, out, _ = run_cli(tmp_path / tag, command, BENCH)
            assert code == 0
            files.update((p.name, p.read_bytes()) for p in out.iterdir())
        written.append(files)
    assert sum(name.endswith(".csv") for name in written[0]) == 10
    assert written[0] == written[1]


def test_tolerance_failure_exits_two(tmp_path):
    code, out, report = run_cli(tmp_path, "fourier", BENCH,
                                "--tol-scale", "1e-20")
    assert code == 2
    assert report["failures"]


def test_bad_config_exits_one(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert cli.main(["star", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
    missing = tmp_path / "nope.json"
    assert cli.main(["star", "--config", str(missing),
                     "--out", str(tmp_path / "o2")]) == 1
    for coeff in ({"m": "x", "n": 0, "re": 1.0}, {"m": 1, "re": 1.0}):
        bad_key = dict(ROTATION, element={"alpha": ROTATION["alpha"],
                                          "coeffs": [coeff]})
        assert run_cli(tmp_path, "star", bad_key)[0] == 1
    nan_lift = {"diffeo": {"alpha": 0.3,
                           "conjugator": {"sin": [float("nan")]}}}
    for command in ("growth", "star"):
        assert run_cli(tmp_path, command, nan_lift)[0] == 1


def test_alpha_zero_requires_classical_flag(tmp_path):
    bad = {"alpha": 0.0, "truncation": {"K": 4, "M": 4, "G": 64}}
    code, _, _ = run_cli(tmp_path, "star", bad)
    assert code == 1
    good = dict(bad)
    good["classical_mode"] = True
    code, _, _ = run_cli(tmp_path, "star", good)
    assert code == 0


@pytest.mark.parametrize("tolerances, scale", [
    (None, "nan"),
    (None, "inf"),
    (None, "-1"),
    (None, "0"),
    ({"weyl_relation": float("inf")}, "1"),
    ({"weyl_relation": float("nan")}, "1"),
    ({"weyl_relation": -1e-14}, "1"),
    ({"weyl_relation": 0.0}, "1"),
], ids=["scale-nan", "scale-inf", "scale-negative", "scale-zero",
        "override-inf", "override-nan", "override-negative", "override-zero"])
def test_non_finite_or_non_positive_tolerance_exits_one(tmp_path, tolerances,
                                                        scale):
    # json writes these as Infinity/NaN, which the config loader accepts
    config = dict(ROTATION)
    if tolerances is not None:
        config["tolerances"] = tolerances
    code, _, report = run_cli(tmp_path, "star", config, "--tol-scale", scale)
    assert code == 1
    assert report is None


@pytest.mark.parametrize("command, section", [
    ("abel", {"abel": {"radii": [0.9]}}),
    ("fejer", {"fejer": {"orders": [4]}}),
    ("dirac", {"dirac": {"etas": []}}),
    ("dirac", {"dirac": {"master_radius": -1}}),
    ("dirac", {"dirac": {"block_radius": 0}}),
    ("dirac", {"truncation": {"K": 4, "M": 0}}),
], ids=["abel-one-radius", "fejer-one-order", "dirac-no-eta",
        "dirac-negative-master-radius", "dirac-no-nontrivial-block",
        "dirac-no-deflated-mode"])
def test_config_with_nothing_to_compare_exits_one(tmp_path, command, section):
    # one radius or order has no drop or ratio to hold, the master check
    # has no element without an eta or at a negative radius,
    # the resolvent margin has no block n != 0 below block radius 1, and
    # at M = 0 the n = 0 corner is its kernel, with no deflated singular
    # value: a gate over nothing must not pass
    code, out, report = run_cli(tmp_path, command, dict(BENCH, **section))
    assert code == 1
    assert report is None
    assert not any(out.iterdir())


@pytest.mark.parametrize("config", [
    {"box": {"K": 4, "M": 4, "G": 64}},
    {"truncation": {"block_bound": 4}},
], ids=["box-alias", "block-bound-alias"])
def test_unknown_config_key_exits_one(tmp_path, config):
    # a key the CLI does not read fails loudly instead of running the
    # default box; nothing is written
    code, out, report = run_cli(tmp_path, "star", config)
    assert code == 1
    assert report is None
    assert not out.exists() or not any(out.iterdir())


def _element(coeffs):
    """An element config at the benchmark's alpha."""
    return {"alpha": 0.30901699437494745, "coeffs": coeffs}


@pytest.mark.parametrize("command, config", [
    ("star", {"truncation": 5}),
    ("star", {"tolerances": 5}),
    ("fourier", {"fourier": 5}),
    ("dirac", {"dirac": [1]}),
    ("star", {"diffeo": 5}),
    ("star", {"element": 5}),
    ("verify", {"quick": "false"}),
    ("star", {"alpha": 0.0, "classical_mode": "true"}),
    ("fourier", {"fourier": {"kinds": ["hat", "foo"]}}),
    ("verify", {"truncation": {"K": 5, "M": 8}}),
    ("verify", {"truncation": {"K": 8, "M": 5}}),
    ("fejer", {"fejer": {"orders": 5}}),
    ("star", {"tolerances": {"gram": [1]}}),
    ("growth", {"growth": {"n_max": [1]}}),
    ("star", {"diffeo": {"alpha": 0.3, "conjugator": 5}}),
    ("star", {"diffeo": {"alpha": 0.3, "classical": "false"}}),
    ("star", {"truncation": {"K": "8"}}),
    ("star", {"seed": [7]}),
    ("star", {"element": {"alpha": 0.3, "coeffs": 5}}),
    ("star", {"diffeo": {"alpha": 0.3, "conjugatr": {"sin": [0.01]}}}),
    ("star", {"diffeo": {"alpha": 0.3, "conjugator": {"sine": [0.01]}}}),
    ("dirac", {"dirac": {"blok_radius": 2}}),
    ("fejer", {"fejer": {"order": [4, 8]}}),
    ("abel", {"abel": {"radius": [0.5, 0.9]}}),
    ("fourier", {"fourier": {"kind": ["hat"]}}),
    ("growth", {"growth": {"nmax": 3}}),
    ("star", {"element": _element([{"m": 1, "n": 0, "re": 1.0,
                                    "imag": 0.5}])}),
    ("star", {"element": dict(_element([]), alfa=0.3)}),
    ("star", {"second_element": _element([{"m": 1, "n": 0, "re": 1.0,
                                           "img": 0.5}])}),
    ("growth", {"dirac": {"blok_radius": 2}}),
    ("verify", {"element": _element([{"m": 1, "n": 0, "re": 1.0,
                                      "imag": 0.5}])}),
    ("star", {"element": _element([{"m": 1e20, "n": 0, "re": 1.0}])}),
], ids=["truncation-number", "tolerances-number", "fourier-number",
        "dirac-list", "diffeo-number", "element-number", "quick-string",
        "classical-string", "fourier-unknown-kind", "verify-K-below-margin",
        "verify-M-below-margin", "fejer-orders-number", "tolerance-list",
        "growth-n-max-list", "conjugator-number", "diffeo-classical-string",
        "truncation-K-string", "seed-list", "element-coeffs-number",
        "diffeo-conjugatr", "conjugator-sine", "dirac-blok-radius",
        "fejer-order", "abel-radius", "fourier-kind", "growth-nmax",
        "element-imag", "element-alfa", "second-element-img",
        "dirac-typo-under-growth", "element-typo-under-verify",
        "element-m-1e20"])
def test_malformed_config_exits_one_before_any_artifact(tmp_path, capsys,
                                                        command, config):
    # each used to stop with a traceback, to run the wrong battery
    # ("false" is a true string), to run the default in place of a
    # misspelt key, or to exit only after writing a table; each now ends
    # in one nctorus: line
    code, out, _ = run_cli(tmp_path, command, config)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("nctorus:") and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())
    if command == "verify" and "truncation" in config:
        assert "K, M >= 6" in err


@pytest.mark.parametrize("dynamics, code", [({}, 2), ({"alpha": 0.3}, 0)],
                         ids=["bench", "rot"])
def test_verify_at_the_probe_margin_writes_its_report(tmp_path, dynamics,
                                                      code):
    config = dict(dynamics, truncation={"K": 6, "M": 6}, seed=7)
    got, out, report = run_cli(tmp_path, "verify", config)
    assert got == code
    assert (out / "verify.csv").exists() and report is not None


@pytest.mark.parametrize("name", ["corner_adjoint", "reprojection_tail",
                                  "tomita_rotation", "dirac_master_rotation"])
def test_removed_tolerance_names_exit_one(tmp_path, name):
    # each key was deleted from the table (the first two were never read,
    # the rotation keys gave way to one tolerance per identity); naming
    # one is an unknown tolerance now
    config = dict(ROTATION, tolerances={name: 1e-9})
    code, _, report = run_cli(tmp_path, "star", config)
    assert code == 1
    assert report is None


def _nan(*args, **kwargs):
    return float("nan")


def _nan_norm(real):
    def block(*args, **kwargs):
        matrix, norm, bound = real(*args, **kwargs)
        return matrix, norm * np.nan, bound
    return block


def _first_error_nan(real):
    def profile(*args, **kwargs):
        rows = real(*args, **kwargs)
        rows[0]["l2_error"] = float("nan")
        return rows
    return profile


# command, owner, attribute, NaN replacement, check that must fail
NAN_SOURCES = [
    ("star", weyl, "weyl_relation_check", _nan, "weyl_relation"),
    ("represent", fourier.FourierCoeffs, "sup", _nan,
     "hausdorff_young_endpoint"),
    ("represent", gns.GnsOperator, "norm_estimate", _nan,
     "operator_norm_bound"),
    ("fourier", fourier, "route_agreement", _nan, "paren_routes"),
    ("fejer", summation, "transference_integral_check", _nan,
     "transference_integral"),
    ("fejer", summation, "convergence_profile",
     _first_error_nan(summation.convergence_profile), "fejer_ratio_band"),
    ("dirac", dirac, "matrix_element_closed_form",
     lambda *args: np.full((2 * args[-1] + 1,) * 2, complex("nan")),
     "dirac_master"),
    ("dirac", dirac, "telescoping_deviation", _nan, "telescoping"),
    ("dirac", dirac, "commutator_block", _nan_norm(dirac.commutator_block),
     "commutator_bound"),
    ("growth", summation.SummationKernel, "l1_norm", _nan,
     "dirichlet_growth"),
]


@pytest.mark.parametrize(
    "command, owner, attr, replacement, check", NAN_SOURCES,
    ids=[f"{c[0]}-{c[4]}" for c in NAN_SOURCES])
def test_nan_deviation_exits_two(tmp_path, monkeypatch, command, owner, attr,
                                 replacement, check):
    monkeypatch.setattr(owner, attr, replacement)
    code, _, report = run_cli(tmp_path, command, BENCH)
    assert code == 2
    assert check in report["failures"]


def _nan_sample(real):
    def represent(*args):
        op = real(*args)
        op.terms[min(op.terms)][0, 0] = np.nan
        return op
    return represent


def _raise_not_definite(*args, **kwargs):
    raise np.linalg.LinAlgError("not positive definite")


@pytest.mark.parametrize("owner, attr, replacement", [
    (gns, "represent", _nan_sample(gns.represent)),
    (np.linalg, "cholesky", _raise_not_definite),
], ids=["nan-multiplier-sample", "no-cholesky"])
def test_represent_without_a_certified_norm_exits_two(
        tmp_path, monkeypatch, owner, attr, replacement):
    """The norm fails closed: NaN, never an exception or a stale value."""
    monkeypatch.setattr(owner, attr, replacement)
    code, _, report = run_cli(tmp_path, "represent", BENCH)
    assert code == 2
    assert "operator_norm_bound" in report["failures"]
    assert np.isnan(report["operator_norm"])


def test_unknown_command_exits_nonzero(capsys):
    # argparse signals usage errors through SystemExit
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code != 0
