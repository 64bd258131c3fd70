"""End-to-end command line runs against temp directories."""

import csv
import json

import pytest

from nctorus import cli, dirac, fourier, summation, weyl


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


@pytest.mark.parametrize("name", ["corner_adjoint", "reprojection_tail"])
def test_removed_tolerance_names_exit_one(tmp_path, name):
    # neither key was ever read; naming one is an unknown tolerance now
    config = dict(ROTATION, tolerances={name: 1e-9})
    code, _, report = run_cli(tmp_path, "star", config)
    assert code == 1
    assert report is None


def _nan(*args, **kwargs):
    return float("nan")


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
    ("fourier", fourier, "route_agreement", _nan, "paren_routes"),
    ("fejer", summation, "transference_integral_check", _nan,
     "transference_integral"),
    ("fejer", summation, "convergence_profile",
     _first_error_nan(summation.convergence_profile), "fejer_ratio_band"),
    ("dirac", dirac, "matrix_element_closed_form",
     lambda *args: complex("nan"), "dirac_master"),
    ("dirac", dirac, "telescoping_deviation", _nan, "telescoping"),
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


def test_unknown_command_exits_nonzero(capsys):
    # argparse signals usage errors through SystemExit
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code != 0
