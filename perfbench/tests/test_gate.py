"""The correctness gate and the headroom metric on synthetic outputs."""

import json
import math
import signal

import pytest

import gate
import run
from gate import HEADROOM_CAP, check_child, headroom, headroom_min


def test_headroom_in_decades():
    assert headroom(1e-9, 1e-7) == pytest.approx(2.0)
    assert headroom(2e-7, 1e-7) == pytest.approx(-math.log10(2.0))


def test_headroom_of_zero_or_negative_observed_is_the_cap():
    assert headroom(0.0, 1e-12) == HEADROOM_CAP
    assert headroom(-3.0, 1e-12) == HEADROOM_CAP
    assert headroom(1e-40, 1e-12) == HEADROOM_CAP


@pytest.mark.parametrize("observed,tolerance", [
    (math.nan, 1e-9), (math.inf, 1e-9), (-math.inf, 1e-9),
    (1e-12, math.nan), (1e-12, math.inf), (1e-12, 0.0), (0.0, -1.0)])
def test_non_finite_or_bad_tolerance_never_passes(observed, tolerance):
    assert headroom(observed, tolerance) == -math.inf


def test_headroom_min_skips_band_checks():
    rows = [("parseval", 1e-14, 1e-12),
            ("fejer_ratio_hat_8_over_4", 0.69, 0.7),
            ("abel_monotone_paren", 1e-30, 0.0),
            ("resolvent_margin", 1e-6, 0.0),
            ("commutator_bound", 0.0, 0.0)]
    assert headroom_min(rows) == (pytest.approx(2.0), "parseval")


def test_headroom_min_reports_nan_as_worst():
    rows = [("parseval", 1e-14, 1e-12), ("tomita_conjugation", math.nan, 1e-7)]
    assert headroom_min(rows) == (-math.inf, "tomita_conjugation")


def test_headroom_min_without_gated_rows_is_the_cap():
    assert headroom_min([("resolvent_margin", 1.0, 0.0)]) == (HEADROOM_CAP, "")


def _verify_out(tmp_path, rows, failures=(), outputs=("verify.csv",)):
    out = tmp_path / "out"
    out.mkdir()
    lines = ["name,tolerance,observed,passed"] + [",".join(r) for r in rows]
    (out / "verify.csv").write_text("\n".join(lines) + "\n")
    (out / "verify_report.json").write_text(json.dumps(
        {"failures": list(failures), "outputs": list(outputs)}))
    return out


OK = {"status": "ok", "commands": [{"command": "verify", "rc": 0}]}


def test_clean_verify_child_passes(tmp_path):
    out = _verify_out(tmp_path, [("parseval", "1e-12", "3e-15", "1"),
                                 ("resolvent_margin", "0", "1e-6", "1")])
    rep = check_child(0, OK, out, ["verify"])
    assert rep.failed == 0
    assert rep.attempted == 9
    assert set(rep.digests) == {"verify.csv", "verify_report.json"}


def test_fail_row_nan_row_and_report_failures_count(tmp_path):
    out = _verify_out(tmp_path, [("parseval", "1e-12", "3e-11", "0"),
                                 ("gram", "1e-14", "nan", "1"),
                                 ("cocycle", "inf", "1e-15", "1")],
                      failures=["parseval"])
    rep = check_child(0, OK, out, ["verify"])
    assert sorted(rep.failures()) == ["verify.cocycle", "verify.failures",
                                      "verify.gram", "verify.parseval"]


def test_missing_artifact_and_missing_report(tmp_path):
    out = _verify_out(tmp_path, [("parseval", "1e-12", "3e-15", "1")],
                      outputs=("verify.csv", "gone.csv"))
    rep = check_child(0, OK, out, ["verify"])
    assert rep.failures() == ["verify.artifact.gone.csv"]
    (out / "verify_report.json").unlink()
    assert "verify.report" in check_child(0, OK, out, ["verify"]).failures()


def test_non_zero_exit_counts_as_a_failed_operation(tmp_path):
    rep = check_child(1, None, tmp_path, ["verify"])
    assert (rep.attempted, rep.failed) == (1, 1)
    rep = check_child(3, {"status": "memory_cap"}, tmp_path, ["verify"])
    assert rep.failed == 1 and "memory_cap" in rep.failures()[0]


def test_killed_child_counts_as_a_failed_operation(tmp_path):
    rep = check_child(-signal.SIGKILL, None, tmp_path, ["verify"])
    assert rep.failed == 1
    assert "killed by SIGKILL" in rep.failures()[0]


def test_cli_exit_two_fails_even_with_clean_report(tmp_path):
    out = _verify_out(tmp_path, [("parseval", "1e-12", "3e-15", "1")])
    bad = {"status": "ok", "commands": [{"command": "verify", "rc": 2}]}
    assert check_child(0, bad, out, ["verify"]).failures() == ["verify.exit"]


def test_child_that_skipped_a_command_fails(tmp_path):
    out = _verify_out(tmp_path, [("parseval", "1e-12", "3e-15", "1")])
    rep = check_child(0, OK, out, ["star", "verify"])
    assert rep.failures() == ["commands.ran"]


def test_report_fields_feed_headroom(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "growth.csv").write_text("n\n")
    (out / "growth_report.json").write_text(json.dumps(
        {"failures": [], "outputs": ["growth.csv"],
         "band_deviation": 0.02, "band": 0.2}))
    ok = {"status": "ok", "commands": [{"command": "growth", "rc": 0}]}
    rep = check_child(0, ok, out, ["growth"])
    assert rep.failed == 0
    assert headroom_min(rep.rows) == (pytest.approx(1.0), "dirichlet_growth")


def test_tail_percentile_keeps_ten_samples_above():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == ("max of 3", 3.0)
    label, value = run.tail_percentile([float(i) for i in range(20)])
    assert label == "p50 of 20"
    assert sum(1 for i in range(20) if i > value) >= 10


def test_band_names_cover_the_verify_band_checks():
    for name in ("fejer_ratio_paren_16_over_8", "abel_monotone_hat",
                 "resolvent_margin", "commutator_bound"):
        assert gate.is_band(name)
    assert not gate.is_band("tomita_conjugation")
