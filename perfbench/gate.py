"""Correctness gate for one benchmark child, and the accuracy headroom.

The gate fails closed: a check that cannot be read counts as failed.
A child's checks are

* the child itself ran to completion (exit 0, result file written);
* every CLI call exited 0 and wrote a report with an empty
  ``failures`` list, and every artifact the report lists exists;
* every ``verify.csv`` row passed, with finite observed and tolerance.

``headroom`` is ``log10(tolerance / observed)`` in decades over the
checks gated on ``observed <= tolerance``; band checks are left out.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import signal
from pathlib import Path

# Checks that hold a value inside a band or against zero, not below a
# tolerance: their "observed" is no error size.
BAND_PREFIXES = ("fejer_ratio_", "abel_monotone_")
BAND_NAMES = frozenset({"resolvent_margin", "commutator_bound"})

# An observed error of 0 (or below) reads as this many decades.
HEADROOM_CAP = 16.0

# Gated (observed, tolerance) fields of each non-verify report; the
# tolerance is a report field or a key of the report's tolerance table.
REPORT_CHECKS = {
    "star": [("weyl_relation", "relation_deviation", "tolerance")],
    "represent": [("hausdorff_young_endpoint", "endpoint_slack",
                   "tolerance")],
    "fourier": [("paren_routes", "route_deviation", "tolerance")],
    "fejer": [("transference_integral", "transference_deviation",
               "tolerances.transference_integral")],
    "abel": [],
    "dirac": [("dirac_master", "master_deviation", "master_tolerance"),
              ("telescoping", "telescoping", "tolerances.telescoping")],
    "growth": [("dirichlet_growth", "band_deviation", "band")],
}


def is_band(name: str) -> bool:
    return name in BAND_NAMES or name.startswith(BAND_PREFIXES)


def headroom(observed: float, tolerance: float) -> float:
    """Decades by which ``observed`` stays under ``tolerance``.

    Non-finite values, or a tolerance that is not positive, give
    ``-inf``: such a check can never pass.
    """
    if not (math.isfinite(observed) and math.isfinite(tolerance)) \
            or tolerance <= 0.0:
        return -math.inf
    if observed <= 0.0:
        return HEADROOM_CAP
    return min(HEADROOM_CAP, math.log10(tolerance / observed))


def headroom_min(rows) -> tuple[float, str]:
    """Smallest headroom over ``(name, observed, tolerance)`` rows.

    Band checks are skipped.  Returns the value and the check's name;
    with no gated row the cap and an empty name.
    """
    best, best_name = HEADROOM_CAP, ""
    for name, observed, tolerance in rows:
        if is_band(name):
            continue
        h = headroom(observed, tolerance)
        if h < best:
            best, best_name = h, name
    return best, best_name


def describe_exit(returncode: int) -> str:
    if returncode >= 0:
        return f"exit {returncode}"
    try:
        return f"killed by {signal.Signals(-returncode).name}"
    except ValueError:
        return f"killed by signal {-returncode}"


class ChildReport:
    """Checks, observed values and artifact digests of one child."""

    def __init__(self):
        self.checks: list[tuple[str, bool]] = []
        self.rows: list[tuple[str, float, float]] = []  # gated and band
        self.digests: dict[str, str] = {}

    def check(self, name: str, ok: bool) -> bool:
        self.checks.append((name, bool(ok)))
        return bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.checks)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok in self.checks if not ok)

    def failures(self) -> list[str]:
        return [name for name, ok in self.checks if not ok]


def _float(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def _lookup(report: dict, path: str):
    value = report
    for key in path.split("."):
        value = value.get(key) if isinstance(value, dict) else None
    return value


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_child(returncode: int, result: dict | None, out: Path,
                commands: list[str]) -> ChildReport:
    """Gate one finished child.

    ``result`` is the child's result file (None when it wrote none) and
    ``out`` the directory its CLI calls wrote to.
    """
    rep = ChildReport()
    status = result.get("status") if result else None
    if not rep.check(f"child ({describe_exit(returncode)}, "
                     f"status {status})",
                     returncode == 0 and status == "ok"):
        return rep
    codes = result.get("commands", [])
    if not rep.check("commands.ran", [c.get("command") for c in codes]
                     == commands):
        return rep
    for entry in codes:
        name = entry["command"]
        rep.check(f"{name}.exit", entry.get("rc") == 0)
        report_path = out / f"{name}_report.json"
        try:
            report = json.loads(report_path.read_text())
        except (OSError, ValueError):
            rep.check(f"{name}.report", False)
            continue
        rep.check(f"{name}.failures", report.get("failures") == [])
        rep.digests[report_path.name] = _digest(report_path)
        outputs = report.get("outputs")
        if not rep.check(f"{name}.outputs", isinstance(outputs, list)
                         and len(outputs) > 0):
            continue
        for artifact in outputs:
            path = out / str(artifact)
            if rep.check(f"{name}.artifact.{artifact}", path.is_file()):
                rep.digests[path.name] = _digest(path)
        if name == "verify":
            _verify_rows(rep, out / "verify.csv")
        else:
            for check, obs_key, tol_key in REPORT_CHECKS.get(name, []):
                obs = _float(_lookup(report, obs_key))
                tol = _float(_lookup(report, tol_key))
                rep.check(f"{name}.{check}.finite",
                          math.isfinite(obs) and math.isfinite(tol))
                rep.rows.append((check, obs, tol))
    return rep


def _verify_rows(rep: ChildReport, path: Path) -> None:
    try:
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
    except OSError:
        rows = []
    if not rep.check("verify.rows", len(rows) > 0):
        return
    for row in rows:
        name = row.get("name", "?")
        obs = _float(row.get("observed"))
        tol = _float(row.get("tolerance"))
        rep.check(f"verify.{name}",
                  row.get("passed") == "1"
                  and math.isfinite(obs) and math.isfinite(tol))
        rep.rows.append((name, obs, tol))
