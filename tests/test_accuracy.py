"""Accuracy ratchet: no verify row, and no certified operator norm, gets
less accurate than its committed reference.

``accuracy_references.json`` holds the observed value of every verify
row at the benchmark boxes, full K = M = 20 and quick K = M = 32, seeds
41 and 101, on the benchmark lift and the rotation by the same angle,
and ``represent``'s ``operator_norm`` at K = M = 24, seed 41, on both.
Each rerun row is held to its reference by the rule of its kind:

- a deviation row fails when it rises past ``RISE`` times its
  reference, or past ``FLOOR`` where the reference reads 0;
- a margin row fails when its margin shrinks by more than roundoff
  (``ROUNDOFF`` relative, at least absolute): ``resolvent_margin`` and
  the least Abel drops shrink downwards, ``commutator_bound``, an
  excess, upwards;
- a band row (the Fejer ratios) and the operator norm fail when they
  move by more than roundoff either way; every row must also still
  pass.

A reference is test data: a change that moves one records the row's
old and new value, with the reason.  ``python tests/test_accuracy.py``
prints the current tree's values in the file's layout.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from nctorus import dynamics, gns, tolerances, verify, weyl

REFERENCES = json.loads(
    (Path(__file__).with_name("accuracy_references.json")).read_text())

EPS = float(np.finfo(float).eps)
RISE = 4.0
FLOOR = 4 * EPS
ROUNDOFF = 64 * EPS

# margin rows: +1 when a larger value is the larger margin, -1 when a
# smaller one is (an excess)
MARGINS = {"resolvent_margin": 1, "abel_monotone_hat": 1,
           "abel_monotone_paren": 1, "commutator_bound": -1}


def _roundoff(reference: float) -> float:
    return ROUNDOFF * max(1.0, abs(reference))


def worse(name: str, observed: float, reference: float) -> bool:
    """True when ``observed`` is less accurate than ``reference`` by the
    rule of the row's kind; NaN is always worse."""
    if not np.isfinite(observed):
        return True
    if name in MARGINS:
        return MARGINS[name] * (reference - observed) > _roundoff(reference)
    if name.startswith("fejer_ratio_") or name == "operator_norm":
        return abs(observed - reference) > _roundoff(reference)
    return observed > max(RISE * reference, FLOOR)


def _dynamics(name: str) -> dynamics.DiffeoSpec:
    d = dynamics.benchmark()
    return d if name == "benchmark" else dynamics.rotation(d.alpha)


def verify_rows(key: str) -> list[verify.CheckResult]:
    """The verify rows of a reference key ``<quick|full>-<K>-<seed>-<lift>``
    (K = M, default grid)."""
    mode, k, seed, lift = key.split("-")
    return verify.run_all(_dynamics(lift), gns.TruncationBox(int(k), int(k)),
                          tolerances.resolve(), seed=int(seed),
                          quick=mode == "quick")


def operator_norm(key: str) -> float:
    """``represent``'s ``operator_norm`` of a reference key
    ``<K>-<seed>-<lift>``: the norm of the command's radius-2 element."""
    k, seed, lift = key.split("-")
    d = _dynamics(lift)
    f = weyl.random_element(np.random.default_rng(int(seed)), d.alpha, 2,
                            decay=1.0)
    return gns.represent(f, d, gns.TruncationBox(int(k), int(k))
                         ).norm_estimate()


@pytest.mark.parametrize("key", sorted(REFERENCES["verify"]))
def test_no_verify_row_is_less_accurate_than_its_reference(key):
    reference = REFERENCES["verify"][key]
    rows = verify_rows(key)
    assert [r.name for r in rows] == list(reference)
    failed = [r.name for r in rows if not r.passed]
    assert not failed, failed
    moved = {r.name: (reference[r.name], r.observed) for r in rows
             if worse(r.name, r.observed, reference[r.name])}
    assert not moved, moved


@pytest.mark.parametrize("key", sorted(REFERENCES["operator_norm"]))
def test_operator_norm_is_its_reference(key):
    reference = REFERENCES["operator_norm"][key]
    got = operator_norm(key)
    assert not worse("operator_norm", got, reference), (reference, got)


def test_the_rules_catch_a_raised_j_row_and_a_shrunken_commutator_margin():
    """The two mutants the ratchet is gated on, applied to the reference
    values: 1e-12 on a J row, and ``commutator_bound`` one decade toward
    0; each rerun reference itself is not worse."""
    for rows in REFERENCES["verify"].values():
        for name, value in rows.items():
            assert not worse(name, value, value), name
        j = rows["j_involution"]
        assert worse("j_involution", j + 1e-12, j)
        excess = rows["commutator_bound"]
        assert worse("commutator_bound", excess / 10.0, excess)
    assert worse("parseval", float("nan"), 0.0)
    assert worse("weyl_relation", 2 * FLOOR, 0.0)
    assert not worse("weyl_relation", FLOOR, 0.0)


if __name__ == "__main__":
    print(json.dumps({
        "verify": {key: {r.name: r.observed for r in verify_rows(key)}
                   for key in REFERENCES["verify"]},
        "operator_norm": {key: operator_norm(key)
                          for key in REFERENCES["operator_norm"]},
    }, indent=1))
