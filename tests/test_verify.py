"""Verification suites fail closed on non-finite deviations."""

import math

import numpy as np

from nctorus import modular, tolerances, verify


def test_nan_tomita_deviation_fails(rot, small_box, monkeypatch):
    monkeypatch.setattr(modular, "tomita_check",
                        lambda f, d, box: float("nan"))
    rows = verify.modular_suite(rot, small_box, tolerances.resolve(),
                                np.random.default_rng(1), count=3)
    row = next(r for r in rows if r.name == "tomita_conjugation")
    assert math.isnan(row.observed)
    assert not row.passed

