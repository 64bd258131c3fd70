"""Verification suites fail closed on non-finite deviations."""

import math

import numpy as np

from nctorus import dirac, dynamics, fourier, modular, summation, tolerances
from nctorus import verify


def test_nan_tomita_deviation_fails(rot, small_box, monkeypatch):
    monkeypatch.setattr(modular, "tomita_check",
                        lambda f, d, box: float("nan"))
    rows = verify.modular_suite(rot, small_box, tolerances.resolve(),
                                np.random.default_rng(1), count=3)
    row = next(r for r in rows if r.name == "tomita_conjugation")
    assert math.isnan(row.observed)
    assert not row.passed


def _row(rows, name):
    return next(r for r in rows if r.name == name)


def test_one_nan_matrix_element_fails_dirac_master(rot, small_box,
                                                   monkeypatch):
    real = dirac.matrix_element_closed_form
    calls = []

    def third_is_nan(*args):
        calls.append(args)
        return complex("nan") if len(calls) == 3 else real(*args)

    monkeypatch.setattr(dirac, "matrix_element_closed_form", third_is_nan)
    row = _row(verify.dirac_master_suite(rot, small_box, tolerances.resolve(),
                                         radius=2), "dirac_master")
    assert len(calls) > 3
    assert math.isnan(row.observed)
    assert not row.passed


def test_nan_growth_number_fails_telescoping(rot, small_box, monkeypatch):
    real = dirac.telescoping_deviation

    def nan_gamma_2(a, growth):
        values = list(growth.values)
        values[2] = float("nan")
        return real(a, dynamics.GrowthSequence(tuple(values)))

    monkeypatch.setattr(dirac, "telescoping_deviation", nan_gamma_2)
    row = _row(verify.dirac_bounds_suite(rot, small_box, tolerances.resolve(),
                                         n_radius=2), "telescoping")
    assert math.isnan(row.observed)
    assert not row.passed


def test_one_nan_hat_coefficient_fails_wts_generators(rot, small_box,
                                                      monkeypatch):
    real = summation.hat_vector

    def nan_at_origin(x):
        table = real(x)
        poisoned = table.table.copy()
        poisoned[small_box.block_bound, small_box.mode_bound] = np.nan
        return fourier.FourierCoeffs(table.kind, poisoned, table.box)

    monkeypatch.setattr(summation, "hat_vector", nan_at_origin)
    row = _row(verify.wts_suite(rot, small_box, tolerances.resolve(),
                                np.random.default_rng(1), radius=2),
               "wts_generators")
    assert math.isnan(row.observed)
    assert not row.passed


def test_dynamics_suite_solves_each_density_once(bench, small_box,
                                                 monkeypatch):
    """17 distinct densities, 9 iterates and the 81 right-hand densities
    are the only grid inverse solves; the orbit of the rotation number
    solves at single points."""
    from nctorus import gns

    gns._context(bench, small_box)
    grid_calls = []
    inverse = dynamics.ConjugatorLift.inverse

    def counting(self, y):
        if np.ndim(y):
            grid_calls.append(y)
        return inverse(self, y)

    monkeypatch.setattr(dynamics.ConjugatorLift, "inverse", counting)
    rows = verify.dynamics_suite(bench, small_box, tolerances.resolve())
    assert all(r.passed for r in rows)
    assert len(grid_calls) == 17 + 9 + 81
