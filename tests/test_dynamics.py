"""Circle dynamics: lifts, inverse branches, cocycle, growth sequence.

The frozen targets below were computed with 40-digit interval-free
arithmetic (mpmath) from the defining series, independently of the
grid code under test.
"""

from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nctorus import dynamics
from nctorus.errors import (InverseSolveError, OutOfBoxError,
                            PositivityError)

import oracle

GOLDEN_ALPHA = 0.30901699437494745  # (sqrt(5) - 1) / 4


def test_benchmark_parameters():
    d = dynamics.benchmark()
    assert_allclose(d.alpha, GOLDEN_ALPHA, atol=1e-16)
    assert not d.classical
    # H(u) = u + (0.3 / 2 pi) sin(2 pi u): one sine harmonic
    assert_allclose(d.lift.displacement(0.25), 0.3 / (2 * np.pi), atol=1e-15)
    assert_allclose(d.lift.derivative(0.5), 0.7, atol=1e-14)


def test_lift_inverse_frozen_values():
    h = dynamics.benchmark().lift
    # mpmath findroot of u + 0.3 sin(2 pi u) / (2 pi) = x, dps = 40
    assert_allclose(h.inverse(0.25), 0.20421556564156721, atol=1e-12)
    assert_allclose(h.inverse(0.7), 0.74774167634721499, atol=1e-12)
    # inverse really inverts, including across the period seam
    for x in np.linspace(-1.3, 2.7, 23):
        assert abs(h.value(h.inverse(x)) - x) < 1e-12


def test_iterate_lift_frozen_values():
    d = dynamics.benchmark()
    assert_allclose(dynamics.iterate_lift(d, 2, 0.1),
                    1.3576666822858501, atol=1e-12)
    assert_allclose(dynamics.iterate_lift(d, -1, 0.1),
                    -0.52841619571554978, atol=1e-12)
    # F_0 is the identity and F_{m+n} = F_m o F_n
    assert dynamics.iterate_lift(d, 0, 0.37) == 0.37
    comp = dynamics.iterate_lift(d, 1, dynamics.iterate_lift(d, 3, 0.2))
    assert_allclose(dynamics.iterate_lift(d, 4, 0.2), comp, atol=1e-11)


def test_radon_nikodym_frozen_values():
    d = dynamics.benchmark()
    vals = dynamics.radon_nikodym(d, 1, x=np.array([0.0, 0.2]))
    assert_allclose(vals[0], 0.59906872044346464, atol=1e-12)
    assert_allclose(vals[1], 0.90603563230776974, atol=1e-12)
    # delta_0 = 1 identically
    ones = dynamics.radon_nikodym(d, 0, size=64)
    assert_allclose(ones, np.ones(64), atol=1e-15)


def test_cocycle_identity_and_normalization():
    d = dynamics.benchmark()
    size = 512
    u = np.arange(size) / size
    for m, n in ((1, 1), (2, -1), (-3, 2)):
        lhs = dynamics.radon_nikodym(d, m + n, x=u)
        shifted = np.array([dynamics.iterate_lift(d, n, xi) for xi in u])
        rhs = (dynamics.radon_nikodym(d, m, x=shifted)
               * dynamics.radon_nikodym(d, n, x=u))
        assert np.max(np.abs(lhs - rhs)) < 1e-11
    for n in (-2, 1, 3):
        mean = np.mean(dynamics.radon_nikodym(d, n, size=4096))
        assert abs(mean - 1.0) < 1e-10


def test_growth_sequence_frozen_values():
    d = dynamics.benchmark()
    growth = dynamics.growth_sequence(d, 4)
    assert growth.gamma(0) == 1.0
    assert_allclose(growth.gamma(1), 1.7827124086389334, atol=1e-9)
    assert_allclose(growth.gamma(2), 1.5245990355785591, atol=1e-9)
    # Gamma is symmetric in n and >= 1 (it dominates both sup roots)
    assert growth.gamma(-3) == growth.gamma(3)
    assert min(growth.values) >= 1.0
    with pytest.raises(OutOfBoxError):
        growth.gamma(9)


def test_rotation_case_is_measure_preserving():
    rot = dynamics.rotation(0.2)
    vals = dynamics.radon_nikodym(rot, 5, size=32)
    assert_allclose(vals, np.ones(32), atol=1e-15)
    growth = dynamics.growth_sequence(rot, 3)
    assert_allclose(growth.values, np.ones(4), atol=1e-14)


def test_rotation_number_matches_twice_alpha():
    d = dynamics.benchmark()
    rho = dynamics.rotation_number(d)
    assert abs(rho - 2.0 * d.alpha) < 1e-9


def test_spec_serialization_roundtrip():
    d = dynamics.benchmark()
    again = dynamics.DiffeoSpec.from_dict(d.to_dict())
    assert again.alpha == d.alpha
    assert_allclose(np.asarray(again.lift.sin_coeffs, dtype=float),
                    np.asarray(d.lift.sin_coeffs, dtype=float), atol=0)
    assert again.classical == d.classical


@pytest.mark.parametrize("data", [
    {"alpha": 0.3, "classical": "false"},
    {"alpha": 0.3, "classical": 0},
    {"alpha": 0.3, "conjugator": 5},
    {"alpha": 0.3, "conjugator": {"sin": 0.01}},
    {"alpha": 0.3, "conjugator": {"cos": ["0.01"]}},
    {"alpha": "0.3"},
], ids=["classical-string", "classical-number", "conjugator-number",
        "sin-number", "cos-string", "alpha-string"])
def test_spec_from_dict_rejects_the_wrong_json_type(data):
    # "false" used to read as a true string, so the spec came out classical
    with pytest.raises(ValueError):
        dynamics.DiffeoSpec.from_dict(data)


@pytest.mark.parametrize("data", [
    {"alpha": 0.3, "conjugatr": {"sin": [0.01]}},
    {"alpha": 0.3, "conjugator": {"sine": [0.01]}},
    {"alpha": 0.3, "clasical": True},
], ids=["conjugatr", "sine", "clasical"])
def test_spec_from_dict_rejects_a_key_it_does_not_read(data):
    # a misspelt conjugator used to give the rigid rotation
    with pytest.raises(ValueError, match="unknown"):
        dynamics.DiffeoSpec.from_dict(data)


def test_alpha_domain_validation():
    with pytest.raises(ValueError):
        dynamics.DiffeoSpec(0.6)
    with pytest.raises(ValueError):
        dynamics.DiffeoSpec(0.0)
    # the commutative endpoint needs the explicit flag
    d0 = dynamics.DiffeoSpec(0.0, classical=True)
    assert d0.classical


def test_steep_lift_rejected():
    # amplitude 0.2 on the raw sine coefficient gives H' < 0 somewhere
    with pytest.raises(PositivityError):
        dynamics.ConjugatorLift(sin_coeffs=(0.2,))


def test_nan_lift_rejected():
    with pytest.raises(PositivityError):
        dynamics.ConjugatorLift(sin_coeffs=(float("nan"),))


@pytest.mark.parametrize("name", ["bench", "rot"])
def test_inverse_refuses_a_nan_target(name, request):
    lift = request.getfixturevalue(name).lift
    with pytest.raises(InverseSolveError):
        lift.inverse(np.array([0.1, np.nan]))


@pytest.mark.parametrize("d", [
    dynamics.benchmark(),
    dynamics.DiffeoSpec(0.3, dynamics.ConjugatorLift((0.02, -0.01),
                                                     (0.015, 0.005))),
    dynamics.DiffeoSpec(0.1, dynamics.ConjugatorLift((0.159,))),
], ids=["bench", "two-harmonic", "steep"])
def test_rotation_number_orbit_matches_full_inverse_solves(d):
    """Warm-started Newton steps against an inverse solve per step."""
    want = oracle.rotation_number_by_iterates(d)
    assert abs(dynamics.rotation_number(d) - want) <= 1e-13


def test_rotation_number_solves_every_orbit_step(monkeypatch):
    """No step skips its solve: an unmet residual gate raises."""
    monkeypatch.setattr(dynamics, "_NEWTON_RESIDUAL", -1.0)
    with pytest.raises(InverseSolveError):
        dynamics.rotation_number(dynamics.benchmark())


def test_only_dynamics_evaluates_the_lift_derivative():
    """The densities ``delta_n = H'(u + 2 alpha n) / H'(u)`` have one
    home: no other module of the package calls the lift's derivative."""
    package = Path(dynamics.__file__).parent
    users = [path.name for path in sorted(package.glob("*.py"))
             if ".derivative(" in path.read_text()]
    assert users == ["dynamics.py"]
