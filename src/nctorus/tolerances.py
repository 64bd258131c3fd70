"""Central tolerance table used by the verification suites and the CLI.

One tolerance per check on every dynamics: exact identities sit at
1e-12 or tighter, the rest at values measured on the benchmark dynamics
at K = M = 16, G = 256.  ``resolve`` applies overrides and a scale.
"""

from __future__ import annotations

import math

from .errors import _json_keys, _json_number

DEFAULTS: dict[str, float] = {
    "weyl_relation": 1e-14,
    "star_associativity": 1e-12,
    "star_traciality": 1e-12,
    "cocycle": 1e-9,
    "growth_normalization": 1e-9,
    "rotation_number": 1e-6,
    "state_routes": 1e-9,
    "gram": 1e-14,
    "u_kl_vacuum": 1e-8,
    "homomorphism": 1e-10,
    "tomita": 1e-12,
    "borel": 1e-9,
    "paren_routes": 1e-7,
    "parseval": 1e-12,
    "hausdorff_young_endpoint": 1e-12,
    "classical_limit": 1e-10,
    "wts_generators": 1e-12,
    "wts_random": 1e-10,
    "fejer_ratio_low": 0.3,
    "fejer_ratio_high": 0.7,
    "transference_integral": 1e-9,
    "dirichlet_band": 0.2,
    "dirichlet_table": 1e-8,
    "dirac_master": 1e-12,
    "dirac_bound_slack": 1e-6,
    "telescoping": 1e-12,
}


def resolve(overrides: dict[str, float] | None = None, scale: float = 1.0) -> dict[str, float]:
    """Return the tolerance table with ``overrides`` applied, then scaled.

    Band edges (``fejer_ratio_*``) and the Dirichlet band are structural
    and are never scaled; everything else multiplies by ``scale``.  An
    unknown name, or a scale or override that is not a finite positive
    number (not a number at all included), raises ``ValueError``, and so
    does a product that overflows: a NaN or infinite tolerance would
    pass every check.
    """
    _require_positive("tolerance scale", scale)
    table = dict(DEFAULTS)
    if overrides:
        _json_keys(overrides, table, "tolerances")
        table.update({k: _json_number(v, f"tolerance {k}")
                      for k, v in overrides.items()})
    if scale != 1.0:
        unscaled = {"fejer_ratio_low", "fejer_ratio_high", "dirichlet_band"}
        for key in table:
            if key not in unscaled:
                table[key] *= scale
    for key, value in table.items():
        _require_positive(f"tolerance {key}", value)
    return table


def _require_positive(label: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{label} must be finite and positive, got {value}")
