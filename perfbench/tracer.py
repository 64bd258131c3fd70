"""Spans around the public functions of every nctorus layer.

Each wrapped call records one span: its id, the id of the span that
was open when it started (-1 at the top), its name, start and end.
Spans go into a flat in-memory log and are reduced afterwards, so the
program itself is untouched and runs the same code paths as untraced.

Only public names are wrapped.  A wrapper replaces the original in
every ``nctorus.*`` namespace that holds it (``from .gns import
represent`` in ``modular`` binds a second name to the same object), so
calls through re-exports are counted too.  A listed name that no
longer exists is an error, not a silent zero.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from array import array

# layer -> public functions, or ``Class.method``, that get a span.
SPANS: dict[str, list[str]] = {
    "weyl": ["star_product", "involution", "random_element"],
    "gns": ["represent", "build_u_kl", "GnsOperator.apply",
            "GnsOperator.apply_to_grid", "state_eval", "GnsOperator.dense",
            "GnsOperator.norm_estimate"],
    "modular": ["apply_J", "apply_delta_power", "borel_apply",
                "conjugated_borel_apply", "tomita_check"],
    "fourier": ["hat_functional", "paren_functional", "epsilon_basis",
                "anti_transform", "dirichlet_coefficient_table",
                "classical_limit_compare"],
    "summation": ["convergence_profile", "wts_deviation",
                  "transfer_operator", "transference_integral_check"],
    "dynamics": ["ConjugatorLift.inverse", "iterate_lift", "radon_nikodym",
                 "growth_sequence"],
    "dirac": ["deformed_corner", "resolvent_profile", "commutator_block",
              "master_deviation"],
    "grids": ["project_to_modes"],
}

# The verify suites are reported by total time only: they never nest.
SUITES = ["weyl_relation_suite", "star_algebra_suite", "dynamics_suite",
          "gns_suite", "modular_suite", "parseval_suite", "classical_suite",
          "wts_suite", "summation_suite", "dirichlet_suite",
          "dirac_master_suite", "dirac_bounds_suite"]

# Spans whose argument tuples are counted, to measure how often the
# same call repeats (what a cache in front of it could save).
REUSE = ("gns.build_u_kl",)


def span_names() -> list[str]:
    """Every span name, ``<layer>.<function>``, in a fixed order."""
    names = [f"{layer}.{name}" for layer, fns in SPANS.items() for name in fns]
    return names + [f"verify.{suite}" for suite in SUITES]


class Tracer:
    """Records spans from wrapped functions; one instance per process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.log = array("d")  # id, parent, name id, start, end per span
        self._ids = itertools.count()
        self._local = threading.local()
        self.arguments: dict[str, dict] = {}  # name -> {argument key: calls}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        key_of = _argument_key(fn) if name in REUSE else None
        seen = self.arguments.setdefault(name, {}) if key_of else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if key_of is not None:
                key = key_of(args, kwargs)
                seen[key] = seen.get(key, 0) + 1
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.log.extend((sid, parent, nid, start, end))

        return span

    def install(self, package: str = "nctorus",
                targets: dict[str, list[str]] | None = None) -> int:
        """Wrap every target of ``package``; return the bindings replaced.

        ``targets`` maps a submodule to its public names and defaults to
        :data:`SPANS` plus the verify suites.
        """
        if targets is None:
            targets = dict(SPANS, verify=SUITES)
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None
                   and (key == package or key.startswith(package + "."))]
        replaced = 0
        for layer, names in targets.items():
            module = sys.modules[f"{package}.{layer}"]
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    if not inspect.isfunction(original):
                        raise TypeError(f"{layer}.{qual} is not a method")
                    setattr(owner, attr, self.wrap(f"{layer}.{qual}",
                                                   original))
                    replaced += 1
                    continue
                original = getattr(module, attr)
                wrapped = self.wrap(f"{layer}.{qual}", original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)
                            replaced += 1
        return replaced

    def spans(self) -> list[tuple[int, int, str, float, float]]:
        """The log as ``(id, parent, name, start, end)`` tuples."""
        log = self.log
        return [(int(log[i]), int(log[i + 1]), self.names[int(log[i + 2])],
                 log[i + 3], log[i + 4]) for i in range(0, len(log), 5)]

    def reuse(self) -> dict[str, dict]:
        """Per counted span: calls, distinct argument tuples, repeat share."""
        out = {}
        for name, seen in self.arguments.items():
            calls = sum(seen.values())
            out[name] = {"calls": calls, "distinct": len(seen),
                         "reuse": (calls - len(seen)) / calls if calls else 0.0}
        return out


def _argument_key(fn):
    signature = inspect.signature(fn)

    def key_of(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return tuple(bound.arguments.values())

    return key_of


def self_times(spans) -> dict[str, dict]:
    """Calls, total and self seconds per span name.

    Self time is a span's duration minus the durations of its direct
    children; spans on one thread nest, so the children never overlap.
    """
    child_time: dict[int, float] = {}
    for _, parent, _, start, end in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    stats: dict[str, dict] = {}
    for sid, _, name, start, end in spans:
        row = stats.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - child_time.get(sid, 0.0)
    return stats
