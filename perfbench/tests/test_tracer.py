"""Span recording, self time and namespace rebinding on synthetic code."""

import json
import sys
import types
from pathlib import Path

import pytest

import run
import tracer
from tracer import Tracer, self_times


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 6]
    spans = [(2, 1, "g", 2.0, 3.0), (1, 0, "a", 1.0, 4.0),
             (3, 0, "b", 5.0, 6.0), (0, -1, "outer", 0.0, 10.0)]
    stats = self_times(spans)
    assert stats["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert stats["a"]["self_s"] == 2.0
    assert stats["g"]["self_s"] == 1.0
    assert stats["b"]["self_s"] == 1.0


def test_self_time_sums_repeated_calls():
    spans = [(1, 0, "leaf", 1.0, 2.0), (0, -1, "root", 0.0, 3.0),
             (3, 2, "leaf", 4.5, 5.0), (2, -1, "root", 4.0, 6.0)]
    stats = self_times(spans)
    assert stats["leaf"]["calls"] == 2
    assert stats["leaf"]["self_s"] == pytest.approx(1.5)
    assert stats["root"]["self_s"] == pytest.approx(2.0 + 1.5)


@pytest.fixture
def fake_package():
    """``fakepkg.core`` defines the functions, ``fakepkg.user`` imports
    one by name the way ``modular`` imports ``represent`` from ``gns``."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def leaf(x, scale=1):
        return x * scale

    def outer(x):
        return core.leaf(x) + user.leaf(x)

    class Box:
        def total(self, x):
            return core.outer(x)

    core.leaf, core.outer, core.Box, core._private = leaf, outer, Box, leaf
    user.leaf = leaf
    pkg.leaf = leaf
    modules = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(modules)
    yield modules
    for name in modules:
        sys.modules.pop(name, None)


def test_wrapper_replaces_every_binding(fake_package):
    t = Tracer()
    replaced = t.install("fakepkg", {"core": ["leaf", "outer", "Box.total"]})
    core, user = fake_package["fakepkg.core"], fake_package["fakepkg.user"]
    # leaf: core, user, the package re-export and the private alias
    assert replaced == 4 + 1 + 1
    assert core.leaf is user.leaf is fake_package["fakepkg"].leaf
    assert core._private is core.leaf
    assert core.Box().total(3) == 6
    stats = self_times(t.spans())
    assert stats["core.leaf"]["calls"] == 2
    assert stats["core.outer"]["calls"] == 1
    assert stats["core.Box.total"]["calls"] == 1
    by_name = {name: (sid, parent) for sid, parent, name, *_ in t.spans()}
    assert by_name["core.outer"][1] == by_name["core.Box.total"][0]
    assert by_name["core.Box.total"][1] == -1


def test_missing_public_name_is_an_error(fake_package):
    with pytest.raises(AttributeError):
        Tracer().install("fakepkg", {"core": ["renamed_away"]})


def test_reuse_counts_repeated_argument_tuples():
    t = Tracer()
    name = tracer.REUSE[0]

    def work(a, b, scale=1):
        return a + b

    wrapped = t.wrap(name, work)
    wrapped(1, 2)
    wrapped(1, 2, scale=1)  # same call once defaults are bound
    wrapped(1, b=2)
    wrapped(2, 2)
    assert t.reuse()[name] == {"calls": 4, "distinct": 2, "reuse": 0.5}


def test_exception_still_closes_the_span():
    t = Tracer()

    def boom():
        raise ValueError("x")

    wrapped = t.wrap("m.boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert self_times(t.spans())["m.boom"]["calls"] == 1
    assert t._stack() == []


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(run.WORKLOADS)
    assert len(run.layer_units()) <= 128
