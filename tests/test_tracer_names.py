"""Every name the benchmark tracer wraps exists in the package.

The tracer (``perfbench/tracer.py``) raises on a listed name that no
longer exists, but only inside a traced benchmark run; this test makes
a rename show up in the ordinary suite.  The tracer module is loaded
from its file without writing bytecode and is never installed.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_function(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    targets = dict(tracer.SPANS, verify=tracer.SUITES)
    missing = []
    for layer, names in targets.items():
        module = importlib.import_module(f"nctorus.{layer}")
        for qual in names:
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            target = vars(owner).get(attr)
            if not inspect.isfunction(target):
                missing.append(f"{layer}.{qual}")
    assert not missing, missing

