"""One benchmark child process: cap memory, set up, run the CLI calls.

Usage: ``python3 child.py SPEC.json`` where the spec, written by
``run.py``, names the source tree, the box, the CLI calls, the memory
cap, whether to trace and where to write ``result.json``.

The child caps its own address space first, so a run over budget
fails here (status ``memory_cap``) instead of exhausting the machine.
Set-up is ``import nctorus`` plus one public call that builds the
per-box context; the child stamps the monotonic clock when it is ready
and the parent subtracts its own spawn stamp.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
from pathlib import Path


def _write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")


def _blas_info(np) -> dict:
    """BLAS library name and the thread count it actually uses."""
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas["name"], blas["version"]
    except (TypeError, KeyError):
        return info
    import ctypes
    import glob
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(
        np.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = int(fn())
                return info
    return info


def run(spec: dict, result: dict) -> None:
    """Set up, stamp ready, run the CLI calls; trace if the spec asks.

    ``spec["trace"]`` is ``"spans"`` (time every public call),
    ``"memory"`` (tracemalloc over set-up and run) or empty.  The two
    kinds run in separate children so neither distorts the other.
    """
    trace = spec["trace"]
    sys.path.insert(0, spec["src"])
    from nctorus import cli, dynamics, gns, weyl

    if trace == "spans":
        from tracer import Tracer, self_times
        tracer = Tracer()
        tracer.install()
    elif trace == "memory":
        import tracemalloc
        tracemalloc.start()
    k, m, g = spec["box"]
    d = dynamics.benchmark()
    gns.represent(weyl.WeylElement.unit(d.alpha), d,
                  gns.TruncationBox(k, m, g))
    result["ready"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    if spec["setup_only"]:
        return

    commands = []
    start = time.perf_counter()
    for command in spec["commands"]:
        t0 = time.perf_counter()
        rc = cli.main([command, "--config", spec["config"],
                       "--out", spec["out"]])
        commands.append({"command": command, "rc": rc,
                         "seconds": time.perf_counter() - t0})
        sys.stdout.flush()
    result["wall_s"] = time.perf_counter() - start
    result["commands"] = commands
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["maxrss_kb"] = usage.ru_maxrss
    result["cpu_s"] = usage.ru_utime + usage.ru_stime

    if trace == "spans":
        spans = tracer.spans()
        result["spans"] = self_times(spans)
        result["reuse"] = tracer.reuse()
        with open(Path(spec["result"]).with_name("spans.json"), "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": spans}, fh)
    elif trace == "memory":
        gc.collect()
        result["retained_bytes"], result["peak_bytes"] = \
            tracemalloc.get_traced_memory()
        tracemalloc.stop()

    import numpy as np
    result["env"] = {"numpy": np.__version__, "blas": _blas_info(np)}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    cap = int(spec["mem_cap_mb"]) << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    result = {"status": "started"}
    code = 0
    try:
        run(spec, result)
        result["status"] = "ok"
    except MemoryError:
        result = {"status": "memory_cap"}
        code = 3
    _write(Path(spec["result"]), result)
    return code


if __name__ == "__main__":
    sys.exit(main())
