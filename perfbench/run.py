"""nctorus benchmark: CLI workloads timed in fresh child processes.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload verify-full-20 --seed 1 \\
        --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Every timed run of a workload is one fresh child process (``child.py``)
that imports ``nctorus`` from ``src/``, builds the per-box context and
calls ``nctorus.cli.main`` once per subcommand, so the package's lazy
caches start cold as they do for a CLI user.  Load is closed-loop: one
child at a time, each started after the previous one ended.  BLAS keeps
its default thread count; the count is recorded with the environment.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median CLI
time), ``setup_s`` (median spawn-to-ready time), ``peak_rss_mb`` and
``headroom_min``.  ``--trace 1`` runs untraced children, then one child
with spans around every public function (``tracer.py``) and one under
tracemalloc, and reports per-layer span counts and self times, verify
suite and CLI command totals, and traced memory.  Every child's outputs
go through the correctness gate in ``gate.py``, and every child of a
run must write byte-identical artifacts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, samples, every check's observed value) is written to
``.perfbench_out/<workload>/seed-<seed>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# name -> (K, M, G), CLI subcommands in order, extra config keys.
WORKLOADS = {
    "verify-full-20": ((20, 20, 256), ["verify"], {"quick": False}),
    "verify-quick-32": ((32, 32, 512), ["verify"], {"quick": True}),
    "artifacts-24": ((24, 24, 256),
                     ["star", "represent", "fourier", "fejer", "abel",
                      "dirac", "growth"], {}),
}
CLI_COMMANDS = ["star", "represent", "fourier", "fejer", "abel", "dirac",
                "growth", "verify"]
THREAD_VARS = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NCTORUS_THREADS"]

MEM_CAP_MB = 3072      # address-space cap each child sets on itself
SETUP_ONLY = 5         # extra children per run that only set up
MIN_CHILDREN = 2       # timed children per untraced run, at least
RUN_BUDGET_S = 170.0   # no child starts, or keeps running, after this


def config_for(workload: str, seed: int) -> dict:
    (k, m, g), _, extra = WORKLOADS[workload]
    return {"truncation": {"K": k, "M": m, "G": g}, "seed": seed, **extra}


class Child:
    """One finished child: exit code, result file, gate report."""

    def __init__(self, kind: str, returncode: int, result: dict | None,
                 spawn: float, out: Path, report: gate.ChildReport | None):
        self.kind = kind
        self.returncode = returncode
        self.out = out
        self.result = result
        self.report = report
        ready = result.get("ready") if result else None
        self.setup_s = ready - spawn if ready is not None else None

    @property
    def ok(self) -> bool:
        return bool(self.result) and self.result.get("status") == "ok"


def run_child(run_dir: Path, index: int, workload: str, kind: str,
              setup_only: bool, deadline: float,
              mem_cap_mb: int = MEM_CAP_MB) -> Child:
    """Start one child, wait for it, and gate what it wrote."""
    box, commands, _ = WORKLOADS[workload]
    child_dir = run_dir / f"child-{index:02d}"
    out = child_dir / "out"
    out.mkdir(parents=True)
    spec = {"src": str(SRC), "box": list(box), "commands": commands,
            "config": str(run_dir / "config.json"), "out": str(out),
            "result": str(child_dir / "result.json"),
            "mem_cap_mb": mem_cap_mb, "trace": kind,
            "setup_only": setup_only}
    spec_path = child_dir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=2) + "\n")
    timeout = max(1.0, deadline - time.monotonic())
    with open(child_dir / "child.log", "w") as log:
        spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            returncode = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            returncode = -signal.SIGKILL
    try:
        result = json.loads((child_dir / "result.json").read_text())
    except (OSError, ValueError):
        result = None
    report = None if setup_only else gate.check_child(returncode, result,
                                                      out, commands)
    return Child(kind, returncode, result, spawn, out, report)


def tail_percentile(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples above it, else max."""
    n = len(values)
    ordered = sorted(values)
    if n <= 10:
        return f"max of {n}", ordered[-1]
    p = int(100 * (n - 10) / n)
    return f"p{p} of {n}", ordered[math.ceil(p * n / 100) - 1]


def environment(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
            "git_commit": commit, "seed": seed}


def _median(values):
    return statistics.median(values) if values else None


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """One run of a workload; returns its record.

    Untraced: set-up-only children, then timed children until the next
    one would end after ``seconds`` (at least ``MIN_CHILDREN``).
    Traced: one timed child, then a spans child and a memory child.
    """
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    run_dir = OUT / workload / f"seed-{seed}"
    shutil.rmtree(OUT / workload, ignore_errors=True)  # keep one run's files
    run_dir.mkdir(parents=True)
    (run_dir / "config.json").write_text(
        json.dumps(config_for(workload, seed), indent=2) + "\n")
    children = 0

    def child(kind: str = "", setup_only: bool = False) -> Child:
        nonlocal children
        children += 1
        return run_child(run_dir, children - 1, workload, kind, setup_only,
                         deadline)

    setups = [] if trace else [child(setup_only=True)
                               for _ in range(SETUP_ONLY)]
    # A traced run needs one untraced child: the reference for the
    # artifacts and for the tracing overhead.
    timed: list[Child] = []
    minimum = 1 if trace else MIN_CHILDREN
    longest = 0.0
    while (len(timed) < minimum or not trace
           and time.monotonic() - start + longest <= seconds) \
            and time.monotonic() < deadline:
        t0 = time.monotonic()
        timed.append(child())
        longest = max(longest, time.monotonic() - t0)
        if not timed[-1].ok:
            break
    traced = ([child("spans"), child("memory")]
              if trace and all(c.ok for c in timed) else [])

    # Every child's own checks, then: repeats and traced children wrote
    # byte-identical artifacts, and every set-up child finished.
    checks: list[tuple[str, bool]] = []
    rows: list[tuple[str, float, float]] = []
    reference = timed[0].report.digests
    for i, c in enumerate(timed + traced):
        checks += c.report.checks
        rows += c.report.rows
        if i and c.ok:
            checks.append((f"artifacts.identical.{c.kind or 'repeat'}-{i}",
                           c.report.digests == reference))
    if trace:
        checks.append(("trace.children_ran",
                       len(traced) == 2 and all(c.ok for c in traced)))
    checks += [(f"setup_child ({gate.describe_exit(c.returncode)})", c.ok)
               for c in setups]

    good = [c for c in timed if c.ok]
    walls = [c.result["wall_s"] for c in good]
    setup_values = [c.setup_s for c in setups + timed if c.setup_s is not None]
    rss = [c.result["maxrss_kb"] / 1024.0 for c in good]
    head, head_name = gate.headroom_min(rows)
    failed = sum(1 for _, ok in checks if not ok)
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "config": config_for(workload, seed),
        "env": dict(environment(seed),
                    **(good[0].result.get("env", {}) if good else {})),
        "children": len(timed), "setup_children": len(setups),
        "samples": {"wall_s": walls, "setup_s": setup_values,
                    "peak_rss_mb": rss},
        "wall_tail": tail_percentile(walls) if walls else None,
        "headroom_min": head, "headroom_check": head_name,
        "observed": {name: obs for name, obs, _ in timed[0].report.rows},
        "attempted": len(checks), "failed": failed,
        "failures": [name for name, ok in checks if not ok],
    }
    if trace:
        record["traced_wall_s"] = [c.result.get("wall_s") if c.ok else None
                                   for c in traced]
        record["metrics"] = (layer_metrics(*traced, walls) if failed == 0
                             else {name: {"value": None, "unit": unit}
                                   for name, unit in layer_units().items()})
    else:
        record["metrics"] = {
            "wall_s": {"value": _median(walls), "unit": "s"},
            "setup_s": {"value": _median(setup_values), "unit": "s"},
            "peak_rss_mb": {"value": _median(rss), "unit": "MB"},
            "headroom_min": {"value": head if math.isfinite(head) else None,
                             "unit": "decades"},
        }
    record["correct"] = failed == 0 and all(
        m["value"] is not None for m in record["metrics"].values())
    (run_dir / "result.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    units = {}
    for name in tracer.span_names():
        if name.startswith("verify."):
            units[f"{name}.total_s"] = "s"
        else:
            units[f"{name}.calls"] = "count"
            units[f"{name}.self_s"] = "s"
    units.update({f"cli.{c}.total_s": "s" for c in CLI_COMMANDS})
    units.update({"cli.bytes_written": "bytes",
                  "gns.build_u_kl.reuse": "ratio",
                  "trace.retained_mb": "MB", "trace.peak_mb": "MB",
                  "trace.overhead_s": "s"})
    return units


def layer_metrics(spans_child: Child, memory_child: Child,
                  walls: list[float]) -> dict:
    """Per-layer metrics from the two traced children."""
    spans = spans_child.result["spans"]
    commands = {c["command"]: c["seconds"]
                for c in spans_child.result["commands"]}
    reuse = spans_child.result["reuse"].get("gns.build_u_kl", {})
    values = {}
    for name in tracer.span_names():
        row = spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.self_s"] = row["self_s"]
        values[f"{name}.total_s"] = row["total_s"]
    values.update({f"cli.{c}.total_s": commands.get(c, 0.0)
                   for c in CLI_COMMANDS})
    values["cli.bytes_written"] = sum(
        p.stat().st_size for p in spans_child.out.iterdir())
    values["gns.build_u_kl.reuse"] = reuse.get("reuse", 0.0)
    values["trace.retained_mb"] = memory_child.result["retained_bytes"] / 2**20
    values["trace.peak_mb"] = memory_child.result["peak_bytes"] / 2**20
    values["trace.overhead_s"] = (spans_child.result["wall_s"]
                                  - statistics.median(walls))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in layer_units().items()}


def summary(record: dict) -> list[str]:
    lines = [f"workload {record['workload']}  seed {record['seed']}  "
             f"children {record['children']} "
             f"(+{record['setup_children']} set-up only)"]
    samples = record["samples"]
    notes = {
        "wall_s": (f"median of {len(samples['wall_s'])}; "
                   + ("{} = {:.4f}".format(*record["wall_tail"])
                      if record["wall_tail"] else "no samples")),
        "setup_s": f"median of {len(samples['setup_s'])}",
        "peak_rss_mb": f"median of {len(samples['peak_rss_mb'])}",
        "headroom_min": f"tightest check: {record['headroom_check']}",
    }
    for name, metric in record["metrics"].items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<44} {shown:>12} {metric['unit']:<8} "
                     f"{notes.get(name, '')}".rstrip())
    lines.append(f"  checks_failed {record['failed']} of checks_total "
                 f"{record['attempted']}")
    lines += [f"  FAILED {name}" for name in record["failures"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "nctorus" / "cli.py").is_file():
        print(f"perfbench: no nctorus source tree under {SRC}",
              file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names]
    for record in records:
        print("\n".join(summary(record)))
        print(json.dumps({"env": record["env"],
                          "observed": record["observed"]}, sort_keys=True))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
