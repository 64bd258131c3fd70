"""Real child processes: the memory cap, a killed child, a bare tree.

Each test starts at most one small child; none builds a large box.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run

HERE = Path(run.__file__).resolve().parent


def _run_dir(tmp_path, workload):
    (tmp_path / "config.json").write_text(
        json.dumps(run.config_for(workload, 1)))
    return tmp_path


def test_child_over_its_memory_cap_is_a_failed_operation(tmp_path):
    child = run.run_child(_run_dir(tmp_path, "verify-full-20"), 0,
                          "verify-full-20", "", False,
                          time.monotonic() + 60, mem_cap_mb=48)
    assert not child.ok
    assert child.returncode != 0
    assert child.report.failed >= 1


def test_child_killed_at_the_deadline_is_a_failed_operation(tmp_path):
    # run_child waits at least one second, far less than a verify run
    child = run.run_child(_run_dir(tmp_path, "verify-quick-32"), 0,
                          "verify-quick-32", "", False, time.monotonic())
    assert child.returncode < 0
    assert not child.ok
    assert child.report.failed == 1
    assert "killed" in child.report.failures()[0]


def test_setup_only_child_reports_ready(tmp_path):
    child = run.run_child(_run_dir(tmp_path, "artifacts-24"), 0,
                          "artifacts-24", "", True, time.monotonic() + 60)
    assert child.ok
    assert 0.0 < child.setup_s < 60.0


def test_without_a_source_tree_it_fails_and_prints_nothing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "artifacts-24",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
