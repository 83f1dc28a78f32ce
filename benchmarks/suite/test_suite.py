"""Smoke test of the repository benchmark: one quick traced run of every workload.

Quick mode serves a 24x24 map for well under a second per phase, so its
numbers are not comparable with full runs; what it pins is the interface:
every declared metric is printed with its unit for every workload, the other
metrics exactly on the workloads they apply to, every reply matches the
oracle, and the run leaves the working tree as it found it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Optional

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
sys.path.insert(0, str(SUITE))

import run  # noqa: E402  (the suite directory is not a package)


def _git_status() -> Optional[str]:
    """``git status --porcelain``, or None outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
    except OSError:
        return None
    return done.stdout if done.returncode == 0 else None


def _applies(metric: str, name: str) -> bool:
    """Whether a metric printed beside the declared ones applies to a workload."""
    workload = run.WORKLOADS[name]
    ops = {op for op, _ in workload.mix}
    in_process = workload.backend != "pool"
    if metric in ("peel_p50_ms", "peel_p99_ms"):
        return ops != {"cloak"}
    if metric == "core.engine.peel_hint_us_per_req":
        return "hint" in ops
    if metric == "core.engine.peel_search_us_per_req":
        return "search" in ops
    if metric == "lbs.backends.worker_cpu_ms_per_req":
        return not in_process
    if metric == "fail_frac":
        return True
    # Spans inside pool workers are not recorded.
    return in_process


def test_quick_traced_run_reports_every_metric_and_checks_every_reply():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [item["name"] for item in spec["workloads"]] == list(run.WORKLOADS)
    before = _git_status()
    done = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--quick", "--trace"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    # Exit status 1 means a reply was missing or differed from the oracle.
    assert done.returncode == 0, done.stdout + done.stderr
    assert _git_status() == before

    lines = done.stdout.splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] > 0

    emitted = {}
    for line in lines[:-1]:
        if line.startswith("#"):
            continue
        workload, metric, value, unit, samples = line.split()
        assert samples.startswith("n=")
        emitted.setdefault(workload, {})[metric] = (float(value), unit)
    units = run.units(spec)
    declared = {metric["name"] for metric in spec["end_to_end"] + spec["per_layer"]}
    for workload in run.WORKLOADS:
        expected = declared | {m for m in run.PRINTED_UNITS if _applies(m, workload)}
        assert set(emitted[workload]) == expected, workload
        for metric, (value, unit) in emitted[workload].items():
            assert unit == units[metric], (workload, metric)
        assert emitted[workload]["fail_frac"][0] == 0.0
        for metric in spec["per_layer"]:
            assert f"{workload}:{metric['name']}" in summary["metrics"]


def test_run_length_is_fixed_by_the_benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--seconds", str(spec["run_seconds"] + 1)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert "--seconds" in done.stderr
