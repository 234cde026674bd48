#!/usr/bin/env python3
"""Fast self-test of the benchmark, at tiny input sizes (about a minute).

Usage (from the repository root): python3 bench/selftest.py

For every workload it makes two runs of bench/run.py and checks that:

* each run emits every metric BENCHMARK.json declares, with its unit and a
  finite value (end-to-end untraced, per-layer traced);
* in the traced run the spans nest, every self time is >= 0, no patch
  target is missing, and the self times add up to the traced operation
  time;
* an operation whose output is deliberately damaged is counted as failed
  (``failed`` and ``fail_ratio``) and makes the exit code nonzero.

Finally a copy holding only BENCHMARK.json and bench/ must exit nonzero
without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every workload run.py supports, including any BENCHMARK.json leaves out.
WORKLOADS = ("analyze_large", "selection_rct", "selection_gaussian", "misspec_gaussian")
TIMEOUT_S = 170

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def run(cwd: Path, *args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    if proc.returncode not in (0, 1):
        print(proc.stderr, file=sys.stderr)
    return proc.returncode, proc.stdout.splitlines()


def labelled(lines: list[str], label: str) -> dict:
    return next(json.loads(line[len(label) + 1 :]) for line in lines if line.startswith(label + " "))


def check_metrics(name: str, kind: str, metrics: dict) -> None:
    declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
    emitted = {k: v["unit"] for k, v in metrics.items()}
    expect(emitted == declared, f"{name}: every {kind} metric emitted with its unit")
    finite = all(
        isinstance(v["value"], (int, float)) and math.isfinite(v["value"]) for v in metrics.values()
    )
    expect(finite, f"{name}: every {kind} value is a finite number")


def check_workload(name: str) -> None:
    tiny = ("--workload", name, "--seed", "7", "--seconds", "1", "--scale", "tiny")

    code, lines = run(ROOT, *tiny, "--trace", "0", "--corrupt-op", "1")
    result, summary = json.loads(lines[-1]), labelled(lines, "summary")
    check_metrics(name, "end_to_end", result["metrics"])
    expect(
        code == 1 and not result["correct"] and result["failed"] == 1,
        f"{name}: the damaged output is counted as failed and the exit code is 1",
    )
    expect(
        summary["fail_ratio"] == 1 / result["attempted"] and result["attempted"] >= 4,
        f"{name}: fail_ratio is 1 / attempted",
    )

    code, lines = run(ROOT, *tiny, "--trace", "1")
    result, summary = json.loads(lines[-1]), labelled(lines, "summary")
    expect(code == 0 and result["correct"] and result["failed"] == 0, f"{name}: traced run is correct")
    check_metrics(name, "per_layer", result["metrics"])
    expect(summary["spans"] > 0 and not summary["nesting_problems"], f"{name}: spans nest, self times >= 0")
    expect(not summary["unpatched"], f"{name}: every patch target exists")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    gap = values["trace.op_p50_s"] - values["trace.self_sum_p50_s"]
    expect(
        0 <= gap <= 0.01 * values["trace.op_p50_s"] + abs(values["trace.overhead_s"]),
        f"{name}: span self times add up to the traced operation time",
    )


def check_bare_copy() -> None:
    bare = ROOT / ".bench_work" / f"selftest-bare-{os.getpid()}"
    try:
        shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, lines = run(bare, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1")
        expect(code != 0 and not lines, "a copy without src/ exits nonzero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:  # another run is still using it
            pass


def main() -> int:
    for name in WORKLOADS:
        check_workload(name)
    check_bare_copy()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
