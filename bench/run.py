#!/usr/bin/env python3
"""residcheck benchmark: one workload, one closed-loop run, one JSON result line.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: analyze_large, selection_rct, misspec_gaussian (declared in
BENCHMARK.json) and selection_gaussian (runnable, not declared); see
bench/workloads.py for what each runs and why.

The package is imported from ``src/`` of the checkout the script sits in;
if it is not there the script exits with code 2 and prints no result.
Inputs are generated from ``--seed`` into ``.bench_work/`` and removed at
the end. One worker process then runs the operations back to back, the
first as warm-up, for ``--seconds`` seconds, and checks every output.

With ``--trace 0`` the result holds the end-to-end metrics:

* ``setup_s``: median wall time of a fresh interpreter running
  ``import residcheck.cli`` (several fresh processes, none of them the worker);
* ``op_p50_s``: median operation time;
* ``op_tail_s``: operation time at the highest percentile with at least ten
  samples beyond it, or the maximum when there are ten or fewer (the
  percentile and sample count are printed on the ``summary`` line);
* ``work_per_s``: work units per second of timed wall time (rows for
  analyze_large, replications for the labs);
* ``peak_rss_mb``: peak RSS of the worker process.

With ``--trace 1`` the worker runs half the time untraced and half with
timing wrappers around the package's layers, and the result holds the
per-layer metrics (bench/spans.py). Failed operations appear as
``failed`` out of ``attempted`` (their ratio is ``fail_ratio`` on the
summary line); any failure makes the exit code 1. Lines before the last
one record the machine, the inputs and a summary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import machine
import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Every run must end within this many seconds, its children included.
DEADLINE_S = 170.0
# Fresh interpreters per run for setup_s and for the import breakdown.
SETUP_REPEATS = 3
# Fewest counted operations per run, and per half of a traced run.
MIN_OPS = 3
MIN_OPS_TRACED = 2


def as_metrics(kind: str, values: dict) -> dict:
    """Every metric BENCHMARK.json declares under ``kind``, with its unit.

    A declared metric that was not measured is an error.
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def child_env() -> dict:
    """Environment of every child: this checkout's package, lab threads at default."""
    env = dict(os.environ)
    env.pop("RESID_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def remaining(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run exceeded its deadline")
        return left


def run_child(args: list[str], deadline: Deadline) -> subprocess.CompletedProcess:
    """Run a child to completion; on timeout it is killed and reaped."""
    proc = subprocess.run(
        args,
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=deadline.remaining(),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[1:3])} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def time_setup(deadline: Deadline) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        run_child([sys.executable, "-c", "import residcheck.cli"], deadline)
        times.append(time.perf_counter() - start)
    return times


def import_breakdown(deadline: Deadline) -> dict:
    command = [sys.executable, "-X", "importtime", "-c", "import residcheck.cli"]
    samples = [
        spans.parse_importtime(run_child(command, deadline).stderr) for _ in range(SETUP_REPEATS)
    ]
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) per the op_tail_s definition."""
    ordered = sorted(times)
    if len(ordered) > 10:
        i = len(ordered) - 11
        return ordered[i], 100.0 * (i + 1) / len(ordered), 10
    return ordered[-1], 100.0, 0


def emit(label: str, payload: dict) -> None:
    print(f"{label} {json.dumps(payload)}", flush=True)


def run_worker(spec: dict, workdir: Path, deadline: Deadline, tag: str) -> dict:
    spec_path = workdir / f"{tag}.json"
    result_path = workdir / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec))
    run_child([sys.executable, str(Path(__file__).with_name("worker.py")), str(spec_path), str(result_path)], deadline)
    return json.loads(result_path.read_text())


def measure(args, workdir: Path, deadline: Deadline) -> int:
    import workloads

    machine_record = machine.record()
    emit("machine", machine_record)
    if args.trace:
        layer = import_breakdown(deadline)
    else:
        setup_times = time_setup(deadline)

    start = time.perf_counter()
    spec = workloads.prepare(args.workload, args.seed, args.scale, workdir)
    inputs = {"generate_s": time.perf_counter() - start, "sizes": spec["sizes"]}
    if "csv" in spec:
        inputs.update(
            csv_mb=spec["csv_bytes"] / 1e6,
            rows=spec["rows"],
            columns=spec["columns"],
            caches=machine_record["caches"],
        )
    emit("inputs", inputs)

    spec.update(
        seconds=args.seconds,
        trace=bool(args.trace),
        min_ops=MIN_OPS,
        min_ops_traced=MIN_OPS_TRACED,
        corrupt_op=args.corrupt_op,
    )
    csv_mb = spec.get("csv_bytes", 0) / 1e6
    if args.trace:
        layer["io.load_peak_rss_mb"] = (
            run_worker({**spec, "mode": "load"}, workdir, deadline, "load")["peak_rss_mb"]
            if "csv" in spec
            else 0.0
        )
    result = run_worker(spec, workdir, deadline, "loop")
    for error in result["errors"]:
        print(error, file=sys.stderr)

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "warmup_s": result["warmup_s"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fail_ratio": result["failed"] / result["attempted"],
        "resid_threads": result["resid_threads"],
        "blas_threads": result["blas"]["threads"],
        "blas_core_type": result["blas"]["core_type"],
        "work_unit": spec["work_unit"],
    }
    if args.trace:
        records = json.loads((workdir / "loop.spans.json").read_text())
        facts = {int(k): v for k, v in result["facts"].items()}
        layer.update(spans.layer_metrics(records, facts, csv_mb))
        untraced = statistics.median(result["untraced_times"])
        layer["trace.untraced_op_p50_s"] = untraced
        layer["trace.overhead_s"] = layer["trace.op_p50_s"] - untraced
        metrics = as_metrics("per_layer", layer)
        summary.update(
            untraced_times_s=result["untraced_times"],
            traced_times_s=result["traced_times"],
            spans=len(records),
            nesting_problems=spans.check_nesting(records),
            unpatched=result["unpatched"],
        )
    else:
        times = result["times"]
        tail_value, percentile, beyond = tail(times)
        values = {
            "setup_s": statistics.median(setup_times),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail_value,
            "work_per_s": spec["work_units"] * len(times) / result["wall_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = as_metrics("end_to_end", values)
        summary.update(
            op_times_s=times,
            setup_times_s=setup_times,
            tail_percentile=percentile,
            tail_samples=len(times),
            tail_samples_beyond=beyond,
        )
    emit("summary", summary)
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hooks: small inputs, and an operation whose output is damaged.
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt-op", type=int, default=None)
    args = parser.parse_args(argv)

    if not (SRC / "residcheck" / "__init__.py").is_file():
        print(f"error: no residcheck package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, workdir, Deadline(DEADLINE_S))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass


if __name__ == "__main__":
    sys.exit(main())
