"""The timed process: runs one workload's operations back to back.

Usage: python3 bench/worker.py SPEC.json RESULT.json

The spec comes from ``run.py``. The first operation is warm-up and is not
timed into any metric. Every operation, warm-up included, is checked; one
that raises or fails its check counts as failed. With ``trace`` set, the
run is split in two: an untraced half, then a traced half whose spans are
written to ``SPEC.spans.json`` when the run ends. The peak RSS reported is
that of this process, which does no input generation.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import machine  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from residcheck._threads import resolve_threads  # noqa: E402
from residcheck.io import load_dataset  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Loop:
    """Runs and checks operations, counting attempts and failures."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.op = workloads.operation(spec)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_bytes: bytes | None = None
        self.facts: dict[int, dict] = {}

    def run_one(self, tracer: spans.Tracer | None = None) -> float:
        index = self.attempted
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                payload, data = self.op()
            else:
                tracer.op = index
                payload, data = tracer.call("op", self.op, (), {})
        except Exception:  # a raising operation is a counted failure, not a crash
            elapsed = time.perf_counter() - start
            self.failed += 1
            self.errors.append(f"operation {index} raised:\n{traceback.format_exc()}")
            return elapsed
        elapsed = time.perf_counter() - start

        if index == self.spec.get("corrupt_op"):
            workloads.corrupt(self.spec, payload)
        problems = workloads.check(self.spec, payload)
        if self.first_bytes is None:
            self.first_bytes = data
        elif data != self.first_bytes:
            problems.append("JSON bytes differ from the first operation of the run")
        if problems:
            self.failed += 1
            self.errors.append(f"operation {index}: " + "; ".join(problems))
        self.facts[index] = workloads.facts(self.spec, payload)
        return elapsed

    def phase(self, budget_s: float, min_ops: int, tracer=None) -> tuple[list[float], float]:
        """Operations until the next one would overrun the budget; (times, wall)."""
        times: list[float] = []
        start = time.perf_counter()
        while len(times) < min_ops or (
            time.perf_counter() - start + statistics.median(times) <= budget_s
        ):
            times.append(self.run_one(tracer))
        return times, time.perf_counter() - start


def run_loop(spec: dict, spans_path: Path) -> dict:
    loop = Loop(spec)
    warmup_s = loop.run_one()
    seconds = spec["seconds"]
    result = {"warmup_s": warmup_s}
    if not spec["trace"]:
        result["times"], result["wall_s"] = loop.phase(seconds, spec["min_ops"])
    else:
        untraced, _ = loop.phase(seconds / 2, spec["min_ops_traced"])
        tracer = spans.Tracer()
        undo, missing = spans.install(tracer)
        try:
            traced, _ = loop.phase(seconds / 2, spec["min_ops_traced"], tracer)
        finally:
            spans.uninstall(undo)
        spans_path.write_text(json.dumps(spans.to_records(tracer.spans)))
        result.update(untraced_times=untraced, traced_times=traced, unpatched=missing)
    result.update(
        attempted=loop.attempted,
        failed=loop.failed,
        errors=loop.errors,
        facts={str(k): v for k, v in loop.facts.items()},
        peak_rss_mb=peak_rss_mb(),
        resid_threads=resolve_threads(),
        blas=machine.openblas(),
    )
    return result


def load_once(spec: dict) -> dict:
    """Load the analyze CSV once; the process's peak RSS is the loader's."""
    load_dataset(workloads.analyze_config(spec))
    return {"peak_rss_mb": peak_rss_mb()}


def main() -> None:
    spec_path, result_path = Path(sys.argv[1]), Path(sys.argv[2])
    spec = json.loads(spec_path.read_text())
    if spec.get("mode") == "load":
        result = load_once(spec)
    else:
        result = run_loop(spec, spec_path.with_suffix(".spans.json"))
    result_path.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
