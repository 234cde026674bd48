"""Span recording around the package's layer boundaries, and per-layer metrics.

The traced run replaces public functions of the package with timing
wrappers. Each name is patched in the namespace of the module that calls
it, because ``from .rct import residualized_estimator`` binds a separate
name in ``report`` and in ``dgps``; methods are patched on their class.
A span holds its name, start, end, parent and the operation it belongs to.
Spans are kept in memory and written out when the run ends. A layer's
self time is its span duration minus the duration of its child spans.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import threading
import time
from collections import defaultdict

# (module, attribute path, span name, attributes taken from the call).
# Attribute extractors read the call's arguments: (args, kwargs) -> dict.
PATCHES = (
    ("residcheck.report", "build_analyze_report", "report.build_analyze_report", None),
    ("residcheck.report", "json_bytes", "report.json_bytes", None),
    ("residcheck.report", "run_simulate", "report.run_simulate", None),
    ("residcheck.report", "load_dataset", "io.load_dataset", None),
    ("residcheck.report", "residualized_estimator", "rct.residualized_estimator", None),
    ("residcheck.report", "worst_case_score", "misspec.worst_case_score", None),
    ("residcheck.report", "measure_bias", "misspec.measure_bias", None),
    ("residcheck.core", "diagnostics", "core.diagnostics", None),
    ("residcheck.core", "orthogonality_stat", "core.orthogonality_stat", None),
    ("residcheck.core", "JointCovariance.__post_init__", "core.joint_covariance_validate", None),
    ("residcheck.rct", "short_estimator", "rct.short_estimator", None),
    ("residcheck.rct", "balance_stats", "rct.balance_stats", None),
    ("residcheck.rct", "long_regression", "rct.long_regression", None),
    (
        "residcheck.rct",
        "joint_covariance",
        "covariance.joint_covariance",
        lambda a, k: {"bytes": a[0].values.nbytes},
    ),
    ("residcheck.dgps", "residualized_estimator", "rct.residualized_estimator", None),
    (
        "residcheck.dgps",
        "GaussianPairDGP.replicate_batch",
        "dgps.replicate_batch",
        lambda a, k: {"reps": a[3]},
    ),
    (
        "residcheck.dgps",
        "RctLinearDGP.replicate_batch",
        "dgps.replicate_batch",
        lambda a, k: {"reps": a[3]},
    ),
    ("residcheck.dgps", "GaussianPairDGP.draw", "dgps.draw", lambda a, k: {"rows": a[2]}),
    ("residcheck.dgps", "RctLinearDGP.draw_matrix", "dgps.draw_matrix", None),
    ("residcheck.dgps", "GaussianPairDGP.estimate_short", "misspec.estimate", None),
    ("residcheck.dgps", "GaussianPairDGP.estimate_fixed", "misspec.estimate", None),
    (
        "residcheck.dgps",
        "GaussianPairDGP.estimate_plugin_residualized",
        "misspec.estimate",
        None,
    ),
    ("residcheck.selection", "simulate_replications", "selection.simulate_replications", None),
    ("residcheck.selection", "summarize", "selection.summarize", None),
    ("residcheck.misspec", "check_weight_bound", "misspec.check_weight_bound", None),
)
# map_batches is patched specially: each batch becomes a threads.batch span.
MAP_BATCHES_CALLERS = ("residcheck.selection", "residcheck.misspec")


class Tracer:
    """Collects spans; the parent of a span is the innermost open span of its thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, fn, args, kwargs, attrs=None, parent=None):
        stack = self._stack()
        span_id = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, self.op, attrs))

    def wrap(self, fn, name: str, attrs_of=None):
        def wrapper(*args, **kwargs):
            attrs = attrs_of(args, kwargs) if attrs_of is not None else None
            return self.call(name, fn, args, kwargs, attrs)

        return wrapper

    def wrap_map_batches(self, map_batches):
        """map_batches whose batches are spans, children of the map_batches span."""

        def traced_map(fn, n_batches, threads=None):
            parent = self._stack()[-1]

            def batch(i):
                return self.call("threads.batch", fn, (i,), {}, parent=parent)

            return map_batches(batch, n_batches, threads)

        return self.wrap(traced_map, "threads.map_batches")


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Patch every listed name that exists; returns (undo list, names not found)."""
    undo, missing = [], []
    for module_name, path, span, attrs_of in PATCHES:
        module = importlib.import_module(module_name)
        try:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
        except (AttributeError, KeyError):
            missing.append(f"{module_name}.{path}")
            continue
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, span, attrs_of))
    for module_name in MAP_BATCHES_CALLERS:
        module = importlib.import_module(module_name)
        original = module.__dict__.get("map_batches")
        if original is None:
            missing.append(f"{module_name}.map_batches")
            continue
        undo.append((module, "map_batches", original))
        module.map_batches = tracer.wrap_map_batches(original)
    return undo, missing


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def to_records(spans: list[tuple]) -> list[dict]:
    keys = ("id", "parent", "name", "start", "end", "op", "attrs")
    return [dict(zip(keys, span)) for span in spans]


def check_nesting(spans: list[dict]) -> list[str]:
    """Every child lies inside its parent and every self time is >= 0."""
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    problems = []
    for s in spans:
        parent = by_id.get(s["parent"])
        if s["parent"] is not None and parent is None:
            problems.append(f"span {s['id']} ({s['name']}) has an unknown parent")
        elif parent is not None:
            if not parent["start"] <= s["start"] <= s["end"] <= parent["end"]:
                problems.append(f"span {s['name']} is not inside its parent {parent['name']}")
            child_time[parent["id"]] += s["end"] - s["start"]
    for s in spans:
        if s["end"] - s["start"] - child_time[s["id"]] < -1e-9:
            problems.append(f"span {s['name']} has negative self time")
    return problems


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[dict], op_facts: dict[int, dict], csv_mb: float) -> dict:
    """Per-layer metrics: each is the median over traced operations of a per-op value.

    Operations are the root spans named ``op``. ``_s`` metrics are total
    (inclusive) times and ``_self_s`` metrics self times. The self time of a
    ``threads.*`` span is credited to the function whose batches it runs,
    so ``misspec.measure_bias_self_s`` includes the per-replication
    resampling done in its batch closure. A layer that does no work on a
    workload reports 0.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    def owner(s) -> str:
        return next(a for a in [s, *ancestors(s)] if not a["name"].startswith("threads."))["name"]

    per_op = defaultdict(lambda: defaultdict(float))
    batch_durations = defaultdict(list)
    for s in spans:
        acc = per_op[s["op"]]
        dur = s["end"] - s["start"]
        self_time = dur - child_time[s["id"]]
        name = s["name"]
        acc[f"{name}:total"] += dur
        acc[f"{owner(s)}:self"] += self_time
        acc[f"{name}:calls"] += 1
        if name == "op":
            continue
        acc["self_sum"] += self_time
        attrs = s["attrs"] or {}
        for key, value in attrs.items():
            acc[f"{name}:{key}"] += value
        parent = by_id[s["parent"]]["name"]
        if name == "dgps.replicate_batch" and parent == "selection.simulate_replications":
            acc["pilot_reps"] += attrs["reps"]
        if name == "dgps.draw" and {"threads.batch", "misspec.measure_bias"} <= {
            a["name"] for a in ancestors(s)
        }:
            acc["perturbed_pool_rows"] += attrs["rows"]
        if name == "threads.batch":
            batch_durations[(s["op"], s["parent"])].append(dur)

    for (op, _), durations in batch_durations.items():
        ratio = max(durations) / statistics.median(durations)
        per_op[op]["batch_max_over_median"] = max(per_op[op]["batch_max_over_median"], ratio)

    def metric(fn) -> float:
        return _median(fn(acc, op_facts.get(op, {})) for op, acc in per_op.items())

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    return {
        "io.load_dataset_s": metric(lambda a, f: a["io.load_dataset:total"]),
        "io.load_dataset_mb_per_s": metric(lambda a, f: ratio(csv_mb, a["io.load_dataset:total"])),
        "rct.residualized_estimator_calls": metric(lambda a, f: a["rct.residualized_estimator:calls"]),
        "rct.residualized_estimator_self_s": metric(lambda a, f: a["rct.residualized_estimator:self"]),
        "rct.short_estimator_s": metric(lambda a, f: a["rct.short_estimator:total"]),
        "rct.balance_stats_s": metric(lambda a, f: a["rct.balance_stats:total"]),
        "rct.long_regression_s": metric(lambda a, f: a["rct.long_regression:total"]),
        "rct.long_regression_share": metric(
            lambda a, f: ratio(a["rct.long_regression:total"], a["op:total"])
        ),
        "covariance.joint_covariance_s": metric(lambda a, f: a["covariance.joint_covariance:total"]),
        "covariance.joint_covariance_calls": metric(lambda a, f: a["covariance.joint_covariance:calls"]),
        "covariance.contrib_mb_computed": metric(
            lambda a, f: a["covariance.joint_covariance:bytes"] / 1e6
        ),
        "core.joint_covariance_validate_s": metric(lambda a, f: a["core.joint_covariance_validate:total"]),
        "core.joint_covariance_validate_calls": metric(
            lambda a, f: a["core.joint_covariance_validate:calls"]
        ),
        "core.diagnostics_s": metric(lambda a, f: a["core.diagnostics:total"]),
        "core.orthogonality_stat_s": metric(lambda a, f: a["core.orthogonality_stat:total"]),
        "report.build_analyze_report_self_s": metric(lambda a, f: a["report.build_analyze_report:self"]),
        "report.run_simulate_self_s": metric(lambda a, f: a["report.run_simulate:self"]),
        "report.json_bytes_s": metric(lambda a, f: a["report.json_bytes:total"]),
        "dgps.replicate_batch_s": metric(lambda a, f: a["dgps.replicate_batch:total"]),
        "dgps.replicate_batch_calls": metric(lambda a, f: a["dgps.replicate_batch:calls"]),
        "dgps.reps_drawn": metric(lambda a, f: a["dgps.replicate_batch:reps"]),
        "dgps.draw_s": metric(lambda a, f: a["dgps.draw:total"]),
        "dgps.draw_rows": metric(lambda a, f: a["dgps.draw:rows"]),
        "dgps.draw_matrix_s": metric(lambda a, f: a["dgps.draw_matrix:total"]),
        "selection.simulate_replications_self_s": metric(
            lambda a, f: a["selection.simulate_replications:self"]
        ),
        "selection.summarize_s": metric(lambda a, f: a["selection.summarize:total"]),
        "selection.pilot_share": metric(
            lambda a, f: ratio(a["pilot_reps"], a["dgps.replicate_batch:reps"])
        ),
        "selection.pass_rate": metric(lambda a, f: f.get("pass_rate", 0.0)),
        "misspec.worst_case_score_s": metric(lambda a, f: a["misspec.worst_case_score:total"]),
        "misspec.check_weight_bound_s": metric(lambda a, f: a["misspec.check_weight_bound:total"]),
        "misspec.measure_bias_self_s": metric(lambda a, f: a["misspec.measure_bias:self"]),
        "misspec.estimate_s": metric(lambda a, f: a["misspec.estimate:total"]),
        "misspec.rows_drawn_per_row_used": metric(
            lambda a, f: ratio(a["perturbed_pool_rows"], f.get("rows_used", 0))
        ),
        "threads.map_batches_s": metric(lambda a, f: a["threads.map_batches:total"]),
        "threads.batches": metric(lambda a, f: a["threads.batch:calls"]),
        "threads.batch_max_over_median": metric(lambda a, f: a["batch_max_over_median"]),
        "trace.op_p50_s": metric(lambda a, f: a["op:total"]),
        "trace.self_sum_p50_s": metric(lambda a, f: a["self_sum"]),
    }


def parse_importtime(stderr: str) -> dict:
    """Import cost of residcheck.cli and of numpy and scipy within it, in seconds.

    ``-X importtime`` prints one line per module after it finishes, children
    first, indented two spaces per nesting level. The cost of a package is
    the cumulative time of its outermost entries, so a scipy import nested
    in residcheck counts toward scipy, and numpy pulled in by scipy
    counts toward scipy as well.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative_us, name_field = line[len("import time:"):].split("|", 2)
        cumulative_us = cumulative_us.strip()
        if not cumulative_us.isdigit():
            continue
        name = name_field[1:]
        level = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((level, name.strip(), int(cumulative_us)))

    def outermost_us(prefix: str) -> int:
        total, chain = 0, []
        for level, name, cumulative in reversed(entries):
            del chain[level:]
            matches = name == prefix or name.startswith(prefix + ".")
            if matches and not any(a == prefix or a.startswith(prefix + ".") for a in chain):
                total += cumulative
            chain.append(name)
        return total

    return {
        "cli.import_s": outermost_us("residcheck") / 1e6,
        "cli.import_scipy_s": outermost_us("scipy") / 1e6,
        "cli.import_numpy_s": outermost_us("numpy") / 1e6,
    }

