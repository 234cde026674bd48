"""The benchmark still runs on this package: every name it imports resolves and each op checks.

The benchmark under ``bench/`` is kept apart from the package and imports it
by name; a rename under ``src/`` would otherwise surface only as a failed
benchmark run. This test only reads ``bench/`` and ``BENCHMARK.json``.
"""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's workloads module, imported from bench/; sys.path is restored after."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    # worker imports workloads, spans and machine, and so every name bench/ takes from residcheck.
    return importlib.import_module("worker").workloads


@pytest.mark.parametrize("name", DECLARED)
def test_tiny_operation_is_repeatable_and_passes_its_check(workloads, name, tmp_path):
    spec = workloads.prepare(name, 7201, "tiny", tmp_path)
    op = workloads.operation(spec)
    payload, first = op()
    _, second = op()
    assert first == second
    assert workloads.check(spec, payload) == []


@pytest.mark.parametrize("name", DECLARED)
def test_tiny_operation_bytes_do_not_depend_on_the_worker_count(workloads, name, tmp_path,
                                                                monkeypatch):
    # The benchmark runs with RESID_THREADS unset; two workers take each stage's pool path.
    op = workloads.operation(workloads.prepare(name, 7202, "tiny", tmp_path))
    monkeypatch.delenv("RESID_THREADS", raising=False)
    _, default = op()
    monkeypatch.setenv("RESID_THREADS", "2")
    _, two = op()
    assert two == default
