"""The labs' draw pool: its map, default size, per-worker scratch, and bytes at any size."""

import sys
import threading
import time

import numpy as np
import pytest

from residcheck import _threads
from residcheck._threads import _N_BATCHES, batch_sizes, default_workers, map_batches, run_seeded
from residcheck.dgps import GaussianPairDGP, perturbed_scratch
from residcheck.io import GaussianDgpSpec, RctDgpSpec, RuleSpec, ScoreSpec, SimulateConfig
from residcheck.report import json_bytes, run_simulate

PAIR = GaussianPairDGP.from_rho(0.5)


def batch_values(rep_values: int, reps: int) -> int:
    """Random values that the largest batch of a run of reps draws."""
    return rep_values * batch_sizes(reps, _N_BATCHES)[0]


class Boom(Exception):
    pass


class TestMapBatches:
    """The calling thread and w - 1 helpers drain the batches; none outlives the call."""

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_results_in_index_order(self, workers):
        def uneven(i):
            time.sleep(0.001 * ((7 * i) % 5))
            return i * i

        assert map_batches(uneven, 20, workers) == [i * i for i in range(20)]

    def test_each_index_runs_once_under_stress(self):
        # More workers than cores, switching threads as often as the interpreter allows.
        calls, lock = [], threading.Lock()

        def fn(i):
            time.sleep(0)  # lets another loop run
            with lock:
                calls.append(i)
            return -i

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [map_batches(fn, 2000, 16) for _ in range(5)]
        finally:
            sys.setswitchinterval(switch)
        assert got == [[-i for i in range(2000)]] * 5
        assert sorted(calls) == sorted(list(range(2000)) * 5)

    def test_calling_thread_draws(self):
        seen = []

        def record(i):
            seen.append(threading.get_ident())
            time.sleep(0.005)
            return i

        assert map_batches(record, 10, 2) == list(range(10))
        assert threading.get_ident() in seen and len(set(seen)) <= 2

    @pytest.mark.parametrize("raiser", ["helper", "caller"])
    def test_error_propagates_and_no_thread_outlives_it(self, raiser):
        caller, helper_entered = threading.get_ident(), threading.Event()
        before = threading.active_count()

        def fn(i):
            in_caller = threading.get_ident() == caller
            if not in_caller:
                helper_entered.set()
            if in_caller == (raiser == "caller"):
                raise Boom(i)
            if in_caller:
                assert helper_entered.wait(5)  # the helper raises meanwhile
            time.sleep(0.005)
            return i

        with pytest.raises(Boom):
            map_batches(fn, 20, 2)
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_no_batch_starts_after_a_failure(self, workers):
        # Batch 0 raises at once, while every other batch takes 20 ms: each other loop
        # finishes the one batch it may hold, and none takes another.
        started = []

        def fn(i):
            started.append(i)
            if i == 0:
                raise Boom(i)
            time.sleep(0.02)
            return i

        with pytest.raises(Boom):
            map_batches(fn, 50, workers)
        assert 0 in started and len(started) <= workers

    @pytest.mark.parametrize("n_batches, workers, helpers", [
        (0, 8, None), (1, 8, None), (1, 1, None), (5, 1, None), (3, 8, 2), (20, 4, 3),
    ])
    def test_pool_holds_the_helpers_only(self, monkeypatch, n_batches, workers, helpers):
        made, pool = [], _threads.ThreadPoolExecutor

        def recording(max_workers):
            made.append(max_workers)
            return pool(max_workers)

        monkeypatch.setattr(_threads, "ThreadPoolExecutor", recording)
        assert map_batches(lambda i: -i, n_batches, workers) == [-i for i in range(n_batches)]
        assert made == ([] if helpers is None else [helpers])


class TestDefaultWorkers:
    """The default pool size is a function of cores, batches and values per batch alone."""

    @pytest.mark.parametrize("cores, want", [(1, 1), (2, 2), (64, 9)])
    def test_bench_misspec_stage(self, cores, want):
        # n = 2,000 and 1,000 reps: one stage of 50 batches, each 20 x 4,003 values.
        values = batch_values(PAIR.perturbed_values(2000), 1000)
        assert values == 80_060
        assert default_workers(cores, 50, values) == want

    @pytest.mark.parametrize("cores", [1, 2, 64])
    @pytest.mark.parametrize("n", [200, 300, 400, 500, 1000])
    def test_smaller_misspec_batches_stay_on_one_worker(self, cores, n):
        # Batches under 16,384 values: 20 x (2n + 3) at 1,000 reps up to n = 400 (two workers
        # were faster in only 14 of 36 in-process pairs at n = 200), and at n = 500 and
        # 1,000 the largest batches that stay under, at 800 and 400 reps (16 x 1,003 and
        # 8 x 2,003 values).
        values = batch_values(PAIR.perturbed_values(n), {500: 800, 1000: 400}.get(n, 1000))
        assert values < 16_384
        assert default_workers(cores, 50, values) == 1

    @pytest.mark.parametrize("cores", [1, 2, 64])
    @pytest.mark.parametrize("n, want", [(410, 2), (500, 2), (1000, 4)])
    def test_misspec_batches_from_16_384_values_share_the_cores(self, cores, n, want):
        # Two workers were faster in 29 of 36 pairs at n = 500 (20,060 values per batch)
        # and in 36 of 36 at n = 1,000.
        assert default_workers(cores, 50, batch_values(PAIR.perturbed_values(n), 1000)) == min(
            cores, want
        )

    def test_pool_scratch_is_bounded_at_criterion_6_size(self):
        # n = 10,000 and 10,000 reps: 200 replications per batch, 25 MB of scratch per
        # worker, so one worker per batch at 64 cores would hold 50 x 25 MB.
        n, largest = 10_000, batch_sizes(10_000, _N_BATCHES)[0]
        scratch = perturbed_scratch(n, largest).nbytes
        assert scratch == 3 * 104 * n * 8
        workers = default_workers(64, _N_BATCHES, PAIR.perturbed_values(n) * largest)
        assert 1 < workers and workers * scratch <= 64 << 20

    def test_every_argument_caps_the_pool(self):
        assert default_workers(3, 50, 10**6) == 3
        assert default_workers(64, 2, 10**6) == 2
        assert default_workers(64, 50, 0) == 1
        assert default_workers(64, 50, 10**9) == 1


class TestStageWorkers:
    """run_seeded sizes each stage's pool; a set RESID_THREADS keeps its meaning."""

    @pytest.fixture
    def stages(self, monkeypatch):
        """(batches, workers) of every stage run, at 64 usable cores."""
        monkeypatch.setattr(_threads, "usable_cores", lambda: 64)
        monkeypatch.delenv("RESID_THREADS", raising=False)
        run_stage, seen = _threads.run_stage, []

        def recording(draw, estimate, batches, sizes, workers):
            seen.append((len(batches), workers))
            return run_stage(draw, estimate, batches, sizes, workers)

        monkeypatch.setattr(_threads, "run_stage", recording)
        return seen

    @staticmethod
    def run(rep_values=None, gate_reps=0):
        gate = (lambda head: None) if gate_reps else None
        values = {} if rep_values is None else {"rep_values": rep_values}
        return run_seeded(
            5, 1000, lambda rng, size: rng.random(size), lambda x: x, gate, gate_reps, **values
        )

    def test_default_per_stage(self, stages):
        self.run(4003)
        self.run(4003, gate_reps=100)  # a head stage of 5 batches
        self.run(403)
        self.run()  # no values given: one worker
        assert stages == [(50, 9), (5, 5), (45, 9), (50, 1), (50, 1)]

    @pytest.mark.parametrize("dgp", [
        # The selection_rct benchmark workload: p = 3, n = 2,000, 2,000 reps.
        RctDgpSpec(beta=(0.5, -0.25, 0.1), interaction=(0.4, 0.0, -0.2), pi=0.4),
        # At p = 5 a batch of its 10^5 reps would draw 2,000 x 71 values.
        RctDgpSpec(beta=(0.5, -0.25, 0.1, 0.3, -0.2), interaction=(0.4, 0.0, -0.2, 0.1, 0.0),
                   pi=0.4),
        GaussianDgpSpec(rho=0.5),
    ], ids=["rct-p3", "rct-p5", "gaussian"])
    def test_selection_lab_draws_on_one_worker(self, stages, dgp):
        # Its draws hold the interpreter lock too long per value for a second worker to pay.
        rule = RuleSpec(kind="wald", threshold=7.815) if isinstance(dgp, RctDgpSpec) else RuleSpec()
        run_simulate(SimulateConfig(lab="selection", n=2000, reps=2000, seed=3, dgp=dgp,
                                    rule=rule))
        assert stages == [(25, 1), (25, 1)]  # the pass-rate gate's head stage, then the rest

    def test_set_count_is_kept(self, stages, monkeypatch):
        monkeypatch.setenv("RESID_THREADS", "8")
        self.run(403)
        monkeypatch.setenv("RESID_THREADS", "3")
        self.run(4003)
        monkeypatch.setenv("RESID_THREADS", "0")
        self.run(4003)
        assert stages == [(50, 8), (50, 3), (50, 1)]


def test_default_bytes_equal_one_worker(monkeypatch):
    # simulate output with RESID_THREADS unset, on a pool of four workers (20 x 4,003
    # values per batch at 4 patched cores), equals its output at RESID_THREADS=1.
    config = SimulateConfig(lab="misspec", n=2000, reps=1000, seed=9,
                            dgp=GaussianDgpSpec(rho=0.5), score=ScoreSpec(lam="optimal", mu=1.0))
    monkeypatch.setattr(_threads, "usable_cores", lambda: 4)
    monkeypatch.delenv("RESID_THREADS", raising=False)
    default = json_bytes(run_simulate(config))
    monkeypatch.setenv("RESID_THREADS", "1")
    assert json_bytes(run_simulate(config)) == default


class TestScratch:
    """Each worker's batches draw into one scratch set, made in the calling thread."""

    def test_sets_are_never_shared(self, monkeypatch):
        # More workers than cores, switching threads as often as the interpreter allows.
        made, held, lock = [], set(), threading.Lock()

        def make(size):
            made.append((threading.get_ident(), size))
            return np.empty(1)

        def draw(rng, size, buffers):
            with lock:
                assert id(buffers) not in held
                held.add(id(buffers))
            values = rng.random(50_000)
            with lock:
                held.remove(id(buffers))
            return np.full(size, values[0])

        monkeypatch.setenv("RESID_THREADS", "16")
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            drawn = run_seeded(3, 1003, draw, lambda x: x, rep_values=1, scratch=make)
        finally:
            sys.setswitchinterval(switch)
        assert drawn.shape == (1003,) and not held
        # 16 sets for 16 workers, each for the largest batch, all made in this thread.
        assert made == [(threading.get_ident(), 21)] * 16

    def test_one_set_per_run_across_stages(self, monkeypatch):
        made = []
        monkeypatch.setenv("RESID_THREADS", "4")
        run_seeded(
            3, 1003, lambda rng, size, buffers: rng.random(size), lambda x: x,
            lambda head: None, 100, rep_values=1, scratch=made.append,
        )
        # The head stage's 5 batches take 4 workers, the rest reuse them.
        assert made == [21] * 4
