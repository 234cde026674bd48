"""The labs' draw pool: its map, default size, per-worker scratch, and bytes at any size."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from residcheck import _threads, misspec
from residcheck._threads import (
    _N_BATCHES, _POOL_BYTES, _WORKER_BYTES, batch_sizes, default_workers, map_batches,
    resolve_threads, run_seeded,
)
from residcheck.dgps import GaussianPairDGP, perturbed_scratch
from residcheck.io import GaussianDgpSpec, RctDgpSpec, RuleSpec, ScoreSpec, SimulateConfig
from residcheck.report import json_bytes, run_simulate


def scratch_bytes(n: int, reps: int) -> int:
    """Bytes of one worker's misspec scratch set in a run of reps at n."""
    return perturbed_scratch(n, batch_sizes(reps, _N_BATCHES)[0]).nbytes


class Boom(Exception):
    pass


class TestMapBatches:
    """The calling thread and w - 1 helpers drain the batches; none outlives the call."""

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_results_in_index_order(self, workers):
        def uneven(i, slot):
            time.sleep(0.001 * ((7 * i) % 5))
            return i * i

        assert map_batches(uneven, 20, workers) == [i * i for i in range(20)]

    def test_each_index_runs_once_under_stress(self):
        # More workers than cores, switching threads as often as the interpreter allows.
        calls, lock = [], threading.Lock()

        def fn(i, slot):
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

        def record(i, slot):
            seen.append(threading.get_ident())
            time.sleep(0.005)
            return i

        assert map_batches(record, 10, 2) == list(range(10))
        assert threading.get_ident() in seen and len(set(seen)) <= 2

    @pytest.mark.parametrize("raiser", ["helper", "caller"])
    def test_error_propagates_and_no_thread_outlives_it(self, raiser):
        caller, helper_entered = threading.get_ident(), threading.Event()
        before = threading.active_count()

        def fn(i, slot):
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

        def fn(i, slot):
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
        made = []

        class Recording(threading.Thread):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(threading, "Thread", Recording)
        assert map_batches(lambda i, slot: -i, n_batches, workers) == [
            -i for i in range(n_batches)
        ]
        assert len(made) == (0 if helpers is None else helpers)


class TestDefaultWorkers:
    """The default pool size is a function of cores, batches and scratch bytes per worker alone."""

    @pytest.mark.parametrize("cores, want", [(1, 1), (2, 2), (64, 9)])
    def test_bench_misspec_stage(self, cores, want):
        # n = 2,000 and 1,000 reps: one stack of 50 batches, each a 3 x 20 x 2,000 scratch set.
        scratch = scratch_bytes(2000, 1000)
        assert scratch == 960_000
        assert default_workers(cores, 50, scratch) == want

    @pytest.mark.parametrize("cores", [1, 2, 64])
    @pytest.mark.parametrize("n", [200, 300, 400, 500, 1000])
    def test_smaller_misspec_batches_stay_on_one_worker(self, cores, n):
        # Sets under 2 x 98,304 bytes: 24 x 20 x n at 1,000 reps up to n = 400 (two workers
        # were faster in only 14 of 36 in-process pairs at n = 200), and at n = 500 and
        # 1,000 the largest batches that stay under, at 800 and 400 reps (24 x 16 x 500 and
        # 24 x 8 x 1,000 bytes).
        scratch = scratch_bytes(n, {500: 800, 1000: 400}.get(n, 1000))
        assert scratch < 2 * _WORKER_BYTES
        assert default_workers(cores, 50, scratch) == 1

    @pytest.mark.parametrize("cores", [1, 2, 64])
    @pytest.mark.parametrize("n, want", [(410, 2), (500, 2), (1000, 4)])
    def test_misspec_batches_from_16_384_values_share_the_cores(self, cores, n, want):
        # Two workers were faster in 29 of 36 pairs at n = 500 (240,000 bytes per set)
        # and in 36 of 36 at n = 1,000.
        assert default_workers(cores, 50, scratch_bytes(n, 1000)) == min(cores, want)

    def test_pool_scratch_is_bounded_at_criterion_6_size(self):
        # n = 10,000 and 10,000 reps: 200 replications per batch, 25 MB of scratch per
        # worker, so one worker per batch at 64 cores would hold 50 x 25 MB.
        scratch = scratch_bytes(10_000, 10_000)
        assert scratch == 3 * 104 * 10_000 * 8
        workers = default_workers(64, _N_BATCHES, scratch)
        assert 1 < workers and workers * scratch <= 64 << 20

    def test_every_argument_caps_the_pool(self):
        assert default_workers(3, 50, 10**6) == 3
        assert default_workers(64, 2, 10**6) == 2
        assert default_workers(64, 50, 0) == 1
        assert default_workers(64, 50, 10**9) == 1

    @pytest.mark.parametrize("cores", [1, 2, 4, 64])
    def test_a_set_of_no_bytes_gets_one_worker(self, cores):
        # The selection labs' sets hold no bytes, at any stack length.
        assert [default_workers(cores, b, 0) for b in range(1, 51)] == [1] * 50


def test_misspec_pool_over_a_grid_of_runs(monkeypatch):
    # measure_gaussian_bias with no draws: each scratch set is a zero-strided stand-in with
    # perturbed_scratch's shape, and each stack only records its workers.
    sets, stacks = [], []

    def stand_in(n, size):
        with monkeypatch.context() as patch:
            patch.setattr(np, "empty", lambda shape: np.broadcast_to(0.0, shape))
            sets.append(perturbed_scratch(n, size))
        return sets[-1]

    def record(draw, estimate, stack, workers):
        stacks.append((len(stack), workers))
        return np.zeros(len(stack))

    monkeypatch.setattr(misspec, "perturbed_scratch", stand_in)
    monkeypatch.setattr(_threads, "_estimate_stack", record)
    failures = []
    for p in (1, 2, 3):
        dgp = GaussianPairDGP(sigma_c_gamma=np.full(p, 0.3), sigma_gamma_gamma=np.eye(p))
        for n in (50, 400, 410, 2_000, 3_000, 5_000, 10_000, 50_000, 200_000):
            for reps in (1_000, 1_003, 4_000, 10_000, 100_000):
                if n * reps > misspec.MAX_TOTAL_DRAWS:
                    continue
                for cores in (2, 4, 64):
                    monkeypatch.setattr(_threads, "resolve_threads", lambda: cores)
                    sets.clear()
                    stacks.clear()
                    misspec.measure_gaussian_bias(dgp, "optimal", 0.0, n, reps, 1)
                    one, held = sets[0].nbytes, sum(s.nbytes for s in sets)
                    if held > max(_POOL_BYTES, one):
                        failures.append((p, n, reps, cores, f"holds {held} bytes"))
                    if 2 * _WORKER_BYTES <= one <= _POOL_BYTES // 2 and any(
                        batches > 1 and workers < 2 for batches, workers in stacks
                    ):
                        failures.append((p, n, reps, cores, f"one worker at {one} bytes"))
    assert not failures


class TestStageWorkers:
    """run_seeded sizes each stack's pool from the cores, its batches and its scratch bytes."""

    @pytest.fixture
    def stages(self, monkeypatch):
        """(batches, workers) of every stack run, at 64 usable cores."""
        monkeypatch.setattr(_threads, "resolve_threads", lambda: 64)
        estimate_stack, seen = _threads._estimate_stack, []

        def recording(draw, estimate, stack, workers):
            seen.append((len(stack), workers))
            return estimate_stack(draw, estimate, stack, workers)

        monkeypatch.setattr(_threads, "_estimate_stack", recording)
        return seen

    @staticmethod
    def run(n=None, gate_reps=0):
        """1,000 reps, with the misspec scratch sets at n, or sets of no bytes if n is None."""
        gate = (lambda head: None) if gate_reps else None
        return run_seeded(
            5, 1000, lambda rng, size, buffers: rng.random(size), lambda x: x, gate, gate_reps,
            scratch=lambda size: np.empty(0) if n is None else perturbed_scratch(n, size),
        )

    def test_default_per_stage(self, stages):
        self.run(2000)
        self.run(2000, gate_reps=100)  # a head stack of 5 batches
        self.run(200)
        self.run()  # sets of no bytes: one worker
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
        assert stages == [(25, 1), (25, 1)]  # the pass-rate gate's head stack, then the rest

    @pytest.mark.parametrize("cores", [1, 4])
    def test_the_affinity_mask_caps_the_pool(self, stages, monkeypatch, cores):
        # The bench-sized misspec run takes one worker per core in the mask; the
        # selection lab's sets of no bytes keep it on one.
        monkeypatch.setattr(_threads, "resolve_threads", resolve_threads)  # not 64 cores
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        run_simulate(SimulateConfig(lab="misspec", n=2000, reps=1000, seed=7,
                                    dgp=GaussianDgpSpec(rho=0.5),
                                    score=ScoreSpec(lam="optimal", mu=1.0)))
        assert stages == [(50, cores)]
        stages.clear()
        run_simulate(SimulateConfig(lab="selection", n=400, reps=2000, seed=11,
                                    dgp=GaussianDgpSpec(rho=0.5)))
        assert stages == [(25, 1), (25, 1)]


def test_default_bytes_equal_one_worker(monkeypatch, workers):
    # simulate output at the derived count, on a pool of four workers (960,000 bytes of
    # scratch per worker at 4 patched cores), equals its output on one forced worker.
    config = SimulateConfig(lab="misspec", n=2000, reps=1000, seed=9,
                            dgp=GaussianDgpSpec(rho=0.5), score=ScoreSpec(lam="optimal", mu=1.0))
    monkeypatch.setattr(_threads, "resolve_threads", lambda: 4)
    default = json_bytes(run_simulate(config))
    workers(1)
    assert json_bytes(run_simulate(config)) == default


class TestScratch:
    """Each worker's batches draw into one scratch set, made in the calling thread."""

    def test_sets_are_never_shared(self, workers):
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

        workers(16)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            drawn = run_seeded(3, 1003, draw, lambda x: x, scratch=make)
        finally:
            sys.setswitchinterval(switch)
        assert drawn.shape == (1003,) and not held
        # 16 sets for 16 workers, each for the largest batch, all made in this thread.
        assert made == [(threading.get_ident(), 21)] * 16

    def test_one_set_per_run_across_stages(self, workers):
        made = []
        workers(4)
        run_seeded(
            3, 1003, lambda rng, size, buffers: rng.random(size), lambda x: x,
            lambda head: None, 100, scratch=lambda size: made.append(size) or np.empty(0),
        )
        # The head stack's 5 batches take 4 workers, the rest reuse them.
        assert made == [21] * 4


class TestHeadGate:
    """The gate reads the whole head once, before any later batch, when it spans stacks too."""

    SEED, REPS, HEAD = 5, 2050, 25  # 50 batches of 41; the first 25 hold 1,025 >= 1,000

    def run(self, monkeypatch, workers, threads, gate, drawn):
        """run_seeded at two batches per stack; drawn gets each batch's first value as drawn.

        ``gate(head, drawn_then)`` sees the head and the values drawn until then.
        """
        monkeypatch.setattr(_threads, "_STACK_REPS", 100)
        workers(threads)
        lock = threading.Lock()

        def draw(rng, size, _):
            values = rng.random(size)
            with lock:
                drawn.append(values[0])
            return values

        return run_seeded(
            self.SEED, self.REPS, draw, lambda x: x, lambda head: gate(head, list(drawn)), 1000,
            scratch=lambda size: np.empty(0),
        )

    def head_firsts(self):
        children = np.random.SeedSequence(self.SEED).spawn(_N_BATCHES)
        batches = [np.random.default_rng(child).random(41) for child in children]
        return batches, sorted(batch[0] for batch in batches[: self.HEAD])

    @pytest.mark.parametrize("threads", [1, 4])
    def test_gate_reads_the_head_once(self, monkeypatch, workers, threads):
        gated = []
        result = self.run(
            monkeypatch, workers, threads, lambda head, drawn: gated.append((head, drawn)), []
        )
        batches, head_firsts = self.head_firsts()
        assert len(gated) == 1
        head, drawn = gated[0]
        assert np.array_equal(head, np.concatenate(batches[: self.HEAD]))  # in batch order
        assert sorted(drawn) == head_firsts
        assert np.array_equal(result, np.concatenate(batches))

    @pytest.mark.parametrize("threads", [1, 4])
    def test_raising_gate_stops_the_run(self, monkeypatch, workers, threads):
        def gate(head, drawn_then):
            raise Boom(head.size)

        drawn = []
        with pytest.raises(Boom, match="1025"):
            self.run(monkeypatch, workers, threads, gate, drawn)
        assert sorted(drawn) == self.head_firsts()[1]
