"""The labs' draw pool: its default size, per-worker scratch, and bytes at any size."""

import sys
import threading

import numpy as np
import pytest

from residcheck import _threads
from residcheck._threads import _N_BATCHES, batch_sizes, default_workers, run_seeded
from residcheck.dgps import GaussianPairDGP, perturbed_scratch
from residcheck.io import GaussianDgpSpec, RctDgpSpec, RuleSpec, ScoreSpec, SimulateConfig
from residcheck.report import json_bytes, run_simulate

PAIR = GaussianPairDGP.from_rho(0.5)


def batch_values(rep_values: int, reps: int) -> int:
    """Random values that the largest batch of a run of reps draws."""
    return rep_values * batch_sizes(reps, _N_BATCHES)[0]


class TestDefaultWorkers:
    """The default pool size is a function of cores, batches and values per batch alone."""

    @pytest.mark.parametrize("cores, want", [(1, 1), (2, 2), (64, 2)])
    def test_bench_misspec_stage(self, cores, want):
        # n = 2,000 and 1,000 reps: one stage of 50 batches, each 20 x 4,003 values.
        values = batch_values(PAIR.perturbed_values(2000), 1000)
        assert values == 80_060
        assert default_workers(cores, 50, values) == want

    @pytest.mark.parametrize("cores", [1, 2, 64])
    @pytest.mark.parametrize("n", [200, 500, 1000])
    def test_smaller_misspec_batches_stay_on_one_worker(self, cores, n):
        # 20 x (2n + 3) values per batch: two workers were slower at n = 200.
        assert default_workers(cores, 50, batch_values(PAIR.perturbed_values(n), 1000)) == 1

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
    """run_seeded sizes each stage's pool; a set count keeps its meaning."""

    @pytest.fixture
    def stages(self, monkeypatch):
        """(batches, workers) of every stage run, at 64 usable cores."""
        monkeypatch.setattr(_threads, "usable_cores", lambda: 64)
        monkeypatch.delenv("RESID_THREADS", raising=False)
        run_stage, seen = _threads.run_stage, []

        def recording(draw, estimate, batches, sizes, threads):
            seen.append((len(batches), threads))
            return run_stage(draw, estimate, batches, sizes, threads)

        monkeypatch.setattr(_threads, "run_stage", recording)
        return seen

    @staticmethod
    def run(rep_values=None, threads=None, gate_reps=0):
        gate = (lambda head: None) if gate_reps else None
        values = {} if rep_values is None else {"rep_values": rep_values}
        return run_seeded(
            5, 1000, lambda rng, size: rng.random(size), lambda x: x, threads, gate, gate_reps,
            **values,
        )

    def test_default_per_stage(self, stages):
        self.run(4003)
        self.run(4003, gate_reps=100)  # a head stage of 5 batches
        self.run(403)
        self.run()  # no values given: one worker
        assert stages == [(50, 2), (5, 2), (45, 2), (50, 1), (50, 1)]

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
        self.run(403, threads=8)
        monkeypatch.setenv("RESID_THREADS", "3")
        self.run(4003)
        self.run(4003, threads=0)
        assert stages == [(50, 8), (50, 3), (50, 1)]


def test_default_bytes_equal_one_worker(monkeypatch):
    # simulate output with RESID_THREADS unset, on a pool of two workers (20 x 4,003
    # values per batch), equals its output at RESID_THREADS=1.
    config = SimulateConfig(lab="misspec", n=2000, reps=1000, seed=9,
                            dgp=GaussianDgpSpec(rho=0.5), score=ScoreSpec(lam="optimal", mu=1.0))
    monkeypatch.setattr(_threads, "usable_cores", lambda: 4)
    monkeypatch.delenv("RESID_THREADS", raising=False)
    default = json_bytes(run_simulate(config))
    monkeypatch.setenv("RESID_THREADS", "1")
    assert json_bytes(run_simulate(config)) == default


class TestScratch:
    """Each worker's batches draw into one scratch set, made in the calling thread."""

    def test_sets_are_never_shared(self):
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

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            drawn = run_seeded(3, 1003, draw, lambda x: x, 16, rep_values=1, scratch=make)
        finally:
            sys.setswitchinterval(switch)
        assert drawn.shape == (1003,) and not held
        # 16 sets for 16 workers, each for the largest batch, all made in this thread.
        assert made == [(threading.get_ident(), 21)] * 16

    def test_one_set_per_run_across_stages(self):
        made = []
        run_seeded(
            3, 1003, lambda rng, size, buffers: rng.random(size), lambda x: x, 4,
            lambda head: None, 100, rep_values=1, scratch=made.append,
        )
        # The head stage's 5 batches take 4 workers, the rest reuse them.
        assert made == [21] * 4
