"""Deterministic batch parallelism for the labs' draws: one seeded batch frame.

Every lab splits its replications into _N_BATCHES contiguous batches
(:func:`run_seeded`), which also give its Monte Carlo standard errors. Batch
b draws from the b-th stream spawned from the seed, so its random numbers
depend on the seed and b alone. A stage draws each of its batches, possibly
on several workers, joins the draws in batch order and estimates once over
the joined stack (:func:`run_stage`), or once per stack of at most
_STACK_REPS replications in a larger stage. A run is one stage, or two when
a head gate reads the first batches before the rest are drawn. Every step
of an estimate is elementwise over the replication axis, so output is
byte-identical at any worker count and any stack length.

The workers run the draws only, and the calling thread is one of them:
with w workers it drains the stage's batches beside w - 1 pooled helpers
(:func:`map_batches`). :func:`run_seeded` decides w once per stage and
passes it down: a set RESID_THREADS environment variable, the one worker
setting, fixes w at that many (at most one per batch). Otherwise a lab that
gives the random values one replication draws has each stage's w set by
:func:`default_workers`, from the usable cores, the stage's batches and the
values one batch draws; a lab that gives none, as the selection labs do,
draws on one worker. Draws that need scratch memory get one set per worker,
the calling thread's included, made once per run in the calling thread and
reused by every batch.
"""

from __future__ import annotations

import dataclasses
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import ConfigError

T = TypeVar("T")
R = TypeVar("R")
S = TypeVar("S")


def _env_threads() -> int | None:
    """RESID_THREADS as a worker count of at least one, or None when it is unset."""
    raw = os.environ.get("RESID_THREADS")
    if raw is None:
        return None
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"RESID_THREADS must be an integer, got {raw!r}") from None


def usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def resolve_threads() -> int:
    """The most workers a stage may use: RESID_THREADS, else the usable cores."""
    count = _env_threads()
    return usable_cores() if count is None else count


# A worker beyond the first pays off only when a batch draws this many random
# values per worker: drawing them runs outside the interpreter lock, and must
# outweigh the steps of a batch that hold it. The selection labs' draws hold
# the lock longer per value, so they give no values and stay on one worker.
# The timings behind the rule (one and two workers only) are in CHANGES.md.
_WORKER_VALUES = 8_192
# The batches being drawn at once hold at most this many values (64 MiB of
# doubles) when the pool has more than one worker, so memory does not grow
# with the core count.
_POOL_VALUES = 1 << 23


def default_workers(cores: int, batches: int, batch_values: int) -> int:
    """Workers of a stage's draw pool when no count is set.

    One per _WORKER_VALUES random values that one batch draws, at most one per
    core and per batch, and no more than keep _POOL_VALUES values in flight;
    at least one.
    """
    return max(1, min(
        cores, batches, batch_values // _WORKER_VALUES, _POOL_VALUES // max(1, batch_values)
    ))


def batch_sizes(total: int, n_batches: int) -> list[int]:
    """Split total into n_batches contiguous sizes differing by at most one."""
    n_batches = min(n_batches, total)
    base, extra = divmod(total, n_batches)
    return [base + (1 if i < extra else 0) for i in range(n_batches)]


def map_batches(fn: Callable[[int], T], n_batches: int, workers: int) -> list[T]:
    """Apply fn to batch indices 0..n_batches-1, results in index order.

    On w = min(workers, n_batches) workers: the calling thread and w - 1
    helpers, each a loop that takes the next index under one lock and
    stores fn's result at it. Once a batch raises, no loop takes
    a new index; every helper has stopped before this returns or raises, and
    the error raised is the one met first.
    """
    workers = min(workers, n_batches)
    if workers <= 1:
        return [fn(i) for i in range(n_batches)]
    results: list = [None] * n_batches
    lock = threading.Lock()
    taken, failure = 0, None

    def loop() -> None:
        nonlocal taken, failure
        while True:
            with lock:
                i = taken
                if i == n_batches or failure is not None:
                    return
                taken += 1
            try:
                results[i] = fn(i)
            except BaseException as exc:  # stops every loop, then raised in the caller
                with lock:
                    if failure is None:
                        failure = exc
                return

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helpers = [pool.submit(loop) for _ in range(workers - 1)]
        loop()
    for helper in helpers:
        helper.result()
    if failure is not None:
        raise failure
    return results


# A stage estimates at most this many replications at once, unless one batch
# holds more: the stacked draws and their temporaries take a few kilobytes
# per replication at p = 3, so memory stays bounded at large reps, while the
# per-call cost of an estimate is already small next to its work.
_STACK_REPS = 4096


def join(parts: Sequence):
    """Per-batch records joined along the replication axis (axis 0), in order.

    Arrays are concatenated, tuples and dataclass records joined entry by
    entry; any other entry (None, or a scalar that every batch shares) is
    taken from the first part. A single part is returned as it is.
    """
    first = parts[0]
    if len(parts) == 1:
        return first
    if isinstance(first, np.ndarray):
        return np.concatenate(parts)
    if isinstance(first, tuple):
        return tuple(join(entries) for entries in zip(*parts))
    if dataclasses.is_dataclass(first):
        return dataclasses.replace(first, **{
            f.name: join([getattr(part, f.name) for part in parts])
            for f in dataclasses.fields(first) if f.init
        })
    return first


def _stacks(batches: Sequence[int], sizes: Sequence[int]) -> list[list[int]]:
    """The batches in consecutive runs of at most _STACK_REPS replications, or of one batch."""
    stacks, total = [], 0
    for b in batches:
        if not stacks or total + sizes[b] > _STACK_REPS:
            stacks.append([])
            total = 0
        stacks[-1].append(b)
        total += sizes[b]
    return stacks


def _estimate_stack(draw, estimate, stack: list[int], workers: int):
    """estimate of the joined draws of one stack of batches (:func:`run_stage`)."""
    try:
        # The per-batch parts are freed once joined, before the estimate runs.
        return estimate(join(map_batches(lambda i: draw(stack[i]), len(stack), workers)))
    except Exception as exc:  # any error: replayed, then raised
        failure = exc
    for b in stack:
        estimate(draw(b))
    raise failure


def run_stage(
    draw: Callable[[int], T],
    estimate: Callable[[T], R],
    batches: Sequence[int],
    sizes: Sequence[int],
    workers: int,
) -> R:
    """estimate of the joined draws of the batches: draws on ``workers`` workers, few estimates.

    ``draw(b)`` makes the draws of batch b, of ``sizes[b]`` replications,
    from its own stream; ``estimate`` maps draws to results elementwise over
    the replication axis, so each replication has the bits its batch alone
    gives it. The batches are estimated in consecutive stacks of at most
    _STACK_REPS replications (one stack at the labs' usual sizes), and the
    results joined. A stacked gate raises for its first failing member, which
    need not be the error that running the batches in order, each drawn and
    then estimated, meets first. So on any error the stack is replayed that
    way, and raises what the first failing batch raises; only if no batch
    fails alone does the stack's own error propagate.
    """
    return join([
        _estimate_stack(draw, estimate, stack, workers) for stack in _stacks(batches, sizes)
    ])


# Seeded batches of every lab's replications, which also give its Monte Carlo SEs.
_N_BATCHES = 50


def run_seeded(
    seed: int,
    reps: int,
    draw: Callable[..., T],
    estimate: Callable[[T], R],
    gate: Callable[[R], None] | None = None,
    gate_reps: int = 0,
    *,
    rep_values: int = 0,
    scratch: Callable[[int], S] | None = None,
) -> R:
    """estimate of reps replications, drawn in _N_BATCHES seeded batches.

    Batch b holds ``batch_sizes(reps, _N_BATCHES)[b]`` replications, drawn
    by ``draw(default_rng(child), size)`` with child the b-th child of
    SeedSequence(seed). Without a gate the batches are one stage
    (:func:`run_stage`). With one, the head batches, the fewest from the
    start that hold at least gate_reps replications, are a first stage whose
    result goes to ``gate`` before any other batch is drawn; gate raises to
    stop the run, and otherwise the head is joined with the rest. Each
    stage's pool has RESID_THREADS workers, else :func:`default_workers`
    for its batches, each drawing about ``rep_values`` random values per
    replication; at the default 0, one.

    With ``scratch``, a batch is drawn by ``draw(rng, size, buffers)``:
    ``scratch(size)``, at the largest batch's size, makes one set of buffers
    per worker, in this thread and once per run, and each batch borrows a
    set no other batch holds meanwhile. Freed, the sets stay in this
    thread's heap for the next run, not in a worker's.
    """
    sizes = batch_sizes(reps, _N_BATCHES)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    count = _env_threads()  # a bad RESID_THREADS fails before any draw
    made, free = 0, queue.SimpleQueue()

    def draw_batch(b: int) -> T:
        rng = np.random.default_rng(children[b])
        if scratch is None:
            return draw(rng, sizes[b])
        buffers = free.get_nowait()  # as many sets as workers
        try:
            return draw(rng, sizes[b], buffers)
        finally:
            free.put(buffers)

    def stage(batches: range) -> R:
        nonlocal made
        workers = count if count is not None else default_workers(
            usable_cores(), len(batches), rep_values * sizes[0]
        )
        while scratch is not None and made < min(workers, len(batches)):
            free.put(scratch(sizes[0]))
            made += 1
        return run_stage(draw_batch, estimate, batches, sizes, workers)

    if gate is None:
        return stage(range(len(sizes)))
    head = int(np.searchsorted(np.cumsum(sizes), gate_reps)) + 1
    stages = [stage(range(head))]
    gate(stages[0])
    if head < len(sizes):
        stages.append(stage(range(head, len(sizes))))
    return join(stages)
