"""Deterministic batch parallelism for the labs' draws: one seeded batch frame.

Every lab splits its replications into _N_BATCHES contiguous batches
(:func:`run_seeded`), which only seed the streams and split the work; the
Monte Carlo SEs are i.i.d. over the replications. Batch b draws from the
b-th stream spawned from the seed, so its random numbers depend on the seed
and b alone. A run is one loop over stacks of
consecutive batches, of at most _STACK_REPS replications each: a stack's
batches are drawn, possibly on several workers, joined in batch order and
estimated once. When a head gate reads the first batches, the head ends a
stack, and the gate runs before any later batch is drawn. Every step of an
estimate is elementwise over the replication axis, so output is
byte-identical at any worker count and any stack length.

The workers run the draws only, and the calling thread is one of them:
with w workers it drains the stack's batches beside w - 1 helper threads
(:func:`map_batches`). Nothing sets w: per stack, :func:`default_workers`
derives it from the cores in the process's affinity mask, the stack's
batches and the bytes of one worker's scratch set. Fewer workers come from a
narrower mask (``taskset``, a cpuset), which :func:`resolve_threads` reads.
Each worker slot, the calling thread's included, gets one scratch set, made
once per run in the calling thread (slot 0's first, which sizes the pool)
and reused by every batch.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from typing import Callable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")
S = TypeVar("S")


def resolve_threads() -> int:
    """The most workers a stack may use: the cores in this process's affinity mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# A worker beyond the first pays off only when its scratch set holds this many
# bytes (4,096 cells of 24 bytes, each a drawn normal and uniform): drawing
# them runs outside the interpreter lock, and must outweigh the steps of a
# batch that hold it. A set of no bytes, as the selection labs' draws take,
# gives one worker. The timings behind the rule (one and two workers only)
# are in CHANGES.md.
_WORKER_BYTES = 98_304
# The workers' scratch sets hold at most this many bytes together, so memory
# does not grow with the core count; a single larger set gets one worker.
_POOL_BYTES = 64 << 20


def default_workers(cores: int, batches: int, scratch_bytes: int) -> int:
    """Workers of a stack's draw pool.

    One per _WORKER_BYTES of one worker's scratch set, at most one per core
    and per batch, and no more than keep _POOL_BYTES of scratch; at least one.
    """
    return max(1, min(
        cores, batches, scratch_bytes // _WORKER_BYTES, _POOL_BYTES // max(1, scratch_bytes)
    ))


def batch_sizes(total: int, n_batches: int) -> list[int]:
    """Split total into n_batches contiguous sizes differing by at most one."""
    n_batches = min(n_batches, total)
    base, extra = divmod(total, n_batches)
    return [base + (1 if i < extra else 0) for i in range(n_batches)]


def map_batches(fn: Callable[[int, int], T], n_batches: int, workers: int) -> list[T]:
    """Apply fn to batch indices 0..n_batches-1, results in index order.

    On w = min(workers, n_batches) workers: the calling thread and w - 1
    helper threads, each a loop that takes the next index under one lock and
    stores ``fn(i, slot)`` at it, where slot numbers the loop (0 is the
    calling thread's). Once a batch raises, no loop takes a new index; every
    helper has stopped before this returns or raises, and the error raised
    is the one met first.
    """
    results: list = [None] * n_batches
    lock = threading.Lock()
    taken, failure = 0, None

    def loop(slot: int) -> None:
        nonlocal taken, failure
        while True:
            with lock:
                i = taken
                if i == n_batches or failure is not None:
                    return
                taken += 1
            try:
                results[i] = fn(i, slot)
            except BaseException as exc:  # stops every loop, then raised in the caller
                with lock:
                    if failure is None:
                        failure = exc
                return

    helpers = []
    try:
        for slot in range(1, min(workers, n_batches)):
            helper = threading.Thread(target=loop, args=(slot,))
            helper.start()
            helpers.append(helper)
        loop(0)
    finally:
        for helper in helpers:
            helper.join()
    if failure is not None:
        raise failure
    return results


# A run estimates at most this many replications at once, unless one batch
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
            for f in dataclasses.fields(first)
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
    """estimate of a stack's joined draws ``draw(b, slot)``, made on ``workers`` workers.

    A stacked gate raises for its first failing member, which need not be
    the error that running the batches in order, each drawn and then
    estimated, meets first. So on any error the stack is replayed that way,
    and raises what the first failing batch raises; only if no batch fails
    alone does the stack's own error propagate.
    """
    try:
        # The per-batch parts are freed once joined, before the estimate runs.
        return estimate(join(
            map_batches(lambda i, slot: draw(stack[i], slot), len(stack), workers)
        ))
    except Exception as exc:  # any error: replayed, then raised
        failure = exc
    for b in stack:
        estimate(draw(b, 0))
    raise failure


# Seeded batches of every lab's replications: they seed the streams and split the work.
_N_BATCHES = 50


def run_seeded(
    seed: int,
    reps: int,
    draw: Callable[[np.random.Generator, int, S], T],
    estimate: Callable[[T], R],
    gate: Callable[[R], None] | None = None,
    gate_reps: int = 0,
    *,
    scratch: Callable[[int], S],
) -> R:
    """estimate of reps replications, drawn in _N_BATCHES seeded batches.

    Batch b holds ``batch_sizes(reps, _N_BATCHES)[b]`` replications, drawn
    by ``draw(default_rng(child), size, buffers)`` with child the b-th child
    of SeedSequence(seed) and buffers the worker's own ``scratch(size)`` set,
    made here at the largest batch's size; slot 0's set, made first, sizes
    the pool (:func:`default_workers`).
    ``estimate`` maps joined draws to results elementwise over the
    replication axis, so each replication has the bits its batch alone
    gives it. With a gate, the head batches, the fewest from the start that
    hold at least gate_reps replications, go to ``gate`` before any other
    batch is drawn; gate raises to stop the run.
    """
    sizes = batch_sizes(reps, _N_BATCHES)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    head = len(sizes) if gate is None else int(np.searchsorted(np.cumsum(sizes), gate_reps)) + 1
    sets = [scratch(sizes[0])]
    results = []

    def draw_batch(b: int, slot: int) -> T:
        return draw(np.random.default_rng(children[b]), sizes[b], sets[slot])

    for stack in _stacks(range(head), sizes) + _stacks(range(head, len(sizes)), sizes):
        workers = default_workers(resolve_threads(), len(stack), sets[0].nbytes)
        while len(sets) < workers:
            sets.append(scratch(sizes[0]))
        results.append(_estimate_stack(draw_batch, estimate, stack, workers))
        if gate is not None and stack[-1] == head - 1:
            gate(join(results))
    return join(results)
