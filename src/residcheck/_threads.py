"""Deterministic batch parallelism.

Work is split into batches whose random streams are spawned from the
experiment seed by batch index, and results are gathered in batch order, so
output is byte-identical at any worker count. The RESID_THREADS environment
variable caps the worker pool; the default is single threaded.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

from .errors import ConfigError

T = TypeVar("T")


def resolve_threads(threads: int | None = None) -> int:
    if threads is None:
        raw = os.environ.get("RESID_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            raise ConfigError(f"RESID_THREADS must be an integer, got {raw!r}") from None
    return max(1, threads)


def batch_sizes(total: int, n_batches: int) -> list[int]:
    """Split total into n_batches contiguous sizes differing by at most one."""
    n_batches = min(n_batches, total)
    base, extra = divmod(total, n_batches)
    return [base + (1 if i < extra else 0) for i in range(n_batches)]


def map_batches(fn: Callable[[int], T], n_batches: int, threads: int | None = None) -> list[T]:
    """Apply fn to batch indices 0..n_batches-1, results in index order."""
    workers = resolve_threads(threads)
    if workers == 1 or n_batches <= 1:
        return [fn(i) for i in range(n_batches)]
    with ThreadPoolExecutor(max_workers=min(workers, n_batches)) as pool:
        return list(pool.map(fn, range(n_batches)))

