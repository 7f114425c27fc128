"""Deterministic worker-pool plumbing.

Parallel sections split work into an ordered task list, compute each task
independently, and merge results in task order: map_ordered returns them as
one list, which every caller consumes whole.  Outputs are therefore
bit-identical for any worker count.  The sections are the Monte Carlo
chunks of moments and, in cli's verify, the walk series and the chunks of
the identity, a priori and conditional-bound checks; pieces cuts each into
its chunks.
ANDERSON_THREADS caps the pool size (and provides the default when the
caller does not ask for a specific count).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Optional, Sequence

ENV_THREADS = "ANDERSON_THREADS"


def thread_cap() -> Optional[int]:
    raw = os.environ.get(ENV_THREADS)
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_THREADS} must be an integer, got {raw!r}")
    if cap < 1:
        raise ValueError(f"{ENV_THREADS} must be >= 1, got {cap}")
    return cap


def resolve_workers(requested: Optional[int] = None) -> int:
    """Requested worker count clamped to the ANDERSON_THREADS cap."""
    cap = thread_cap()
    if requested is None:
        return cap if cap is not None else 1
    if requested < 1:
        raise ValueError("workers must be >= 1")
    return min(requested, cap) if cap is not None else requested


def pieces(count: int, workers: int) -> list[range]:
    """range(count) cut into at most 4 * workers consecutive ranges; one
    empty range when count < 1."""
    k = max(1, min(4 * workers, count))
    cuts = [count * i // k for i in range(k + 1)]
    return [range(a, b) for a, b in zip(cuts, cuts[1:])]


def map_ordered(fn: Callable, tasks: Sequence, workers: int) -> list:
    """fn over tasks, the results in task order; in a worker pool when
    workers and tasks both exceed one."""
    if workers <= 1 or len(tasks) <= 1:
        return list(map(fn, tasks))
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(fn, tasks))
