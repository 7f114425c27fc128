"""Deterministic worker-pool plumbing.

Parallel sections split work into an ordered task list, compute each task
independently, and merge results in task order: map_ordered returns them as
one list, which every caller consumes whole.  Outputs are therefore
bit-identical for any worker count.  The sections are the Monte Carlo
chunks of moments and, in cli's verify, the moment checks' one task and
the chunks of the identity, a priori and conditional-bound checks; pieces
cuts each into its chunks.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Optional, Sequence


def resolve_workers(requested: Optional[int] = None) -> int:
    """The requested worker count, 1 when unset."""
    if requested is None:
        return 1
    if requested < 1:
        raise ValueError("workers must be >= 1")
    return requested


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
