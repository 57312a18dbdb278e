"""Deterministic chunked execution for big enumeration sweeps.

Work is split into fixed chunks; results are always reduced in chunk order,
so the outcome is identical whether chunks run serially or on a thread pool.
numpy releases the GIL on large array ops, which is where all the heavy
lifting happens, so threads give real speedup without any nondeterminism.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, TypeVar

C = TypeVar("C")
T = TypeVar("T")


def default_threads() -> int:
    return min(os.cpu_count() or 1, 8)


def run_chunks(
    work: Callable[[C], T],
    chunks: Iterable[C],
    threads: int | None = None,
) -> Iterator[T]:
    """Apply `work` to every chunk, yielding results in chunk order."""
    n = default_threads() if threads is None else max(1, threads)
    chunks = list(chunks)
    if n <= 1 or len(chunks) <= 1:
        for c in chunks:
            yield work(c)
        return
    with ThreadPoolExecutor(max_workers=n) as pool:
        yield from pool.map(work, chunks)
