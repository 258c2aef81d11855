"""Row-parallel passes over ``(frames, samples)`` matrices.

The bit-exact link tier works on frame batches whose rows are
independent: each deterministic stage computes row ``f`` from row ``f``
alone, with the same arithmetic at any batch size (the property the
fused tier's 16/32/64-row block schedule already relies on).
:func:`_map_rows` runs such a stage on contiguous row chunks across the
CPUs the process may use; NumPy and SciPy release the GIL inside their
array loops, so the chunks overlap.  Because every row is computed
exactly as it would be alone, the output is byte-identical at any
thread count.

Thread rules:

* chunk 0 runs on the calling thread; the others run on a
  ``ThreadPoolExecutor`` created for the call and joined before it
  returns, so no thread outlives a call.  Forking a process pool later
  is safe, and a ``SIGALRM`` timeout raised on the caller leaves
  nothing running;
* a process started by :mod:`multiprocessing` (the sweep and shard
  worker pools) uses one thread, because its pool already owns the
  cores;
* each chunk keeps at least :data:`_MIN_CHUNK_ROWS` rows.
"""

from __future__ import annotations

import os
from collections.abc import Callable

#: Row-thread count override (tests only); ``None`` means the CPUs this
#: process may run on.
_ROW_THREADS: int | None = None

#: Fewest rows a chunk may have: below this a thread costs more than it
#: saves.
_MIN_CHUNK_ROWS = 4


def _row_threads() -> int:
    """Threads a row pass may use in this process."""
    if _ROW_THREADS is not None:
        return _ROW_THREADS
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _map_rows(fn: Callable[[int, int], None], n_rows: int) -> None:
    """Call ``fn(start, stop)`` on contiguous chunks covering ``n_rows``.

    ``fn`` writes its rows of a shared output and touches no other row.
    An exception from any chunk propagates once every chunk has ended.
    """
    threads = max(1, min(_row_threads(), n_rows // _MIN_CHUNK_ROWS))
    if threads == 1:
        fn(0, n_rows)
        return
    from concurrent.futures import ThreadPoolExecutor

    bounds = [n_rows * k // threads for k in range(threads + 1)]
    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        rest = [
            pool.submit(fn, start, stop)
            for start, stop in zip(bounds[1:-1], bounds[2:])
        ]
        fn(bounds[0], bounds[1])
        for future in rest:
            future.result()
