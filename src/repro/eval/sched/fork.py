"""The ``fork`` backend: the classic process pool, kept as-is.

A fork-context :class:`concurrent.futures.ProcessPoolExecutor` — the
workhorse the orchestrator has always used.  Workers inherit the
parent's warm module caches via fork; tasks are picked up by whichever
process is free.  Still the right tool for homogeneous leaf sets on a
box with spare cores; the ``workers`` backend supersedes it when leaf
sizes are skewed (stealing) or when results must stream with per-worker
accounting.

The pool starts lazily on first :meth:`submit`, so cache-served graphs
cost nothing.
"""

import concurrent.futures
import multiprocessing

from repro.eval.sched.base import Backend, execute_task


class ForkBackend(Backend):
    name = "fork"

    def __init__(self, workers):
        self.workers = max(1, int(workers))
        self._pool = None
        self._futures = set()

    def _ensure_pool(self):
        if self._pool is None:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:               # pragma: no cover - non-POSIX
                ctx = multiprocessing.get_context()
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers, mp_context=ctx)
        return self._pool

    def submit(self, task):
        pool = self._ensure_pool()
        self._futures.add(pool.submit(execute_task, task))

    def next_result(self):
        done, __ = concurrent.futures.wait(
            self._futures, return_when=concurrent.futures.FIRST_COMPLETED)
        future = next(iter(done))
        self._futures.remove(future)
        return future.result()

    @property
    def outstanding(self):
        return len(self._futures)

    def close(self):
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._futures.clear()
