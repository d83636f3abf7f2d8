"""One fork-based process map for every fan-out site in the package.

``ForkPool(jobs, shared, name=...).map(fn, items)`` returns
``[fn(shared, item) for item in items]``, in item order, whether the
calls ran in worker processes or in the parent.  Trial and screening
fan-out (:mod:`repro.experiments.parallel`) and the session service
(:mod:`repro.service.pool`) fan out through it; probe scoring runs in
process.

* **Shared state.**  ``shared`` reaches the workers through fork (the
  executor's initializer), never through pickling; each item and each
  result is pickled.  ``fn`` must be a module-level function.
* **Serial cases.**  The map runs in the parent when ``jobs <= 1``, when
  there is at most one item, when the platform has no fork start
  method, or when the caller is itself a ``ForkPool`` worker
  (:func:`in_worker`) -- so nested fan-outs never fork grandchildren.
* **Chunking.**  Items go out in chunks of ``ceil(n / (4 * jobs))``,
  the rule ``multiprocessing.Pool.map`` uses by default.  Chunking never
  changes results.
* **Metrics.**  When the parent's observability backend is enabled,
  each chunk runs under a fresh :class:`~repro.obs.Instrumentation` and
  returns its metrics registry; the parent merges each chunk's counters
  (zeros included) and histograms into its own
  (:meth:`~repro.obs.metrics.MetricsRegistry.merge`).  Sums commute, so
  the totals equal the serial run's.  Worker gauges and spans are not
  returned.
* **Fallback.**  The pool is a
  :class:`concurrent.futures.ProcessPoolExecutor`, so a worker that
  dies abruptly (``os._exit``, SIGKILL, the OOM killer) raises
  ``BrokenProcessPool`` instead of hanging the map.  Any exception from
  creating the executor or from the map shuts the executor down without
  waiting, retires it for the object's lifetime, counts one fallback on
  :attr:`ForkPool.fallbacks` and on ``<name>.pool.fallbacks``, and
  re-runs the whole map serially.  Every caller maps a pure function,
  so the serial re-run returns what the pool would have returned.

The executor is created on the first pooled map and lives until
:meth:`ForkPool.close` (or the end of a ``with`` block): the service
keeps one pool across jobs, the trial map and the screening loop
build one per call.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from multiprocessing.context import BaseContext
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.obs import Instrumentation, get_instrumentation, use_instrumentation
from repro.obs.metrics import MetricsRegistry

#: Chunks per worker in one map (``multiprocessing.Pool.map``'s rule).
CHUNKS_PER_WORKER = 4

Item = TypeVar("Item")
Result = TypeVar("Result")

#: Inside a ``ForkPool`` worker: a 1-tuple holding the pool's ``shared``
#: object, installed by the worker initializer.  ``None`` elsewhere.
_worker_shared: Optional[Tuple[Any]] = None


def in_worker() -> bool:
    """Whether this process is a ``ForkPool`` worker."""
    return _worker_shared is not None


def _fork_context() -> Optional[BaseContext]:
    """The fork start method, or ``None`` where the platform lacks it."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _init_worker(shared: Any) -> None:
    global _worker_shared
    _worker_shared = (shared,)


def _run_chunk(
    fn: Callable[[Any, Any], Any], chunk: Sequence[Any], collect: bool
) -> Tuple[List[Any], Optional[MetricsRegistry]]:
    """One chunk in a worker: results, plus its metrics if collected."""
    assert _worker_shared is not None, "worker used before initialisation"
    shared = _worker_shared[0]
    if not collect:
        return [fn(shared, item) for item in chunk], None
    obs = Instrumentation()
    with use_instrumentation(obs):
        results = [fn(shared, item) for item in chunk]
    return results, obs.metrics


class ForkPool:
    """An order-preserving fork map that degrades to serial, permanently.

    ``name`` prefixes the fallback counter (``<name>.pool.fallbacks``).
    """

    def __init__(self, jobs: int, shared: Any = None, *, name: str) -> None:
        self.jobs = max(1, int(jobs))
        self.shared = shared
        self.name = name
        #: Maps re-run serially after a pool failure (0 or 1).
        self.fallbacks = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        self._retired = False

    @property
    def pooled(self) -> bool:
        """Whether a map of several items would go to worker processes."""
        return (
            self.jobs > 1
            and not self._retired
            and not in_worker()
            and _fork_context() is not None
        )

    def map(
        self, fn: Callable[[Any, Item], Result], items: Iterable[Item]
    ) -> List[Result]:
        """``[fn(shared, item) for item in items]``, maybe across workers."""
        items = list(items)
        if len(items) <= 1 or not self.pooled:
            return [fn(self.shared, item) for item in items]
        size = max(1, -(-len(items) // (self.jobs * CHUNKS_PER_WORKER)))
        chunks = [
            items[start:start + size] for start in range(0, len(items), size)
        ]
        obs = get_instrumentation()
        try:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    self.jobs,
                    mp_context=_fork_context(),
                    initializer=_init_worker,
                    initargs=(self.shared,),
                )
            outputs = list(
                self._executor.map(
                    _run_chunk, repeat(fn), chunks, repeat(obs.enabled)
                )
            )
        except Exception:
            self._retire()
            self.fallbacks += 1
            obs.metrics.counter(f"{self.name}.pool.fallbacks").inc()
            return [fn(self.shared, item) for item in items]
        results: List[Result] = []
        for chunk_results, metrics in outputs:
            results.extend(chunk_results)
            if metrics is not None:
                obs.metrics.merge(metrics)
        return results

    def _retire(self) -> None:
        self._retired = True
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the executor down, waiting for its workers (idempotent).

        Queued chunks are cancelled, so closing after an interrupted map
        waits only for the chunks already running.
        """
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ForkPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = ["CHUNKS_PER_WORKER", "ForkPool", "in_worker"]
