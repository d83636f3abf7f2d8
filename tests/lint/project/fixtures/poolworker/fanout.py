"""Pool workers capturing parent RNG/instrumentation, dispatched here.

Never imported -- parsed by the lint tests.  Lines carrying a
``expect[RULE]`` marker must produce exactly that finding.
"""

import numpy as np

from repro.obs import Instrumentation, get_instrumentation
from repro.parallel import ForkPool

SHARED_RNG = np.random.default_rng(7)
BACKEND: Instrumentation = Instrumentation()


def _rng_capturing_worker(item):
    return item + float(SHARED_RNG.random())  # expect[PAR101]


def _metrics_capturing_worker(item):
    BACKEND.metrics.counter("worker.items").inc()  # expect[PAR101]
    return item


def _ambient_obs_worker(item):
    obs = get_instrumentation()  # expect[PAR101]
    obs.metrics.counter("worker.items").inc()
    return item


def _clean_worker(task):
    seed, item = task
    rng = np.random.default_rng(seed)
    obs = Instrumentation()
    obs.metrics.counter("worker.items").inc()
    return item + float(rng.random()), obs.metrics.to_document()


def fan_out(pool, items):
    results = pool.map(_rng_capturing_worker, items)
    results += pool.map(_metrics_capturing_worker, items)
    results += pool.map(_ambient_obs_worker, items)
    results += pool.map(lambda item: item + 1, items)  # expect[PAR101]

    def _nested_worker(item):
        return item * 2

    results += pool.map(_nested_worker, items)  # expect[PAR101]
    return results + pool.map(_clean_worker, items)


def _shared_rng_worker(shared, item):
    return item + shared + float(SHARED_RNG.random())  # expect[PAR101]


def _backend_worker(shared, item):
    BACKEND.metrics.counter("worker.items").inc()  # expect[PAR101]
    return item + shared


def _ambient_obs_fork_worker(shared, item):
    # Sanctioned under ForkPool: the primitive installs a fresh backend
    # in the worker and merges its counters into the parent.
    get_instrumentation().metrics.counter("worker.items").inc()
    return item + shared


def fork_out(items):
    # ForkPool dispatches, whatever the receiver is called.
    results = ForkPool(2, 1, name="fixture").map(_shared_rng_worker, items)
    fanout = ForkPool(2, 1, name="fixture")
    results += fanout.map(_ambient_obs_fork_worker, items)
    results += fanout.map(lambda shared, item: item, items)  # expect[PAR101]
    with ForkPool(2, 1, name="fixture") as runner:
        results += runner.map(_backend_worker, items)
    return results
