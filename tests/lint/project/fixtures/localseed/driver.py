"""The dispatch site; the worker lives in another module."""

from multiprocessing import get_context

from localseed.worker import work


def run(items):
    with get_context("fork").Pool(2) as pool:
        return pool.map(work, items)
