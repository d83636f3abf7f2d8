"""The bounded memo shared by the template and scenario-model caches."""

import pytest

from repro.memo import BoundedMemo


def test_bound_evicts_the_least_recently_used_key():
    memo = BoundedMemo(2)
    memo["a"] = 1
    memo["b"] = 2
    assert memo.get("a") == 1  # "a" is now the most recent
    memo["c"] = 3
    assert len(memo) == 2
    assert memo.get("b") is None
    assert memo.get("a") == 1 and memo.get("c") == 3


def test_storing_an_existing_key_refreshes_it():
    memo = BoundedMemo(2)
    memo["a"] = 1
    memo["b"] = 2
    memo["a"] = 10
    memo["c"] = 3
    assert memo.get("a") == 10
    assert memo.get("b") is None


def test_missing_key_reads_none_and_bound_must_be_positive():
    assert BoundedMemo(1).get("x") is None
    with pytest.raises(ValueError):
        BoundedMemo(0)
