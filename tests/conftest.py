"""Shared fixtures."""

import pytest

from qchar.laurent import bounded_partition_counts
from qchar.qbinom import _ext_qdict, _packed
from qchar.supernomial import _chain


@pytest.fixture
def cold_memos():
    """Empty the engine's functools caches (binomials, packed binomials,
    supernomial chains with their values, partition counts), so that the
    test starts with no value memoised."""
    for cache in (_ext_qdict, _packed, _chain, bounded_partition_counts):
        cache.cache_clear()
