"""Unit tests for prefetcher models."""

import pytest

from repro.cache.prefetch import NextLinePrefetcher, StridePrefetcher
from repro.cache.set_associative import SetAssociativeCache
from repro.config import CacheGeometry


@pytest.fixture
def cache():
    return SetAssociativeCache(CacheGeometry(sets=8, ways=4))


class TestNextLine:
    def test_prefetches_on_miss(self, cache):
        pf = NextLinePrefetcher(degree=1)
        hit = cache.access(0)
        pf.on_access(cache, 0, 0, hit)
        assert cache.contains(1) is True
        assert pf.stats.issued == 1

    def test_no_prefetch_on_hit(self, cache):
        pf = NextLinePrefetcher()
        cache.access(0)
        hit = cache.access(0)
        pf.on_access(cache, 0, 0, hit)
        assert pf.stats.issued == 0

    def test_redundant_prefetch_counted(self, cache):
        pf = NextLinePrefetcher()
        cache.access(1)  # target already resident
        hit = cache.access(0)
        pf.on_access(cache, 0, 0, hit)
        assert pf.stats.redundant == 1
        assert pf.stats.issued == 0

    def test_useful_prefetch_attribution(self, cache):
        pf = NextLinePrefetcher()
        pf.on_access(cache, 0, 0, cache.access(0))  # prefetches line 1
        hit = cache.access(1)
        pf.on_access(cache, 0, 1, hit)
        assert hit is True
        assert pf.stats.useful == 1
        assert pf.stats.accuracy == pytest.approx(1.0)  # 1 useful / 1 issued

    def test_evicted_prefetch_refilled_by_demand_is_not_useful(self):
        cache = SetAssociativeCache(CacheGeometry(sets=1, ways=2))
        pf = NextLinePrefetcher()
        pf.on_access(cache, 0, 0, cache.access(0, owner=0))  # prefetches line 1
        cache.access(5, owner=1)
        cache.access(6, owner=1)  # both of owner 0's lines are evicted
        assert not cache.contains(1)
        hit = cache.access(1, owner=0)
        pf.on_access(cache, 0, 1, hit)  # demand miss refills line 1
        assert hit is False
        hit = cache.access(1, owner=0)
        pf.on_access(cache, 0, 1, hit)
        assert hit is True
        assert pf.stats.useful == 0

    def test_prefetch_does_not_pollute_demand_stats(self, cache):
        pf = NextLinePrefetcher()
        pf.on_access(cache, 3, 0, cache.access(0, owner=3))
        stats = cache.stats.owner(3)
        assert stats.accesses == 1  # the prefetch access was discounted
        assert stats.misses == 1

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            NextLinePrefetcher(degree=0)


class TestStride:
    def test_needs_confidence(self, cache):
        pf = StridePrefetcher(degree=1)
        pf.on_access(cache, 0, 10, cache.access(10))
        pf.on_access(cache, 0, 12, cache.access(12))  # stride 2 seen once
        assert pf.stats.issued == 0
        pf.on_access(cache, 0, 14, cache.access(14))  # stride 2 confirmed
        assert pf.stats.issued == 1
        assert cache.contains(16) is True

    def test_stride_reset_on_change(self, cache):
        pf = StridePrefetcher(degree=1)
        for line in (0, 2, 4):
            pf.on_access(cache, 0, line, cache.access(line))
        issued = pf.stats.issued
        pf.on_access(cache, 0, 11, cache.access(11))  # breaks the stride
        pf.on_access(cache, 0, 13, cache.access(13))  # new stride, once
        assert pf.stats.issued == issued

    def test_per_owner_tracking(self, cache):
        pf = StridePrefetcher(degree=1)
        # Interleaved owners with different strides must not confuse it.
        for step in range(4):
            pf.on_access(cache, 1, step * 2, cache.access(step * 2, owner=1))
            pf.on_access(cache, 2, 100 + step * 3, cache.access(100 + step * 3, owner=2))
        assert pf.stats.issued >= 2  # both streams eventually predicted

    def test_zero_stride_ignored(self, cache):
        pf = StridePrefetcher()
        for _ in range(5):
            pf.on_access(cache, 0, 7, cache.access(7))
        assert pf.stats.issued == 0
