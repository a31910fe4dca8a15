"""Tests for the edge-cache mechanics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import EdgeCache
from repro.serve.cache import CacheEntry


class TestCapacityAccounting:
    def test_store_and_lookup(self):
        cache = EdgeCache(capacity_mb=250.0)
        entry = cache.store(3, 100.0, t=0.5)
        assert cache.lookup(3) is entry
        assert entry.fetched_at == 0.5
        assert entry.last_used == 0.5
        assert entry.hits == 0
        assert 3 in cache
        assert cache.lookup(7) is None

    def test_used_and_free(self):
        cache = EdgeCache(capacity_mb=250.0)
        cache.store(0, 100.0, t=0.0)
        cache.store(1, 100.0, t=0.0)
        assert cache.used_mb == pytest.approx(200.0)
        assert cache.free_mb == pytest.approx(50.0)
        assert len(cache) == 2

    def test_has_room_vs_fits(self):
        cache = EdgeCache(capacity_mb=250.0)
        cache.store(0, 200.0, t=0.0)
        assert not cache.has_room(100.0)   # would need eviction
        assert cache.fits(100.0)           # could fit after eviction
        assert not cache.fits(300.0)       # can never fit

    def test_evict_frees_room(self):
        cache = EdgeCache(capacity_mb=250.0)
        cache.store(0, 200.0, t=0.0)
        evicted = cache.evict(0)
        assert evicted.content == 0
        assert cache.used_mb == 0.0
        assert 0 not in cache

    def test_insertion_order_preserved(self):
        cache = EdgeCache(capacity_mb=500.0)
        for k in (4, 1, 3):
            cache.store(k, 100.0, t=0.0)
        assert [e.content for e in cache] == [4, 1, 3]


class TestEntryAge:
    def test_age_advances_with_time(self):
        cache = EdgeCache(capacity_mb=100.0)
        entry = cache.store(0, 50.0, t=1.0)
        assert entry.age(1.5) == pytest.approx(0.5)
        assert entry.age(0.5) == 0.0  # clamped; clocks never run backwards


class TestValidation:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            EdgeCache(capacity_mb=0.0)

    def test_rejects_duplicate_store(self):
        cache = EdgeCache(capacity_mb=300.0)
        cache.store(0, 100.0, t=0.0)
        with pytest.raises(ValueError, match="already cached"):
            cache.store(0, 100.0, t=1.0)

    def test_rejects_store_without_room(self):
        cache = EdgeCache(capacity_mb=150.0)
        cache.store(0, 100.0, t=0.0)
        with pytest.raises(ValueError, match="no room"):
            cache.store(1, 100.0, t=0.0)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError, match="size_mb"):
            EdgeCache(capacity_mb=100.0).store(0, 0.0, t=0.0)

    def test_evict_missing_raises(self):
        with pytest.raises(KeyError):
            EdgeCache(capacity_mb=100.0).evict(5)


def _entry(content, size_mb):
    return CacheEntry(content=content, size_mb=size_mb, fetched_at=0.0, last_used=0.0)


class TestRunningOccupancy:
    """``used_mb`` is a running total that store/evict keep in step."""

    def test_starts_from_constructor_entries(self):
        cache = EdgeCache(
            capacity_mb=100.0, entries={2: _entry(2, 30.5), 7: _entry(7, 12.25)}
        )
        assert cache.used_mb == 42.75
        assert cache.free_mb == 57.25
        assert cache.has_room(57.25)
        assert not cache.has_room(57.5)

    def test_emptied_cache_restarts_at_zero(self):
        cache = EdgeCache(capacity_mb=1.0)
        cache.store(0, 0.1, t=0.0)
        cache.store(1, 0.2, t=0.0)
        cache.evict(1)
        cache.evict(0)
        assert cache.used_mb == 0.0

    def test_audit_passes_consistent_cache(self):
        cache = EdgeCache(capacity_mb=10.0)
        cache.store(0, 3.3, t=0.0)
        cache.store(1, 4.4, t=0.0)
        held, problem = cache.audit()
        assert problem is None
        assert held == math.fsum([3.3, 4.4])

    def test_audit_flags_entries_changed_behind_the_cache(self):
        cache = EdgeCache(capacity_mb=10.0)
        cache.store(0, 3.0, t=0.0)
        cache.entries[5] = _entry(5, 2.0)
        held, problem = cache.audit()
        assert held == 5.0
        assert "running occupancy total 3 MB" in problem

    def test_audit_flags_overflow(self):
        cache = EdgeCache(
            capacity_mb=10.0, entries={0: _entry(0, 6.0), 1: _entry(1, 6.0)}
        )
        held, problem = cache.audit()
        assert held == 12.0
        assert "exceeds capacity" in problem

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.floats(min_value=1.0, max_value=1e4),
        prefill=st.lists(st.floats(min_value=1e-3, max_value=1.0), max_size=4),
        ops=st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=0, max_value=11),
                st.floats(min_value=1e-3, max_value=1.0),
            ),
            max_size=80,
        ),
    )
    def test_total_tracks_fsum_of_entries(self, capacity, prefill, ops):
        # Sizes are fractions of capacity, so every prefill fits and
        # stores exercise the room check at non-integer boundaries.
        cache = EdgeCache(
            capacity_mb=capacity,
            entries={
                100 + i: _entry(100 + i, share * capacity / 4)
                for i, share in enumerate(prefill)
            },
        )
        for is_store, content, share in ops:
            size = share * capacity / 3
            if is_store:
                if content not in cache and cache.has_room(size):
                    cache.store(content, size, t=0.0)
            elif cache.entries:
                keys = list(cache.entries)
                cache.evict(keys[content % len(keys)])
            held = math.fsum(e.size_mb for e in cache)
            assert abs(cache.used_mb - held) <= 1e-9 * capacity
            assert cache.audit()[1] is None
