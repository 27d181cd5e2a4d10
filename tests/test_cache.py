"""Tests for the write-back block cache."""

from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import BlockCache
from repro.core.config import LFSConfig
from repro.core.errors import InvalidOperationError
from repro.core.filesystem import LFS
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry


@pytest.fixture
def cache():
    return BlockCache(capacity_blocks=4)


class TestBasics:
    def test_miss_returns_none(self, cache):
        assert cache.lookup(1, 0) is None
        assert cache.misses == 1

    def test_write_then_lookup(self, cache):
        cache.write(1, 0, b"data", mtime=2.0)
        entry = cache.lookup(1, 0)
        assert entry.payload == b"data"
        assert entry.dirty
        assert entry.mtime == 2.0
        assert cache.hits == 1

    def test_insert_clean_not_dirty(self, cache):
        cache.insert_clean(1, 0, b"x")
        assert not cache.lookup(1, 0).dirty
        assert cache.dirty_count == 0

    def test_clean_read_cannot_clobber_dirty(self, cache):
        cache.write(1, 0, b"new", mtime=0.0)
        with pytest.raises(InvalidOperationError):
            cache.insert_clean(1, 0, b"stale")

    def test_mark_clean(self, cache):
        cache.write(1, 0, b"d", mtime=0.0)
        cache.mark_clean(1, 0)
        assert cache.dirty_count == 0
        assert cache.lookup(1, 0) is not None

    def test_contains_does_not_count(self, cache):
        cache.insert_clean(2, 3, b"x")
        assert cache.contains(2, 3)
        assert cache.hits == 0 and cache.misses == 0


class TestEviction:
    def test_clean_lru_evicted(self, cache):
        for fbn in range(4):
            cache.insert_clean(1, fbn, b"x")
        cache.lookup(1, 0)  # refresh block 0
        cache.insert_clean(1, 4, b"y")  # evicts block 1 (LRU clean)
        assert cache.contains(1, 0)
        assert not cache.contains(1, 1)

    def test_dirty_never_evicted(self, cache):
        for fbn in range(4):
            cache.write(1, fbn, b"d", mtime=0.0)
        cache.insert_clean(1, 10, b"c")
        # all four dirty blocks survive; the cache may exceed capacity
        assert cache.dirty_count == 4
        for fbn in range(4):
            assert cache.contains(1, fbn)


class TestDrop:
    def test_drop_file(self, cache):
        cache.write(1, 0, b"a", mtime=0.0)
        cache.write(1, 1, b"b", mtime=0.0)
        cache.write(2, 0, b"c", mtime=0.0)
        cache.drop_file(1)
        assert not cache.contains(1, 0)
        assert cache.contains(2, 0)
        assert cache.dirty_count == 1

    def test_drop_from(self, cache):
        for fbn in range(4):
            cache.write(1, fbn, b"x", mtime=0.0)
        cache.drop_from(1, 2)
        assert cache.contains(1, 1)
        assert not cache.contains(1, 3)

    def test_clear_all(self, cache):
        cache.write(1, 0, b"x", mtime=0.0)
        cache.clear_all()
        assert len(cache) == 0
        assert cache.dirty_count == 0


class TestDirtyEnumeration:
    def test_sorted_by_key(self, cache):
        cache.write(2, 1, b"c", mtime=0.0)
        cache.write(1, 5, b"b", mtime=0.0)
        cache.write(1, 0, b"a", mtime=0.0)
        keys = [(i, f) for i, f, _ in cache.dirty_blocks()]
        assert keys == [(1, 0), (1, 5), (2, 1)]

    def test_hit_rate(self, cache):
        cache.insert_clean(1, 0, b"x")
        cache.lookup(1, 0)
        cache.lookup(1, 1)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_zero_capacity_rejected(self):
        with pytest.raises(InvalidOperationError):
            BlockCache(0)


_OPS = (
    "write", "insert_clean", "lookup", "mark_clean", "drop", "drop_file", "drop_from", "clear_all",
)


class TestFileIndex:
    """The per-file index must equal a scan of the entries at every step."""

    @staticmethod
    def check(cache):
        grouped = {}
        for inum, fbn in cache._entries:
            grouped.setdefault(inum, set()).add(fbn)
        assert cache._by_file == grouped  # in particular: no empty sets left
        dirty = {key for key, entry in cache._entries.items() if entry.dirty}
        assert cache._dirty == dirty
        assert cache.dirty_count == len(dirty)

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=6),
        steps=st.lists(
            st.tuples(
                st.sampled_from(_OPS),
                st.integers(min_value=1, max_value=4),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=60,
        ),
    )
    def test_index_matches_scan_after_every_step(self, capacity, steps):
        cache = BlockCache(capacity_blocks=capacity)
        for op, inum, fbn in steps:
            before = list(cache._entries)
            if op == "write":
                cache.write(inum, fbn, b"w", mtime=1.0)
            elif op == "insert_clean":
                if (inum, fbn) in cache._dirty:
                    with pytest.raises(InvalidOperationError):
                        cache.insert_clean(inum, fbn, b"c")
                else:
                    cache.insert_clean(inum, fbn, b"c")
            elif op == "lookup":
                cache.lookup(inum, fbn)
            elif op == "mark_clean":
                cache.mark_clean(inum, fbn)
            elif op == "drop":
                cache.drop(inum, fbn)
                assert list(cache._entries) == [k for k in before if k != (inum, fbn)]
            elif op == "drop_file":
                cache.drop_file(inum)
                assert list(cache._entries) == [k for k in before if k[0] != inum]
            elif op == "drop_from":
                cache.drop_from(inum, fbn)
                assert list(cache._entries) == [
                    k for k in before if not (k[0] == inum and k[1] >= fbn)
                ]
            else:
                cache.clear_all()
                assert len(cache) == 0
            self.check(cache)

    def test_eviction_empties_a_files_set(self):
        cache = BlockCache(capacity_blocks=2)
        cache.insert_clean(1, 0, b"a")
        cache.insert_clean(2, 0, b"b")
        cache.insert_clean(2, 1, b"c")  # evicts file 1's only block
        assert 1 not in cache._by_file
        cache.drop_file(1)  # nothing left to drop; must not raise
        self.check(cache)

    def test_dirty_rotation_keeps_index(self):
        cache = BlockCache(capacity_blocks=2)
        cache.write(1, 0, b"d", mtime=0.0)  # pinned at the LRU end
        cache.insert_clean(2, 0, b"a")
        cache.insert_clean(2, 1, b"b")  # rotates (1, 0), evicts (2, 0)
        assert cache.contains(1, 0) and not cache.contains(2, 0)
        self.check(cache)

    def test_truncate_then_extend(self):
        cache = BlockCache(capacity_blocks=8)
        for fbn in range(4):
            cache.write(1, fbn, b"x", mtime=0.0)
        cache.drop_from(1, 1)
        cache.write(1, 3, b"y", mtime=1.0)
        assert sorted(cache._by_file[1]) == [0, 3]
        cache.drop_from(1, 0)
        assert len(cache) == 0
        self.check(cache)


def _unlink_seconds(unrelated_blocks: int) -> float:
    """Best-of-three wall time of 200 unlinks beside a big cached file."""
    disk = Disk(DiskGeometry.wren4(block_size=1024, num_blocks=131072))
    fs = LFS.format(
        disk,
        LFSConfig(block_size=1024, segment_bytes=512 * 1024, max_inodes=4096, cache_blocks=32768),
    )
    fs.write_file("/big", bytes(unrelated_blocks * 1024))
    fs.sync()
    assert len(fs.cache) >= unrelated_blocks
    best = float("inf")
    for round_no in range(3):
        paths = [f"/r{round_no}f{i}" for i in range(200)]
        for path in paths:
            fs.write_file(path, b"small")
        start = perf_counter()
        for path in paths:
            fs.unlink(path)
        best = min(best, perf_counter() - start)
    return best


def test_unlink_cost_does_not_grow_with_unrelated_cached_blocks():
    """An unlink pays for its own file's blocks, not for the cache's size
    (a scan of all entries read 7.6x here; the index reads 1.0x)."""
    small = _unlink_seconds(1024)
    large = _unlink_seconds(16 * 1024)
    assert large / small < 3, (small, large)
