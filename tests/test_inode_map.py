"""Tests for the inode map."""

import struct

import pytest

from repro.core.constants import INODE_MAP_ENTRY_SIZE, NULL_ADDR
from repro.core.errors import FileNotFoundLFSError, InvalidOperationError
from repro.core.inode_map import InodeMap


@pytest.fixture
def imap():
    return InodeMap(max_inodes=512, entries_per_block=128)


class TestLookup:
    def test_unallocated_lookup_raises(self, imap):
        with pytest.raises(FileNotFoundLFSError):
            imap.lookup(5)

    def test_set_and_lookup(self, imap):
        imap.set_addr(5, 1234)
        assert imap.lookup(5) == 1234

    def test_out_of_range_inum(self, imap):
        with pytest.raises(InvalidOperationError):
            imap.get(512)
        with pytest.raises(InvalidOperationError):
            imap.get(0)

    def test_is_allocated(self, imap):
        assert not imap.is_allocated(3)
        imap.set_addr(3, 77)
        assert imap.is_allocated(3)
        assert not imap.is_allocated(99999)


    def test_peek_and_version_of_insert_nothing(self, imap):
        assert imap.peek(3) is None
        assert imap.version_of(3) == 0
        imap.mark_all_dirty()  # dirties the block of every slot that exists
        assert imap.dirty_block_indexes() == []
        imap.set_addr(3, 77)
        assert imap.peek(3) is imap.get(3)

    def test_version_of_out_of_range_raises(self, imap):
        for inum in (0, 512):
            with pytest.raises(InvalidOperationError):
                imap.version_of(inum)

    def test_points_at(self, imap):
        imap.set_addr(3, 77)
        imap.set_addr(4, 78)
        imap.free(4)
        assert imap.points_at(77)
        assert not imap.points_at(78)  # freed
        assert not imap.points_at(NULL_ADDR)


class TestAllocation:
    def test_allocate_returns_distinct(self, imap):
        a = imap.allocate()
        imap.set_addr(a, 1)
        b = imap.allocate()
        assert a != b

    def test_free_allows_reuse_with_new_version(self, imap):
        inum = imap.allocate()
        imap.set_addr(inum, 10)
        v0 = imap.version_of(inum)
        imap.free(inum)
        assert not imap.is_allocated(inum)
        assert imap.version_of(inum) == v0 + 1

    def test_exhaustion_raises(self):
        tiny = InodeMap(max_inodes=4, entries_per_block=128)
        for _ in range(3):
            imum = tiny.allocate()
            tiny.set_addr(imum, 1)
        with pytest.raises(FileNotFoundLFSError):
            tiny.allocate()

    def test_live_count(self, imap):
        imap.set_addr(1, 5)
        imap.set_addr(2, 6)
        imap.free(1)
        assert imap.live_count == 1
        assert imap.allocated_inums() == [2]


class TestVersioning:
    def test_bump_version(self, imap):
        v = imap.bump_version(9)
        assert imap.version_of(9) == v
        assert imap.bump_version(9) == v + 1

    def test_version_survives_free(self, imap):
        imap.set_addr(7, 1)
        imap.free(7)
        imap.set_addr(7, 2)  # reallocated
        assert imap.version_of(7) == 1  # uid never reused


class TestDirtyTracking:
    def test_set_addr_dirties_covering_block(self, imap):
        imap.set_addr(130, 9)  # block 1 covers 128..255
        assert imap.dirty_block_indexes() == [1]

    def test_clear_dirty(self, imap):
        imap.set_addr(1, 9)
        imap.clear_dirty(0)
        assert imap.dirty_block_indexes() == []

    def test_atime_dirties(self, imap):
        imap.set_atime(5, 12.5)
        assert 0 in imap.dirty_block_indexes()


class TestBlockSerialization:
    def test_roundtrip(self, imap):
        imap.set_addr(5, 555)
        imap.set_atime(5, 2.0)
        imap.bump_version(6)
        payload = imap.pack_block(0, 4096)

        other = InodeMap(max_inodes=512, entries_per_block=128)
        other.load_block(0, payload)
        assert other.lookup(5) == 555
        assert other.get(5).atime == 2.0
        assert other.version_of(6) == 1

    def test_load_clears_absent_entries(self, imap):
        payload = imap.pack_block(0, 4096)  # all empty
        other = InodeMap(max_inodes=512, entries_per_block=128)
        other.set_addr(5, 1)
        other.load_block(0, payload)
        assert not other.is_allocated(5)

    def test_pack_out_of_range(self, imap):
        with pytest.raises(InvalidOperationError):
            imap.pack_block(99, 4096)

    def test_num_blocks(self, imap):
        assert imap.num_blocks == 4


def per_entry_pack(imap, block_index, block_size):
    """The map block as one ``struct`` call per entry packed it."""
    first = block_index * imap.entries_per_block
    parts = []
    for inum in range(first, first + imap.entries_per_block):
        entry = imap._entries.get(inum)
        if entry is None:
            parts.append(bytes(INODE_MAP_ENTRY_SIZE))
        else:
            parts.append(struct.pack("<QQd8x", entry.addr, entry.version, entry.atime))
    return b"".join(parts).ljust(block_size, b"\0")


class TestOneCallPacking:
    """``pack_block`` packs a whole block with one ``struct`` call; the
    bytes must equal the per-entry packing they replaced."""

    @pytest.mark.parametrize("block_size", [4096, 4096 + 96])  # exact, and a padded tail
    def test_empty_partial_and_full_blocks(self, imap, block_size):
        for inum in range(128, 256):  # block 1: every slot touched
            imap.set_addr(inum, 10_000 + inum)
            imap.set_atime(inum, inum / 3)
        imap.free(200)  # a freed slot keeps its bumped version
        for inum in (260, 261, 300):  # block 2: a few slots
            imap.set_addr(inum, 2**63 + inum)
        imap.bump_version(301)
        imap.get(302)  # a touched but never-set slot packs as zeros
        for index in range(imap.num_blocks):  # 0 and 3 are empty
            packed = imap.pack_block(index, block_size)
            assert packed == per_entry_pack(imap, index, block_size), index
            assert len(packed) == block_size
        assert imap.pack_block(0, block_size) == bytes(block_size)
