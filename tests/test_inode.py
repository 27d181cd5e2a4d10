"""Tests for inode serialization and inode-block packing."""

import pytest

from repro.core.constants import INODE_SIZE, NULL_ADDR, NUM_DIRECT, FileType
from repro.core.errors import CorruptionError, InvalidOperationError
from repro.core.inode import (
    Inode,
    addrs_per_indirect,
    find_inode,
    inodes_per_block,
    max_file_blocks,
    pack_inode_block,
    unpack_inode_block,
)


def make_inode(**kw):
    defaults = dict(inum=7, version=3, ftype=FileType.REGULAR, nlink=2, size=12345,
                    mtime=1.5, ctime=0.5)
    defaults.update(kw)
    return Inode(**defaults)


class TestInodeSerialization:
    def test_roundtrip(self):
        ino = make_inode(direct=[10 + i for i in range(NUM_DIRECT)], indirect=99, dindirect=100)
        got = Inode.from_bytes(ino.to_bytes())
        assert got == ino

    def test_record_size_fixed(self):
        assert len(make_inode().to_bytes()) == INODE_SIZE

    def test_bad_file_type_raises(self):
        raw = bytearray(make_inode().to_bytes())
        raw[16] = 99  # ftype byte
        with pytest.raises(CorruptionError):
            Inode.from_bytes(bytes(raw))

    def test_truncated_raises(self):
        with pytest.raises(CorruptionError):
            Inode.from_bytes(b"\x01" * 10)

    def test_invalid_inum_rejected(self):
        with pytest.raises(InvalidOperationError):
            Inode(inum=0)

    def test_wrong_direct_count_rejected(self):
        with pytest.raises(InvalidOperationError):
            Inode(inum=1, direct=[0, 0])

    def test_copy_is_deep(self):
        ino = make_inode()
        dup = ino.copy()
        dup.direct[0] = 42
        assert ino.direct[0] == NULL_ADDR

    def test_nblocks(self):
        assert make_inode(size=0).nblocks(4096) == 0
        assert make_inode(size=1).nblocks(4096) == 1
        assert make_inode(size=4096).nblocks(4096) == 1
        assert make_inode(size=4097).nblocks(4096) == 2

    def test_is_directory(self):
        assert make_inode(ftype=FileType.DIRECTORY).is_directory
        assert not make_inode().is_directory


class TestInodeBlockPacking:
    def test_roundtrip_multiple(self):
        inodes = [make_inode(inum=i) for i in range(1, 6)]
        payload = pack_inode_block(inodes, 4096)
        got = unpack_inode_block(payload, 4096)
        assert [i.inum for i in got] == [1, 2, 3, 4, 5]

    def test_capacity(self):
        assert inodes_per_block(4096) == 4096 // INODE_SIZE

    def test_overfull_block_rejected(self):
        too_many = [make_inode(inum=i) for i in range(1, inodes_per_block(4096) + 2)]
        with pytest.raises(InvalidOperationError):
            pack_inode_block(too_many, 4096)

    def test_empty_block(self):
        assert unpack_inode_block(pack_inode_block([], 4096), 4096) == []

    def test_zero_slot_terminates(self):
        payload = pack_inode_block([make_inode(inum=3)], 4096)
        got = unpack_inode_block(payload, 4096)
        assert len(got) == 1


class TestFindInode:
    def test_agrees_with_unpacking_the_block(self):
        inodes = [make_inode(inum=i, size=100 * i) for i in (4, 9, 2)]
        payload = pack_inode_block(inodes, 4096)
        for inode in unpack_inode_block(payload, 4096):
            assert find_inode(payload, inode.inum) == inode
        assert find_inode(payload, 5) is None

    def test_zero_slot_ends_the_block(self):
        payload = bytearray(pack_inode_block([make_inode(inum=3)], 4096))
        # an inode after the zero padding is not part of the block
        payload[2 * INODE_SIZE : 3 * INODE_SIZE] = make_inode(inum=8).to_bytes()
        assert find_inode(bytes(payload), 8) is None

    def test_parses_only_the_matching_slot(self):
        payload = bytearray(pack_inode_block([make_inode(inum=3), make_inode(inum=8)], 4096))
        payload[16] = 99  # slot 0's file type byte: unparseable
        assert find_inode(bytes(payload), 8).inum == 8
        with pytest.raises(CorruptionError):
            find_inode(bytes(payload), 3)


class TestGeometryHelpers:
    def test_addrs_per_indirect(self):
        assert addrs_per_indirect(4096) == 512

    def test_max_file_blocks(self):
        assert max_file_blocks(4096) == NUM_DIRECT + 512 + 512 * 512
