"""Tests for the file block map (direct/indirect/double-indirect)."""

import pytest

from repro.core.blocks import pack_addrs
from repro.core.constants import NULL_ADDR, NUM_DIRECT
from repro.core.errors import InvalidOperationError
from repro.core.inode import Inode
from repro.core.mapping import FileMap

BS = 1024  # small blocks -> 128 addrs per indirect, small double range
PER = BS // 8


class FakeStore:
    """Backs FileMap's read_block hook with a dict."""

    def __init__(self):
        self.blocks: dict[int, bytes] = {}
        self.reads = 0

    def read(self, addr: int) -> bytes:
        self.reads += 1
        return self.blocks.get(addr, bytes(BS))


@pytest.fixture
def store():
    return FakeStore()


@pytest.fixture
def fmap(store):
    inode = Inode(inum=1)
    dirty = []
    return FileMap(inode, BS, store.read, lambda inum: dirty.append(inum))


class TestDirect:
    def test_get_unset_is_null(self, fmap):
        assert fmap.get(0) == NULL_ADDR

    def test_set_get(self, fmap):
        old = fmap.set(3, 77)
        assert old == NULL_ADDR
        assert fmap.get(3) == 77
        assert fmap.inode.direct[3] == 77

    def test_set_returns_old(self, fmap):
        fmap.set(0, 5)
        assert fmap.set(0, 6) == 5

    def test_negative_fbn_rejected(self, fmap):
        with pytest.raises(InvalidOperationError):
            fmap.get(-1)


class TestSingleIndirect:
    def test_set_get_in_memory(self, fmap):
        fbn = NUM_DIRECT + 5
        fmap.ensure_structures(fbn)
        fmap.set(fbn, 99)
        assert fmap.get(fbn) == 99
        assert fmap.l1_dirty

    def test_loads_from_disk(self, store):
        addrs = [NULL_ADDR] * PER
        addrs[7] = 4242
        store.blocks[50] = pack_addrs(addrs, BS)
        inode = Inode(inum=1, indirect=50)
        fmap = FileMap(inode, BS, store.read, lambda inum: None)
        assert fmap.get(NUM_DIRECT + 7) == 4242
        assert store.reads == 1

    def test_unset_indirect_get_is_null_without_read(self, fmap, store):
        assert fmap.get(NUM_DIRECT + 3) == NULL_ADDR
        assert store.reads == 0

    def test_place_l1_updates_inode(self, fmap):
        fmap.ensure_structures(NUM_DIRECT)
        fmap.set(NUM_DIRECT, 11)
        old = fmap.place_l1(500)
        assert old == NULL_ADDR
        assert fmap.inode.indirect == 500
        assert not fmap.l1_dirty

    def test_pack_l1_roundtrip(self, fmap):
        fmap.ensure_structures(NUM_DIRECT + 2)
        fmap.set(NUM_DIRECT + 2, 33)
        payload = fmap.pack_l1()
        from repro.core.blocks import unpack_addrs

        assert unpack_addrs(payload, PER)[2] == 33


class TestDoubleIndirect:
    def test_set_get(self, fmap):
        fbn = NUM_DIRECT + PER + PER + 3  # child index 1, slot 3
        fmap.ensure_structures(fbn)
        fmap.set(fbn, 123)
        assert fmap.get(fbn) == 123
        assert 1 in fmap.dirty_children

    def test_place_child_updates_l2(self, fmap):
        fbn = NUM_DIRECT + PER + 3
        fmap.ensure_structures(fbn)
        fmap.set(fbn, 9)
        old = fmap.place_child(0, 600)
        assert old == NULL_ADDR
        assert fmap._load_l2()[0] == 600
        assert fmap.l2_dirty

    def test_place_l2_updates_inode(self, fmap):
        fbn = NUM_DIRECT + PER
        fmap.ensure_structures(fbn)
        fmap.place_l2(700)
        assert fmap.inode.dindirect == 700

    def test_beyond_max_rejected(self, fmap):
        with pytest.raises(InvalidOperationError):
            fmap.get(NUM_DIRECT + PER + PER * PER)


class TestEnumeration:
    def test_all_block_addrs_direct_only(self, fmap):
        fmap.set(0, 10)
        fmap.set(2, 12)
        fmap.inode.size = 3 * BS
        got = fmap.all_block_addrs(3)
        assert ("data", 10) in got and ("data", 12) in got
        assert all(kind == "data" for kind, _ in got)

    def test_all_block_addrs_includes_indirect_blocks(self, store):
        inode = Inode(inum=1, indirect=50, size=(NUM_DIRECT + 2) * BS)
        addrs = [NULL_ADDR] * PER
        addrs[0], addrs[1] = 100, 101
        store.blocks[50] = pack_addrs(addrs, BS)
        fmap = FileMap(inode, BS, store.read, lambda inum: None)
        got = fmap.all_block_addrs(NUM_DIRECT + 2)
        assert ("indirect", 50) in got
        assert ("data", 100) in got and ("data", 101) in got

    def test_clear_from_frees_tail(self, fmap):
        for fbn in range(5):
            fmap.set(fbn, 100 + fbn)
        freed = fmap.clear_from(2, 5)
        assert sorted(addr for _, addr in freed) == [102, 103, 104]
        assert fmap.get(1) == 101
        assert fmap.get(3) == NULL_ADDR

    def test_clear_from_zero_frees_indirect_blocks(self, fmap):
        fbn = NUM_DIRECT + 1
        fmap.ensure_structures(fbn)
        fmap.set(fbn, 55)
        fmap.place_l1(800)
        freed = fmap.clear_from(0, fbn + 1)
        kinds = [k for k, _ in freed]
        assert "indirect" in kinds
        assert ("data", 55) in freed
        assert fmap.inode.indirect == NULL_ADDR

    def test_clear_from_partial_keeps_indirect(self, fmap):
        a, b = NUM_DIRECT, NUM_DIRECT + 4
        fmap.ensure_structures(a)
        fmap.ensure_structures(b)
        fmap.set(a, 70)
        fmap.set(b, 74)
        freed = fmap.clear_from(b, b + 1)
        assert freed == [("data", 74)]
        assert fmap.get(a) == 70
