"""Tests for the file block map (direct/indirect/double-indirect)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import pack_addrs
from repro.core.constants import NULL_ADDR, NUM_DIRECT
from repro.core.errors import InvalidOperationError
from repro.core.inode import Inode
from repro.core.mapping import L1, L2, FileMap, child
from repro.tools.lfsck import _file_blocks

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
        assert L1 in fmap.dirty

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
        old = fmap.place(L1, 500)
        assert old == NULL_ADDR
        assert fmap.inode.indirect == 500
        assert L1 not in fmap.dirty

    def test_pack_l1_roundtrip(self, fmap):
        fmap.ensure_structures(NUM_DIRECT + 2)
        fmap.set(NUM_DIRECT + 2, 33)
        payload = fmap.pack(L1)
        from repro.core.blocks import unpack_addrs

        assert unpack_addrs(payload, PER)[2] == 33


class TestDoubleIndirect:
    def test_set_get(self, fmap):
        fbn = NUM_DIRECT + PER + PER + 3  # child index 1, slot 3
        fmap.ensure_structures(fbn)
        fmap.set(fbn, 123)
        assert fmap.get(fbn) == 123
        assert child(1) in fmap.dirty

    def test_place_child_updates_l2(self, fmap):
        fbn = NUM_DIRECT + PER + 3
        fmap.ensure_structures(fbn)
        fmap.set(fbn, 9)
        old = fmap.place(child(0), 600)
        assert old == NULL_ADDR
        assert fmap.node_addr(child(0)) == 600
        assert L2 in fmap.dirty

    def test_place_l2_updates_inode(self, fmap):
        fbn = NUM_DIRECT + PER
        fmap.ensure_structures(fbn)
        fmap.place(L2, 700)
        assert fmap.inode.dindirect == 700

    def test_a_never_written_double_goes_with_its_children(self, fmap):
        fmap.set(NUM_DIRECT + PER + 1, 5)  # no ensure_structures: L2 unmarked
        assert fmap.dirty == {child(0)}
        assert list(fmap.write_order()) == [child(0), L2]

    def test_beyond_max_rejected(self, fmap):
        with pytest.raises(InvalidOperationError):
            fmap.get(NUM_DIRECT + PER + PER * PER)


def children(fmap: FileMap) -> set[int]:
    """The dirty nodes under the double-indirect block."""
    return {node for node in fmap.dirty if node not in (L1, L2)}


LAST_DOUBLE = NUM_DIRECT + PER + PER * PER - 1
BOUNDARIES = [0, NUM_DIRECT - 1, NUM_DIRECT, NUM_DIRECT + PER - 1, NUM_DIRECT + PER, LAST_DOUBLE]


class TestLevelBoundaries:
    """Every file block number where the map changes level, against a dict."""

    @staticmethod
    def fresh(store):
        dirtied = []
        return FileMap(Inode(inum=7), BS, store.read, dirtied.append), dirtied

    def test_set_and_get_match_a_dict_model(self, store):
        fmap, _ = self.fresh(store)
        model = {}
        for round_no in (1, 2):
            for i, fbn in enumerate(BOUNDARIES):
                addr = 1000 * round_no + i
                fmap.ensure_structures(fbn)
                assert fmap.set(fbn, addr) == model.get(fbn, NULL_ADDR)
                model[fbn] = addr
                assert fmap.get(fbn) == addr
        neighbours = {fbn + d for fbn in BOUNDARIES for d in (-1, 1)} - set(BOUNDARIES)
        for fbn in sorted(neighbours - {-1, LAST_DOUBLE + 1}):
            assert fmap.get(fbn) == NULL_ADDR, fbn
        # write the indirect blocks out and read the map back from them
        for node in sorted(children(fmap)):
            addr = 5000 + node
            store.blocks[addr] = fmap.pack(node)
            fmap.place(node, addr)
        store.blocks[6000] = fmap.pack(L1)
        fmap.place(L1, 6000)
        store.blocks[6001] = fmap.pack(L2)
        fmap.place(L2, 6001)
        reloaded = FileMap(fmap.inode, BS, store.read, lambda inum: None)
        assert {fbn: reloaded.get(fbn) for fbn in BOUNDARIES} == model

    @pytest.mark.parametrize("fbn", BOUNDARIES)
    def test_set_dirties_exactly_the_structure_holding_the_pointer(self, store, fbn):
        fmap, dirtied = self.fresh(store)
        fmap.set(fbn, 55)
        if fbn < NUM_DIRECT:
            assert dirtied == [7]
            assert L1 not in fmap.dirty and not children(fmap)
        elif fbn < NUM_DIRECT + PER:
            assert dirtied == []
            assert L1 in fmap.dirty and not children(fmap)
        else:
            assert dirtied == []
            assert L1 not in fmap.dirty
            assert children(fmap) == {child((fbn - NUM_DIRECT - PER) // PER)}

    @pytest.mark.parametrize("fbn", [-1, LAST_DOUBLE + 1])
    def test_out_of_range_is_refused_by_every_entry_point(self, store, fbn):
        fmap, dirtied = self.fresh(store)
        for call in (fmap.get, lambda f: fmap.set(f, 9), fmap.ensure_structures):
            with pytest.raises(InvalidOperationError):
                call(fbn)
        assert dirtied == [] and store.reads == 0
        assert not fmap.dirty


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
        fmap.place(L1, 800)
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


FIRST_DOUBLE = NUM_DIRECT + PER

# file block numbers in every range: direct, single-indirect, and the
# first four children of the double-indirect block
fbn_st = st.one_of(
    st.integers(0, NUM_DIRECT - 1),
    st.integers(NUM_DIRECT, FIRST_DOUBLE - 1),
    st.integers(FIRST_DOUBLE, FIRST_DOUBLE + 4 * PER - 1),
)
op_st = st.one_of(
    st.tuples(st.just("set"), fbn_st),
    st.tuples(st.just("ensure"), fbn_st),
    st.tuples(st.just("clear"), fbn_st),
    st.tuples(st.just("flush"), st.just(0)),
    st.tuples(st.just("reload"), st.just(0)),
)


class LogStore:
    """An append-only block store: every write gets a fresh address and
    reading an address never written is an error."""

    def __init__(self):
        self.blocks: dict[int, bytes] = {}

    def read(self, addr: int) -> bytes:
        return self.blocks[addr]

    def append(self, payload: bytes) -> int:
        addr = 10_000 + len(self.blocks)
        self.blocks[addr] = payload
        return addr


def flush_map(fmap: FileMap, store: LogStore) -> None:
    """Pack and place every dirty node, in the order a flush writes them."""
    for node in fmap.write_order():
        fmap.place(node, store.append(fmap.pack(node)))
    assert not fmap.dirty


class TestIndependentWalkAgrees:
    """lfsck's ``_file_blocks`` reads the tree from the store alone; after
    any mix of writes, truncates and flushes it must see exactly the
    blocks ``all_block_addrs`` reports, with the data a dict model holds."""

    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(op_st, max_size=40))
    def test_walk_matches_all_block_addrs(self, ops):
        store = LogStore()
        inode = Inode(inum=3)
        fmap = FileMap(inode, BS, store.read, lambda inum: None)
        model: dict[int, int] = {}
        next_data = 1
        for op, fbn in ops:
            nblocks = inode.nblocks(BS)
            if op == "set":
                assert fmap.set(fbn, next_data) == model.get(fbn, NULL_ADDR)
                model[fbn] = next_data
                next_data += 1
                inode.size = max(inode.size, (fbn + 1) * BS)
            elif op == "ensure":
                fmap.ensure_structures(fbn)
            elif op == "clear" and fbn < nblocks:
                freed = fmap.clear_from(fbn, nblocks)
                gone = {f for f in model if f >= fbn}
                assert {a for k, a in freed if k == "data"} == {model.pop(f) for f in gone}
                inode.size = fbn * BS
            elif op == "flush":
                flush_map(fmap, store)
            elif op == "reload":
                flush_map(fmap, store)
                fmap = FileMap(inode, BS, store.read, lambda inum: None)
        flush_map(fmap, store)

        nblocks = inode.nblocks(BS)
        walked = _file_blocks(store, BS, inode)
        assert walked == fmap.all_block_addrs(nblocks)
        assert sorted(a for k, a in walked if k == "data") == sorted(model.values())
        reloaded = FileMap(inode, BS, store.read, lambda inum: None)
        assert reloaded.all_block_addrs(nblocks) == walked
        for fbn, addr in model.items():
            assert reloaded.get(fbn) == addr
