"""Tests for low-level serialization helpers."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.blocks import (
    checksum,
    pack_addr_list,
    pack_addrs,
    require,
    splice,
    unpack_addr_list,
    unpack_addrs,
)
from repro.core.errors import CorruptionError

U64_MAX = 2**64 - 1


def reference_pack_addrs(addrs, block_size):
    """One address at a time: the packer ``pack_addrs`` must match."""
    per_block = block_size // 8
    if len(addrs) > per_block:
        raise ValueError(f"{len(addrs)} addresses exceed block capacity {per_block}")
    return b"".join(struct.pack("<Q", a) for a in addrs).ljust(block_size, b"\0")


@st.composite
def addr_blocks(draw):
    block_size = draw(st.sampled_from([512, 1024, 4096]))
    addr = st.one_of(st.sampled_from([0, 1, U64_MAX]), st.integers(0, U64_MAX))
    addrs = draw(st.lists(addr, max_size=block_size // 8))
    return addrs, block_size


class TestPackAddrsMatchesReference:
    @given(addr_blocks())
    def test_same_bytes_and_roundtrip(self, case):
        addrs, block_size = case
        payload = pack_addrs(addrs, block_size)
        assert payload == reference_pack_addrs(addrs, block_size)
        assert len(payload) == block_size
        assert unpack_addrs(payload, len(addrs)) == addrs

    @pytest.mark.parametrize("block_size", [512, 1024, 4096])
    def test_full_block_and_one_past_capacity(self, block_size):
        per = block_size // 8
        full = [U64_MAX] * per
        assert pack_addrs(full, block_size) == reference_pack_addrs(full, block_size)
        for packer in (pack_addrs, reference_pack_addrs):
            with pytest.raises(ValueError, match="exceed block capacity"):
                packer([0] * (per + 1), block_size)

    @pytest.mark.parametrize("bad", [-1, 2**64])
    @pytest.mark.parametrize("block_size", [512, 1024, 4096])
    def test_address_outside_u64_is_struct_error(self, bad, block_size):
        for packer in (pack_addrs, reference_pack_addrs):
            with pytest.raises(struct.error):
                packer([1, bad, 2], block_size)


class TestAddrPacking:
    def test_roundtrip(self):
        addrs = [1, 2, 3, 0xFFFFFFFFFFFF]
        payload = pack_addrs(addrs, 4096)
        assert unpack_addrs(payload, 4) == addrs

    def test_payload_is_block_sized(self):
        assert len(pack_addrs([1], 4096)) == 4096

    def test_too_many_addrs_rejected(self):
        with pytest.raises(ValueError):
            pack_addrs(list(range(513)), 4096)

    def test_unpack_truncated_raises(self):
        with pytest.raises(CorruptionError):
            unpack_addrs(b"\0" * 8, 2)

    def test_unpack_zero_count(self):
        assert unpack_addrs(b"", 0) == []

    def test_list_spans_blocks(self):
        addrs = list(range(1000))
        blocks = pack_addr_list(addrs, 4096)
        assert len(blocks) == 2
        assert unpack_addr_list(blocks, 1000, 4096) == addrs

    def test_empty_list_gives_one_block(self):
        blocks = pack_addr_list([], 4096)
        assert len(blocks) == 1
        assert unpack_addr_list(blocks, 0, 4096) == []

    def test_unpack_list_truncated_raises(self):
        blocks = pack_addr_list(list(range(10)), 4096)
        with pytest.raises(CorruptionError):
            unpack_addr_list(blocks[:0], 10, 4096)


class TestChecksum:
    def test_deterministic(self):
        assert checksum([b"abc", b"def"]) == checksum([b"abc", b"def"])

    def test_order_sensitive(self):
        assert checksum([b"abc", b"def"]) != checksum([b"def", b"abc"])

    def test_detects_corruption(self):
        assert checksum([b"abcd"]) != checksum([b"abce"])

    def test_empty(self):
        assert checksum([]) == 0


class TestSplice:
    @given(st.binary(min_size=1, max_size=64), st.data())
    def test_matches_slice_assignment(self, block, data):
        at = data.draw(st.integers(0, len(block) - 1))
        piece = data.draw(st.binary(max_size=len(block) - at))
        expected = bytearray(block)
        expected[at : at + len(piece)] = piece
        for kind in (bytes, bytearray, memoryview):
            got = splice(block, at, kind(piece))
            assert type(got) is bytes and got == bytes(expected)


class TestRequire:
    def test_passes(self):
        require(True, "nope")

    def test_raises(self):
        with pytest.raises(CorruptionError, match="boom"):
            require(False, "boom")
