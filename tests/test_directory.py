"""Tests for the directory block format and the shared in-memory directory."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import directory as d
from repro.core.config import LFSConfig
from repro.core.constants import ROOT_INUM
from repro.core.directory import Directory
from repro.core.errors import CorruptionError, InvalidOperationError
from repro.core.filesystem import LFS
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.ffs.filesystem import FFS, FFSConfig


class TestNames:
    def test_validate_ok(self):
        assert d.validate_name("hello.txt") == b"hello.txt"

    @pytest.mark.parametrize("bad", ["", ".", "..", "a/b", "a\0b"])
    def test_validate_rejects(self, bad):
        with pytest.raises(InvalidOperationError):
            d.validate_name(bad)

    def test_too_long_rejected(self):
        with pytest.raises(InvalidOperationError):
            d.validate_name("x" * 256)

    def test_utf8_names(self):
        assert d.validate_name("日本語") == "日本語".encode("utf-8")

    def test_entry_size_counts_encoded_bytes(self):
        assert d.entry_size("ab") == 10 + 2
        assert d.entry_size("é") == 10 + 2


class TestPackParse:
    def test_roundtrip(self):
        entries = [("a", 1), ("bb", 2), ("ccc", 3)]
        payload = d.pack_block(entries, 4096)
        assert d.parse_block(payload) == entries

    def test_block_is_padded(self):
        assert len(d.pack_block([("x", 1)], 4096)) == 4096

    def test_empty_block(self):
        assert d.parse_block(d.pack_block([], 4096)) == []

    def test_overflow_rejected(self):
        entries = [(f"name{i:04}", i) for i in range(400)]
        with pytest.raises(InvalidOperationError):
            d.pack_block(entries, 4096)

    def test_unicode_roundtrip(self):
        entries = [("ファイル", 9)]
        assert d.parse_block(d.pack_block(entries, 4096)) == entries

    def test_corrupt_overrun_raises(self):
        import struct

        raw = struct.pack("<QH", 1, 500) + b"short"
        with pytest.raises(CorruptionError):
            d.parse_block(raw)

    def test_parse_stops_at_zero_namelen(self):
        payload = d.pack_block([("a", 1)], 4096)
        assert len(d.parse_block(payload)) == 1


class TestRoomAccounting:
    """``Directory.used`` is what a block's room check reads."""

    def test_block_has_room(self):
        directory = Directory(4096)
        directory.insert("a", 1, 0)
        assert directory.used[0] + d.entry_size("b") <= 4096

    def test_block_full(self):
        directory = Directory(4096)
        for i in range(230):
            directory.insert(f"n{i:06}", i + 1, 0)
        free = 4096 - directory.used[0]
        assert free == 4096 - 230 * (10 + 7)
        name = "x" * (free - 10 + 1)  # one byte too long for what is left
        with pytest.raises(InvalidOperationError):
            directory.insert(name, 999, 0)
        directory.insert(name[:-1], 999, 0)  # exactly fills the block
        assert directory.used[0] == 4096
        assert directory.payload(0) == d.pack_block(
            [(f"n{i:06}", i + 1) for i in range(230)] + [(name[:-1], 999)], 4096
        )

    def test_used_bytes(self):
        directory = Directory(4096)
        directory.insert("ab", 1, 0)
        directory.insert("c", 2, 0)
        assert directory.used == [(10 + 2) + (10 + 1)]
        directory.remove("ab")
        assert directory.used == [10 + 1]


class TestDirectory:
    def test_load_drops_inode_zero_entries(self):
        payload = d.pack_block([("a", 1), ("hole", 0), ("b", 2)], 512)
        directory = Directory.load([payload], 512)
        assert directory.names() == ["a", "b"]
        assert directory.used == [2 * (10 + 1)]
        assert directory.payload(0) == d.pack_block([("a", 1), ("b", 2)], 512)

    def test_load_keeps_records_as_slices_of_the_block(self):
        payload = d.pack_block([("a", 1), ("日本", 2)], 512)
        directory = Directory.load([payload], 512)
        assert b"".join(directory.records[0]) == payload[: directory.used[0]]
        assert directory.index == {"a": (1, 0), "日本": (2, 0)}

    @pytest.mark.parametrize("bad", ["", "..", "a/b", "a\0b", "y" * 256])
    def test_invalid_name_refused_at_insert(self, bad):
        directory = Directory.load([d.pack_block([("a", 1)], 512)], 512)
        with pytest.raises(InvalidOperationError):
            directory.insert(bad, 7, 0)
        assert directory.index == {"a": (1, 0)}
        assert directory.used == [11]
        assert directory.payload(0) == d.pack_block([("a", 1)], 512)

    def test_recovery_path_insert_refuses_invalid_name(self):
        # roll-forward replays names straight into LFS._dir_insert
        disk = Disk(DiskGeometry.wren4(block_size=1024, num_blocks=4096))
        fs = LFS.format(disk, LFSConfig(block_size=1024, segment_bytes=64 * 1024))
        fs.write_file("/keep", b"k")
        with pytest.raises(InvalidOperationError):
            fs._dir_insert(ROOT_INUM, "bad/name", 5)
        assert fs.readdir("/") == ["keep"]
        assert fs.cache.lookup(ROOT_INUM, 0).payload == d.pack_block(
            [("keep", fs.stat("/keep").inum)], 1024
        )


# -- differential: Directory behind each file system vs. the old rule -----

_CHARS = st.sampled_from(["a", "Z", "7", "é", "ß", "日", "本", "😀"])
#: 1-255 encoded bytes, multi-byte UTF-8 included; a repeated stem makes
#: long names common, so a few dozen inserts spill into several blocks
name_st = st.builds(
    lambda stem, n: (stem * n).encode("utf-8")[:255].decode("utf-8", "ignore"),
    st.lists(_CHARS, min_size=1, max_size=6).map("".join),
    st.integers(min_value=1, max_value=100),
)
op_st = st.one_of(
    st.tuples(st.just("insert"), name_st),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=10**6)),
)


def old_rule(blocks, name, bs, last_first):
    """The block the old ``block_has_room`` loop picked for ``name``."""

    def has_room(entries):
        return sum(d.entry_size(n) for n, _ in entries) + d.entry_size(name) <= bs

    if last_first and blocks and has_room(blocks[-1]):
        return len(blocks) - 1
    for idx, entries in enumerate(blocks):
        if has_room(entries):
            return idx
    return len(blocks)


def _lfs(bs):
    disk = Disk(DiskGeometry.wren4(block_size=bs, num_blocks=8192))
    config = LFSConfig(block_size=bs, segment_bytes=64 * bs, max_inodes=512, cache_blocks=1024)
    fs = LFS.format(disk, config)
    return fs, lambda b: fs.cache.lookup(ROOT_INUM, b).payload


def _ffs(bs):
    disk = Disk(DiskGeometry.wren4(block_size=bs, num_blocks=4096))
    fs = FFS.format(disk, FFSConfig(block_size=bs, max_inodes=512, num_groups=2))
    return fs, lambda b: disk.peek(fs._filemap(ROOT_INUM).get(b))


class TestDirectoryDifferential:
    """Random inserts/removes through each file system's public API.

    After every operation each block as written (LFS: the cache entry the
    next flush logs; FFS: the synchronously written disk block) equals
    ``pack_block`` over the oracle's live entries, each insert lands where
    the old ``block_has_room`` loop put it, and ``Directory.load`` of the
    written blocks rebuilds the same directory.
    """

    @pytest.mark.parametrize("fs_kind", ["lfs", "ffs"])
    def test_exact_fit_shares_the_block(self, fs_kind):
        fs, written = (_lfs if fs_kind == "lfs" else _ffs)(512)
        a, b = fs.create("/" + "a" * 246), fs.create("/" + "b" * 246)  # 2 x 256 = 512
        c = fs.create("/c")
        assert written(0) == d.pack_block([("a" * 246, a), ("b" * 246, b)], 512)
        assert written(1) == d.pack_block([("c", c)], 512)

    @pytest.mark.parametrize("fs_kind, target", [("lfs", 1), ("ffs", 0)])
    def test_exact_fit_in_the_last_block(self, fs_kind, target):
        fs, written = (_lfs if fs_kind == "lfs" else _ffs)(512)
        fs.create("/" + "a" * 255)  # 265 bytes in block 0
        b = fs.create("/" + "b" * 246)  # 256 bytes: not in block 0's 247 left
        fs.unlink("/" + "a" * 255)
        c = fs.create("/" + "c" * 246)  # fills block 1 exactly, fits block 0 too
        want = [[], [("b" * 246, b)]]
        want[target].append(("c" * 246, c))
        assert [written(0), written(1)] == [d.pack_block(e, 512) for e in want]

    @pytest.mark.parametrize("fs_kind", ["lfs", "ffs"])
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(bs=st.sampled_from([512, 1024, 4096]), ops=st.lists(op_st, max_size=40))
    def test_matches_pack_block_oracle(self, fs_kind, bs, ops):
        fs, written = (_lfs if fs_kind == "lfs" else _ffs)(bs)
        blocks: list[list[tuple[str, int]]] = []  # the oracle
        for op, arg in ops:
            if op == "insert":
                if any(arg == n for entries in blocks for n, _ in entries):
                    continue
                target = old_rule(blocks, arg, bs, last_first=fs_kind == "lfs")
                inum = fs.create("/" + arg)
                if target == len(blocks):
                    blocks.append([])
                blocks[target].append((arg, inum))
                assert fs._dir_states[ROOT_INUM].index[arg] == (inum, target)
            else:
                live = [n for entries in blocks for n, _ in entries]
                if not live:
                    continue
                name = live[arg % len(live)]
                fs.unlink("/" + name)
                for entries in blocks:
                    entries[:] = [e for e in entries if e[0] != name]
            payloads = [written(b) for b in range(len(blocks))]
            assert payloads == [d.pack_block(entries, bs) for entries in blocks]
        state = fs._dir_states[ROOT_INUM]
        loaded = Directory.load([written(b) for b in range(len(blocks))], bs)
        assert (loaded.records, loaded.used, loaded.index) == (
            state.records,
            state.used,
            state.index,
        )
