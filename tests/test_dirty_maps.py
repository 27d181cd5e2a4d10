"""The flush walks only the file maps that have indirect blocks to write.

``LFS._dirty_maps`` must hold the inum of every cached ``FileMap`` whose
``dirty`` node set is not empty, whatever filled it: a flush's
``ensure_structures``, a truncate, a cleaner revive, or a placement. A
map it misses keeps pointers that never reach the log.
"""

from __future__ import annotations

import pytest

from repro.core.constants import NULL_ADDR, NUM_DIRECT, BlockKind
from repro.core.errors import MediaError
from repro.core.filesystem import LFS
from repro.core.inode import addrs_per_indirect
from repro.core.mapping import L1, child
from repro.core.summary import SummaryEntry
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.tools.lfsck import check_filesystem

from tests.conftest import small_config

BS = 4096
PER = addrs_per_indirect(BS)
L1_FBN = NUM_DIRECT + 3                 # under the single-indirect block
CHILD0_FBN = NUM_DIRECT + PER + 5       # under child 0 of the double
CHILD1_FBN = NUM_DIRECT + 2 * PER + 7   # under child 1 of the double


def make_fs(num_blocks: int = 4096, **overrides) -> tuple[Disk, LFS]:
    """A small LFS that flushes only when told to."""
    overrides.setdefault("write_buffer_blocks", 1024)
    disk = Disk(DiskGeometry.wren4(num_blocks=num_blocks))
    return disk, LFS.format(disk, small_config(**overrides))


def is_dirty(fmap) -> bool:
    return bool(fmap.dirty)


def assert_no_missed_map(fs: LFS) -> None:
    missed = [inum for inum, m in fs._filemaps.items() if is_dirty(m) and inum not in fs._dirty_maps]
    assert not missed, f"dirty maps missing from the dirty set: {missed}"


def check_every_append(fs: LFS) -> None:
    """Check the invariant around every log append, where the flush has
    just marked the indirect blocks it is about to write."""
    real = fs.writer.append

    def checked(items, **kwargs):
        assert_no_missed_map(fs)
        try:
            return real(items, **kwargs)
        finally:
            assert_no_missed_map(fs)

    fs.writer.append = checked


def settle(fs: LFS) -> None:
    """Flush until a walk prunes every map the flush before it cleaned:
    afterwards only a new mark can put an inum back. (Placing a child
    re-marks its double-indirect block, which a truncate left clean, so
    that block goes out one flush later.)"""
    for _ in range(3):
        fs.flush()
        if not fs._dirty_maps:
            break
    assert not fs._dirty_maps
    assert_no_missed_map(fs)


def block(tag: int) -> bytes:
    return bytes([tag % 256]) * BS


def write_block(fs: LFS, path: str, fbn: int, tag: int) -> None:
    fs.write(path, block(tag), fbn * BS)


class TestDirtySetNeverMissesAMap:
    def test_writes_truncates_and_unlink(self):
        # room for the root and four files, so a new file reuses a freed inum
        _, fs = make_fs(max_inodes=6)
        check_every_append(fs)
        expect: dict[str, dict[int, int]] = {}

        def put(path, fbn, tag):
            if not fs.exists(path):
                fs.create(path)
            write_block(fs, path, fbn, tag)
            expect.setdefault(path, {})[fbn] = tag
            assert_no_missed_map(fs)

        # direct, single-indirect and double-indirect writes
        put("/direct", 2, 1)
        put("/single", L1_FBN, 2)
        put("/double", CHILD1_FBN, 3)
        for fbn, tag in ((0, 4), (L1_FBN, 5), (CHILD0_FBN, 6), (CHILD1_FBN, 7)):
            put("/big", fbn, tag)
        settle(fs)

        big = fs.stat("/big").inum
        # truncate into each range; every cut marks an indirect block,
        # with no flush in between to re-mark it
        for keep_fbn in (CHILD1_FBN, CHILD0_FBN, L1_FBN):
            fs.truncate("/big", keep_fbn * BS)
            expect["/big"] = {f: t for f, t in expect["/big"].items() if f < keep_fbn}
            assert is_dirty(fs.filemap(big))
            assert big in fs._dirty_maps
            settle(fs)
        fs.truncate("/big", BS)
        expect["/big"] = {0: 4}
        assert_no_missed_map(fs)
        settle(fs)

        # unlink a file whose map is dirty: the flush drops its inum
        fs.truncate("/double", CHILD0_FBN * BS)
        doomed = fs.stat("/double").inum
        assert doomed in fs._dirty_maps
        fs.unlink("/double")
        del expect["/double"]
        fs.flush()
        assert doomed not in fs._dirty_maps
        assert_no_missed_map(fs)

        # the freed inum comes back for a new file, with a new map
        reused = fs.create("/reuse")
        assert reused == doomed
        put("/reuse", CHILD0_FBN, 8)
        settle(fs)

        fs.unmount()
        fs = LFS.mount(fs.disk, fs.config)
        for path, blocks in expect.items():
            for fbn, tag in blocks.items():
                assert fs.read(path, fbn * BS, BS) == block(tag), (path, fbn)
        fs.unmount()
        assert check_filesystem(fs.disk).ok

    @pytest.mark.parametrize(
        "mark",
        [
            lambda m: m.set(L1_FBN, m.get(L1_FBN)),
            lambda m: m.set(CHILD1_FBN, m.get(CHILD1_FBN)),
            lambda m: m.ensure_structures(L1_FBN),
            lambda m: m.ensure_structures(CHILD0_FBN),
            # a move and back: the child's home is unchanged, its parent dirty
            lambda m: m.place(child(1), m.place(child(1), NULL_ADDR)),
        ],
        ids=["set-l1", "set-child", "ensure-l1", "ensure-child", "place-child"],
    )
    def test_every_mark_reaches_the_set(self, mark):
        # Each FileMap entry point that sets a dirty flag, called on its
        # own on a map the set has already let go of (the truncates above
        # cover ``clear_from``).
        _, fs = make_fs()
        fs.create("/big")
        for fbn, tag in ((L1_FBN, 1), (CHILD0_FBN, 2), (CHILD1_FBN, 3)):
            write_block(fs, "/big", fbn, tag)
        settle(fs)
        inum = fs.stat("/big").inum
        fmap = fs.filemap(inum)
        mark(fmap)
        assert is_dirty(fmap)
        assert inum in fs._dirty_maps
        settle(fs)
        fs.unmount()
        assert check_filesystem(fs.disk).ok

    def test_cleaner_revives_every_indirect_kind(self):
        # A victim segment can hold a file's indirect blocks without its
        # data (the data moved on, the pointers did not), so only the
        # revive itself can put the map back in the set.
        _, fs = make_fs()
        check_every_append(fs)
        fs.create("/big")
        for fbn, tag in ((L1_FBN, 1), (CHILD0_FBN, 2), (CHILD1_FBN, 3)):
            write_block(fs, "/big", fbn, tag)
        settle(fs)
        inum = fs.stat("/big").inum
        version = fs.imap.version_of(inum)

        def homes():
            inode = fs.get_inode(inum)
            fmap = fs.filemap(inum)
            return {
                (BlockKind.INDIRECT, 0): inode.indirect,
                (BlockKind.INDIRECT, 1): fmap.node_addr(child(0)),
                (BlockKind.INDIRECT, 2): fmap.node_addr(child(1)),
                (BlockKind.DINDIRECT, 0): inode.dindirect,
            }

        for kind, offset in homes():
            assert inum not in fs._dirty_maps
            addr = homes()[(kind, offset)]
            entry = SummaryEntry(kind=kind, inum=inum, offset=offset, version=version)
            assert fs.cleaner._revive(entry, addr, lambda a, e: fs.disk.read_block(a))
            assert inum in fs._dirty_maps
            assert_no_missed_map(fs)
            settle(fs)
            assert homes()[(kind, offset)] != addr

        fs.unmount()
        fs = LFS.mount(fs.disk, fs.config)
        for fbn, tag in ((L1_FBN, 1), (CHILD0_FBN, 2), (CHILD1_FBN, 3)):
            assert fs.read("/big", fbn * BS, BS) == block(tag)
        fs.unmount()
        assert check_filesystem(fs.disk).ok

    def test_clean_now_and_crash_mount(self):
        disk, fs = make_fs()
        check_every_append(fs)
        tags = {}
        for round_no in range(12):
            for i in range(8):
                path = f"/f{i}"
                if not fs.exists(path):
                    fs.create(path)
                # the first round fills every range; later ones overwrite
                # only a direct block, so the first round's segments stay
                # partly live, indirect blocks included
                for fbn in (1, L1_FBN, CHILD0_FBN) if round_no == 0 else (1,):
                    write_block(fs, path, fbn, round_no * 8 + i)
                    tags[(path, fbn)] = round_no * 8 + i
            fs.flush()
            assert_no_missed_map(fs)
        settle(fs)
        # clean everything cleanable
        assert fs.clean_now(fs.usage.num_segments) > 0
        assert fs.cleaner.stats.live_blocks_moved > 0
        assert_no_missed_map(fs)

        # acknowledged by sync, then lost from memory: roll-forward
        # rebuilds the maps
        for i in range(8):
            write_block(fs, f"/f{i}", CHILD1_FBN, 200 + i)
            tags[(f"/f{i}", CHILD1_FBN)] = 200 + i
        fs.sync()
        fs.crash()
        disk.power_on()
        fs = LFS.mount(disk, fs.config)
        check_every_append(fs)
        assert_no_missed_map(fs)
        for i in range(8):
            fs.truncate(f"/f{i}", (CHILD0_FBN + 1) * BS)
            del tags[(f"/f{i}", CHILD1_FBN)]
            assert_no_missed_map(fs)
        fs.flush()
        for (path, fbn), tag in tags.items():
            assert fs.read(path, fbn * BS, BS) == block(tag), (path, fbn)
        fs.unmount()
        assert check_filesystem(disk).ok


class TestFailedFlushLosesNothing:
    def test_next_flush_writes_the_same_indirect_blocks(self):
        disk, fs = make_fs()
        # /d gets the lowest inum, so its data leads the flush and its
        # indirect blocks trail every other file's data
        fs.create("/d")
        for fbn, tag in ((0, 1), (L1_FBN, 2), (CHILD1_FBN, 3)):
            write_block(fs, "/d", fbn, tag)
        victims = [f"/v{i}" for i in range(8)]
        for i, path in enumerate(victims):
            fs.write_file(path, block(10 + i) * NUM_DIRECT)
        d = fs.stat("/d").inum

        # the flush's second partial write opens the reserved segment;
        # a write fault there outlasts the device's retries
        writer = fs.writer
        assert writer._remaining_in_segment() - 1 >= 3  # /d's data fits the first
        disk.media.add_transient(
            fs.layout.segment_start(writer.next_segment), failures=disk.retry.attempts
        )
        appended = []
        real = writer.append

        def spy(items, **kwargs):
            appended.append(items)
            return real(items, **kwargs)

        writer.append = spy

        def indirect_ids(items):
            kinds = (BlockKind.INDIRECT, BlockKind.DINDIRECT)
            return sorted((i.kind, i.inum, i.offset) for i in items if i.kind in kinds)

        try:
            fs.flush()
        except MediaError:
            pass
        else:
            raise AssertionError("the injected write fault did not fire")
        failed = indirect_ids(appended[-1])
        assert failed == [
            (BlockKind.INDIRECT, d, 0),
            (BlockKind.INDIRECT, d, 2),
            (BlockKind.DINDIRECT, d, 0),
        ]
        assert {L1, child(1)} <= fs.filemap(d).dirty  # never placed

        # the failed partial write held only /v* data: write it again
        for i, path in enumerate(victims):
            fs.write_file(path, block(10 + i) * NUM_DIRECT)
        fs.flush()
        assert indirect_ids(appended[-1]) == failed
        assert not is_dirty(fs.filemap(d))

        fs.unmount()
        report = check_filesystem(disk)
        assert report.ok, report.errors
        fs = LFS.mount(disk, fs.config)
        for fbn, tag in ((0, 1), (L1_FBN, 2), (CHILD1_FBN, 3)):
            assert fs.read("/d", fbn * BS, BS) == block(tag)
        for i, path in enumerate(victims):
            assert fs.read(path) == block(10 + i) * NUM_DIRECT


class TestFlushCostFollowsDirtyFiles:
    def test_clean_cached_files_are_not_visited(self, monkeypatch):
        _, fs = make_fs(num_blocks=8192, max_inodes=4096, write_buffer_blocks=256)
        for i in range(2000):
            fs.write_file(f"/c{i}", b"c" * 100)
        fs.flush()
        fs.flush()
        assert len(fs._filemaps) >= 2000

        fs.create("/dd")
        for fbn, tag in ((0, 1), (L1_FBN, 2), (CHILD0_FBN, 3), (CHILD1_FBN, 4)):
            write_block(fs, "/dd", fbn, tag)
        calls = []
        real = fs.imap.version_of

        def counting(inum):
            calls.append(inum)
            return real(inum)

        monkeypatch.setattr(fs.imap, "version_of", counting)
        fs.flush()
        dd = fs.stat("/dd").inum
        # one lookup for the file's data run, one for its indirect blocks
        # (the root directory's entry block rides along)
        assert len(calls) <= 4, f"{len(calls)} version_of calls for one dirty file"
        assert dd in calls
        assert not is_dirty(fs.filemap(dd))
