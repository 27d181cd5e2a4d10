"""The order in which each file system writes indirect blocks.

Every pinned digest depends on it, so these tests pin it from outside
``FileMap``: LFS through the items each flush hands ``LogWriter.append``,
FFS through the disk addresses its write-back writes.

LFS, per dirty map in inum order: the children under the double-indirect
block ascending, then the single-indirect block; every map's
double-indirect block goes after all maps' children and single-indirect
blocks. A double-indirect block that was never written goes out in the
same flush as its dirty children; one that placing a child re-dirties
goes out one flush later.

FFS, per file it writes back: children ascending, then the
single-indirect block, then the double-indirect block, each written in
place and allocated on first use, then the inode's table block.
"""

from __future__ import annotations

from repro.core.blocks import unpack_addrs
from repro.core.constants import NULL_ADDR, NUM_DIRECT, BlockKind
from repro.core.filesystem import LFS
from repro.core.inode import addrs_per_indirect
from repro.core.summary import SummaryEntry
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.ffs.filesystem import FFS, FFSConfig
from repro.tools.lfsck import check_filesystem

from tests.conftest import small_config

INDIRECT, DINDIRECT = BlockKind.INDIRECT, BlockKind.DINDIRECT


def fbn_under(per: int, node: str, slot: int) -> int:
    """A file block number under the single-indirect block ("l1") or
    under child ``k`` of the double-indirect block ("c0", "c1", ...)."""
    if node == "l1":
        return NUM_DIRECT + slot
    return NUM_DIRECT + per + int(node[1:]) * per + slot


class LogSpy:
    """Records the indirect items of every append and where each landed."""

    def __init__(self, fs: LFS) -> None:
        self.flushes: list[list[tuple]] = []
        self.homes: dict[tuple, int] = {}
        real = fs.writer.append

        def spy(items, **kwargs):
            for item in items:
                if item.kind in (INDIRECT, DINDIRECT):
                    self.flushes[-1].append((item.kind, item.inum, item.offset))
                    item.on_placed = self._recording(item.on_placed)
            return real(items, **kwargs)

        fs.writer.append = spy
        self.fs = fs

    def _recording(self, placed):
        def record(item, addr):
            self.homes[(item.kind, item.inum, item.offset)] = addr
            placed(item, addr)

        return record

    def flush(self) -> list[tuple]:
        """Flush; the indirect items it queued, in queue order."""
        self.flushes.append([])
        self.fs.flush()
        return self.flushes[-1]


def make_lfs() -> LFS:
    disk = Disk(DiskGeometry.wren4(num_blocks=4096))
    return LFS.format(disk, small_config(write_buffer_blocks=1024))


class TestLFSFlushOrder:
    BS = 4096
    PER = addrs_per_indirect(BS)

    def write(self, fs: LFS, path: str, node: str, slot: int, tag: int) -> None:
        fs.write(path, bytes([tag]) * self.BS, fbn_under(self.PER, node, slot) * self.BS)

    def test_two_new_trees(self):
        fs = make_lfs()
        spy = LogSpy(fs)
        for path in ("/a", "/b"):
            fs.create(path)
        # /b's blocks go first, so the order is the flush's, not the writes'
        for path, tag in (("/b", 1), ("/a", 2)):
            for node, slot in (("c1", 3), ("l1", 0), ("c0", 5)):
                self.write(fs, path, node, slot, tag)
        a, b = fs.stat("/a").inum, fs.stat("/b").inum
        assert a < b
        assert spy.flush() == [
            (INDIRECT, a, 1), (INDIRECT, a, 2), (INDIRECT, a, 0),
            (INDIRECT, b, 1), (INDIRECT, b, 2), (INDIRECT, b, 0),
            (DINDIRECT, a, 0), (DINDIRECT, b, 0),
        ]
        assert spy.flush() == []

        # a new child under a written double: both in one flush, and the
        # untouched child and single-indirect block stay put
        self.write(fs, "/a", "c2", 0, 3)
        assert spy.flush() == [(INDIRECT, a, 3), (DINDIRECT, a, 0)]
        assert spy.flush() == []
        fs.unmount()
        assert check_filesystem(fs.disk).ok

    def test_revived_child_under_a_written_double(self):
        fs = make_lfs()
        spy = LogSpy(fs)
        fs.create("/f")
        for node, slot in (("l1", 1), ("c0", 2), ("c1", 3)):
            self.write(fs, "/f", node, slot, 7)
        spy.flush()
        assert spy.flush() == []
        inum = fs.stat("/f").inum
        version = fs.imap.version_of(inum)
        home = spy.homes[(INDIRECT, inum, 2)]

        entry = SummaryEntry(kind=INDIRECT, inum=inum, offset=2, version=version)
        assert fs.cleaner._revive(entry, home, lambda addr, e: fs.disk.read_block(addr))
        # the child and the double that points at it move in one flush
        assert spy.flush() == [(INDIRECT, inum, 2), (DINDIRECT, inum, 0)]
        assert spy.homes[(INDIRECT, inum, 2)] != home
        assert spy.flush() == []

        fs.unmount()
        assert check_filesystem(fs.disk).ok
        fs = LFS.mount(fs.disk, fs.config)
        for node, slot in (("l1", 1), ("c0", 2), ("c1", 3)):
            at = fbn_under(self.PER, node, slot) * self.BS
            assert fs.read("/f", at, self.BS) == bytes([7]) * self.BS


class TestFFSWriteBackOrder:
    BS = 8192
    PER = addrs_per_indirect(BS)

    def test_children_then_single_then_double_allocated_on_first_use(self):
        config = FFSConfig(block_size=self.BS, max_inodes=2048, num_groups=8)
        disk = Disk(DiskGeometry.wren4(block_size=self.BS, num_blocks=4096))
        fs = FFS.format(disk, config)
        inum = fs.create("/f")
        writes: list[int] = []
        real_flush, real_write = fs._flush_indirect, disk.write_block

        def recording_flush(inum, fmap):
            def record(addr, payload, **kwargs):
                writes.append(addr)
                return real_write(addr, payload, **kwargs)

            disk.write_block = record
            try:
                real_flush(inum, fmap)
            finally:
                disk.write_block = real_write

        fs._flush_indirect = recording_flush

        def write(node, slot):
            fs.write_inum(inum, b"x" * self.BS, fbn_under(self.PER, node, slot) * self.BS)

        def tree():
            inode = fs.get_inode(inum)
            children = unpack_addrs(disk.peek(inode.dindirect), self.PER)
            return inode.indirect, inode.dindirect, children

        for node, slot in (("c1", 3), ("l1", 0), ("c0", 5)):
            write(node, slot)
        fs.sync()
        l1, l2, children = tree()
        inode_block, _ = fs.layout.inode_addr(inum)
        assert writes == [children[0], children[1], l1, l2, inode_block]
        assert NULL_ADDR not in writes and len(set(writes)) == 5
        assert writes == [523, 524, 525, 526, 512]  # allocated in write order

        # a new slot under child 0 and under the single-indirect block
        # rewrites both in place; a new child is allocated, and placing it
        # dirties the double, which is rewritten in place after it
        writes.clear()
        for node, slot in (("c2", 0), ("l1", 9), ("c0", 6)):
            write(node, slot)
        fs.sync()
        assert tree()[:2] == (l1, l2)
        children = tree()[2]
        assert writes == [children[0], children[2], l1, l2, inode_block]
        assert writes == [523, 530, 525, 526, 512]

        # a new slot under child 1 only: no pointer above it moves
        writes.clear()
        write("c1", 4)
        fs.sync()
        assert writes == [children[1], inode_block]
