"""Tests for the offline checker (lfsck) and the log inspector."""

import gc
import weakref

import pytest

from repro.core.filesystem import LFS
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.tools.dumplog import dump_checkpoints, dump_segment, dump_superblock
from repro.tools.lfsck import check_filesystem

from tests.conftest import lay_write, small_config


@pytest.fixture
def populated(disk):
    fs = LFS.format(disk, small_config())
    fs.mkdir("/d")
    fs.write_file("/d/a", b"alpha" * 1000)
    fs.write_file("/d/b", b"beta" * 4000)
    fs.write_file("/top", b"top")
    fs.link("/top", "/d/top-link")
    fs.checkpoint()
    return fs


class TestLfsckClean:
    def test_fresh_filesystem_clean(self, disk):
        fs = LFS.format(disk, small_config())
        fs.checkpoint()
        report = check_filesystem(disk)
        assert report.ok, report.render()

    def test_populated_filesystem_clean(self, populated):
        report = check_filesystem(populated.disk)
        assert report.ok, report.render()
        assert report.live_inodes == 5  # root, /d, a, b, top
        assert report.live_blocks > 4

    def test_after_churn_and_cleaning(self, disk):
        fs = LFS.format(disk, small_config())
        for r in range(8):
            for i in range(50):
                fs.write_file(f"/f{i}", bytes([r + i & 0xFF]) * 9000)
            for i in range(0, 50, 3):
                if fs.exists(f"/f{i}"):
                    fs.unlink(f"/f{i}")
        fs.clean_now(fs.usage.clean_count + 3)
        fs.checkpoint()
        report = check_filesystem(disk)
        assert report.ok, report.render()

    def test_after_crash_recovery(self, populated):
        disk = populated.disk
        populated.write_file("/d/late", b"post checkpoint")
        populated.sync()
        populated.crash()
        disk.power_on()
        LFS.mount(disk, small_config())
        report = check_filesystem(disk)
        assert report.ok, report.render()

    def test_check_does_not_advance_time(self, populated):
        t = populated.disk.clock.now
        check_filesystem(populated.disk)
        assert populated.disk.clock.now == t


class TestLfsckDetectsCorruption:
    def test_blank_disk(self):
        disk = Disk(DiskGeometry.wren4(num_blocks=4096))
        report = check_filesystem(disk)
        assert not report.ok

    def test_clobbered_superblock(self, populated):
        disk = populated.disk
        disk.corrupt_block(0, bytes(4096))
        report = check_filesystem(disk)
        assert not report.ok
        assert any("superblock" in e for e in report.errors)

    def test_clobbered_inode_block(self, populated):
        disk = populated.disk
        inum = populated.stat("/d/a").inum
        addr = populated.imap.get(inum).addr
        disk.corrupt_block(addr, bytes(4096))
        report = check_filesystem(disk)
        assert not report.ok

    def test_clobbered_both_checkpoints(self, populated):
        disk = populated.disk
        layout = populated.layout
        for start in (layout.checkpoint_a, layout.checkpoint_b):
            for i in range(layout.checkpoint_blocks):
                disk.corrupt_block(start + i, bytes(4096))
        report = check_filesystem(disk)
        assert not report.ok
        assert any("checkpoint" in e for e in report.errors)


class TestLfsckDirectoryWalk:
    """The connectivity walk reports in depth-first order, a subdirectory
    entered where its entry is met."""

    def test_cycle_and_dead_entries_reported_in_walk_order(self, disk):
        fs = LFS.format(disk, small_config())
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        fs.mkdir("/c")
        fs.write_file("/a/b/deep", b"deep")
        a, b, c = (fs.stat(p).inum for p in ("/a", "/a/b", "/c"))
        fs._dir_insert(b, "loop", a)  # /a/b/loop -> /a
        fs._dir_insert(b, "ghost2", 1998)
        fs._dir_insert(a, "ghost", 1999)
        fs._dir_insert(c, "again", b)  # a second way into /a/b
        fs.checkpoint()
        report = check_filesystem(disk)
        assert report.errors == [
            f"directory cycle involving inode {a}",
            f"directory {b}: entry 'ghost2' -> dead inode 1998",
            f"directory {a}: entry 'ghost' -> dead inode 1999",
            f"directory cycle involving inode {b}",
            f"inode {a}: link count 1 but 2 directory entries",
            f"inode {b}: link count 1 but 2 directory entries",
        ]

    def test_bad_directory_block_reported_where_reached(self, disk):
        fs = LFS.format(disk, small_config())
        fs.mkdir("/a")
        fs.write_file("/a/f", b"f")
        fs.write_file("/z", b"z")
        fs.checkpoint()
        a = fs.stat("/a").inum
        addr = fs.filemap(a).get(0)
        disk.corrupt_block(addr, b"\xff" * 4096)
        report = check_filesystem(disk)
        assert report.errors[0].startswith(f"directory {a}: bad block at {addr}:")
        assert any("unreachable from the root" in e for e in report.errors[1:])


class TestInstancesFreeThemselves:
    """An LFS whose life has ended, and a checked Disk, are freed by
    reference count: nothing may wait for the cycle collector."""

    @pytest.fixture(autouse=True)
    def collector_off(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    @staticmethod
    def written():
        disk = Disk(DiskGeometry.wren4(num_blocks=4096))
        fs = LFS.format(disk, small_config())
        fs.mkdir("/d")
        for i in range(40):
            fs.write_file(f"/d/f{i}", bytes([i]) * 6000)
        fs.unlink("/d/f3")
        fs.sync()
        return disk, fs

    @pytest.mark.parametrize("end", ["crash", "unmount", "drop"])
    def test_lfs_and_checked_disk_die_with_their_last_name(self, end):
        disk, fs = self.written()
        if end != "drop":
            getattr(fs, end)()
        fs_ref, cache_ref, disk_ref = weakref.ref(fs), weakref.ref(fs.cache), weakref.ref(disk)
        del fs
        assert fs_ref() is None and cache_ref() is None
        assert check_filesystem(disk).ok
        del disk
        assert disk_ref() is None

    def test_remounted_and_read_back_leaves_the_collector_nothing(self):
        disk, fs = self.written()
        fs.crash()
        disk.power_on()
        fs = LFS.mount(disk, small_config())
        assert fs.read("/d/f7") == bytes([7]) * 6000
        fs.unmount()
        report = check_filesystem(disk)
        assert report.ok
        del fs, disk, report
        assert gc.collect() == 0

    def test_unmount_drops_what_crash_drops(self):
        _, fs = self.written()
        fs.unmount()
        assert len(fs.cache) == 0
        assert not (fs._inodes or fs._dirty_inodes or fs._filemaps or fs._dir_states)


class TestDumplog:
    def test_superblock_dump(self, populated):
        out = dump_superblock(populated.disk)
        assert "segment size" in out
        assert str(populated.config.segment_bytes) in out

    def test_checkpoint_dump(self, populated):
        out = dump_checkpoints(populated.disk)
        assert "checkpoint A" in out and "checkpoint B" in out
        assert "seq=" in out

    def test_segment_dump_shows_summaries(self, populated):
        seg = populated.writer.current_segment
        out = dump_segment(populated.disk, 0)
        assert "summary seq=" in out or "no valid summaries" in out
        # the very first segment holds the mkfs writes
        assert "segment 0" in out

    def test_segment_dump_reports_stale_residue_not_writes(self, populated):
        """A valid lower-seq summary right after the epoch's last write is
        the previous life of a reused segment, not part of the log."""
        disk, bs = populated.disk, populated.config.block_size
        seg_no = populated.layout.num_segments - 1
        start = populated.layout.segment_start(seg_no)
        lay_write(disk, start, 0, 40, 2, bs)
        lay_write(disk, start, 3, 41, 2, bs)
        lay_write(disk, start, 6, 17, 2, bs)  # earlier epoch, right after the log's end
        out = dump_segment(disk, seg_no)
        assert "summary seq=40" in out and "summary seq=41" in out
        assert "summary seq=17" not in out
        (residue,) = [line for line in out.splitlines() if "stale residue" in line]
        assert "+   6" in residue and "seq=17" in residue

    def test_segment_dump_out_of_range(self, populated):
        assert "out of range" in dump_segment(populated.disk, 10 ** 6)

    def test_dump_is_time_free(self, populated):
        t = populated.disk.clock.now
        dump_superblock(populated.disk)
        dump_checkpoints(populated.disk)
        dump_segment(populated.disk, 0)
        assert populated.disk.clock.now == t
