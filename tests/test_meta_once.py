"""Every metadata block is written once per checkpoint.

A dirty inode, inode-map block or usage block is clean from the moment
its payload is packed, and the checkpoint's metadata append takes every
usage block its own placements change. So a checkpoint leaves nothing
dirty, a second one with no operation in between writes only the region,
and an image stays exact when one flush spans many partial writes.
"""

from __future__ import annotations

import random

import pytest

from repro.core.constants import BlockKind
from repro.core.errors import MediaError
from repro.core.filesystem import LFS
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.tools.lfsck import check_filesystem

from tests.conftest import SMALL_BLOCKS, small_config

META = (BlockKind.INODE_MAP, BlockKind.SEG_USAGE)


def busy_fs(**overrides) -> tuple[Disk, LFS, dict[str, bytes]]:
    """An LFS with 60 files, some rewritten, truncated and unlinked; the
    dict is what each path must read back."""
    rng = random.Random(51)
    disk = Disk(DiskGeometry.wren4(num_blocks=SMALL_BLOCKS))
    fs = LFS.format(disk, small_config(**overrides))
    bs = fs.config.block_size
    model: dict[str, bytes] = {}
    for i in range(60):
        data = bytes([i % 251]) * rng.randrange(1, 4 * bs)
        fs.write_file(f"/f{i}", data)
        model[f"/f{i}"] = data
    fs.checkpoint()
    for i in rng.sample(range(60), 20):
        data = bytes([200 + i % 50]) * rng.randrange(1, 3 * bs)
        fs.write_file(f"/f{i}", data)
        model[f"/f{i}"] = data
    for i in rng.sample(range(60), 10):
        fs.unlink(f"/f{i}")
        del model[f"/f{i}"]
    return disk, fs, model


def assert_nothing_dirty(fs: LFS) -> None:
    assert not fs._dirty_inodes
    assert fs.imap.dirty_block_indexes() == []
    assert fs.usage.dirty_block_indexes() == []


def test_checkpoint_leaves_no_metadata_dirty():
    _, fs, _ = busy_fs()
    fs.checkpoint()
    assert_nothing_dirty(fs)


def test_idle_checkpoint_writes_only_the_region():
    _, fs, _ = busy_fs()
    fs.checkpoint()
    logged = fs.writer.stats.total_blocks
    regions = fs.stats.checkpoint_region_blocks
    fs.checkpoint()
    assert fs.writer.stats.total_blocks == logged
    assert fs.stats.checkpoint_region_blocks > regions


def test_checkpoint_appends_metadata_at_most_twice(monkeypatch):
    _, fs, _ = busy_fs()
    meta_appends = []
    real = fs.writer.append

    def spy(items, **kwargs):
        if any(item.kind in META for item in items):
            meta_appends.append(len(items))
        return real(items, **kwargs)

    monkeypatch.setattr(fs.writer, "append", spy)
    fs.checkpoint()
    assert 1 <= len(meta_appends) <= 2


@pytest.mark.parametrize("ending", ["checkpoint", "flush"])
def test_many_partial_writes_recover_exactly(ending, monkeypatch):
    # 8-block segments: one flush spans many partial writes, so a later
    # write's placement changes inode and map blocks an earlier one packed
    disk, fs, model = busy_fs(
        segment_bytes=8 * 4096, clean_low_water=6, clean_high_water=10, reserved_segments=4
    )
    writes = []
    real = fs.writer.append

    def spy(items, **kwargs):
        n = real(items, **kwargs)
        writes.append(n)
        return n

    monkeypatch.setattr(fs.writer, "append", spy)
    if ending == "checkpoint":
        fs.checkpoint()
        assert_nothing_dirty(fs)
    else:
        fs.sync()
    assert max(writes) >= 3
    fs.crash()
    fs = LFS.mount(disk, fs.config)
    for path, data in model.items():
        assert fs.read(path) == data, path
    assert sorted(fs.readdir("/")) == sorted(p[1:] for p in model)
    fs.unmount()
    report = check_filesystem(disk)
    assert report.ok, report.errors


# -- a partial write that fails leaves no gap in the log --------------------


def fail_one_write(fs: LFS, nth: int) -> None:
    """Make the ``nth`` disk write from now on fail past every retry,
    before anything of it is stored."""
    disk = fs.disk
    real = disk.write_blocks
    calls = []

    def faulty(addr, blocks, **kwargs):
        calls.append(addr)
        if len(calls) == nth:
            disk.media.add_transient(addr, failures=disk.retry.attempts)
        return real(addr, blocks, **kwargs)

    disk.write_blocks = faulty


@pytest.mark.parametrize("ending", ["crash", "unmount", "unmount-at-once"])
@pytest.mark.parametrize("failing", ["flush", "checkpoint"])
def test_a_failed_write_leaves_no_gap(failing, ending):
    # 8-block segments, so the failing call spans several partial writes
    disk, fs, model = busy_fs(
        segment_bytes=8 * 4096, clean_low_water=6, clean_high_water=10, reserved_segments=4
    )
    bs = fs.config.block_size
    for i in range(12):
        fs.write_file(f"/g{i}", bytes(2 * bs))
    fs.checkpoint()
    # overwrites only, so the flush holds nothing but the files' data
    # blocks and inodes (no directory block, no directory-op record)
    for i in range(12):
        model[f"/g{i}"] = bytes([i + 1]) * (2 * bs)
        fs.write_file(f"/g{i}", model[f"/g{i}"])
    if failing == "flush":
        seq = fs.writer.seq
        fail_one_write(fs, 2)  # the sync's second partial write
        with pytest.raises(MediaError):
            fs.sync()
        assert fs.writer.seq == seq + 1  # only the first partial write landed
        # the failed write's blocks were placed, so the log has lost
        # them: write the files again
        for i in range(12):
            fs.write_file(f"/g{i}", model[f"/g{i}"])
    else:
        # leave room for one block: the metadata spills into the next
        # segment, so the failed write is not the call's last
        model["/pad"] = b"p"
        for _ in range(6):
            fs.write_file("/pad", b"p")
            fs.flush()
            if fs.writer._remaining_in_segment() == 2:
                break
        seq = fs.writer.seq
        placed = []
        real_more = fs._build_meta_items

        def counting(queued):
            placed.append(fs.writer.seq)
            return real_more(queued)

        fs._build_meta_items = counting
        fail_one_write(fs, 1)  # the first of its metadata partial writes
        with pytest.raises(MediaError):
            fs.checkpoint()
        assert placed[-1] - seq >= 2  # later partial writes were placed too
        assert fs.writer.seq == seq

    if ending != "unmount-at-once":
        # the writes after the fault are synced, and recovery must find them
        for i in range(6):
            model[f"/h{i}"] = bytes([50 + i]) * (3 * bs)
            fs.write_file(f"/h{i}", model[f"/h{i}"])
        fs.sync()
    if ending == "crash":
        fs.crash()
    else:
        fs.unmount()
    fs = LFS.mount(disk, fs.config)
    for path, data in model.items():
        assert fs.read(path) == data, path
    assert sorted(fs.readdir("/")) == sorted(p[1:] for p in model)
    fs.unmount()
    report = check_filesystem(disk)
    assert report.ok, report.errors
