"""The segment usage table is exact, and lfsck's recount proves it.

Every live byte the table records must be owned by something the
checkpoint references: an inode slot, a file's data or indirect block, or
one of the checkpoint's own inode-map and usage-table blocks. lfsck
recounts those from the image and requires equality per segment, so a
single missing ``remove_live`` anywhere in the file system shows up as a
named segment. Each mutant below drops the calls made from one call site
and expects lfsck to catch it.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.core.filesystem import LFS
from repro.core.seg_usage import SegmentUsageTable
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.tools.lfsck import check_filesystem

from tests.conftest import SMALL_BLOCKS, small_config

#: Every function that calls ``SegmentUsageTable.remove_live``, by code
#: name (``place`` is the data placer's closure in ``LFS._data_placer``;
#: ``_replay_inode`` is roll-forward's).
REMOVE_LIVE_SITES = (
    "_place_map_block",
    "_place_node",
    "_shrink",
    "_free_inode",
    "_place_inodes",
    "place",
    "checkpoint",
    "_replay_inode",
)

BIG_BLOCKS = 1200


def run_scenario(crash: bool) -> Disk:
    """300 small files and a 1 200-block file, then three rounds of
    overwrite, truncate, append and unlink with a checkpoint after the
    first; end with an unmount, or with a crash, a recovering mount and
    an unmount. Returns the unmounted disk."""
    rng = random.Random(47)
    disk = Disk(DiskGeometry.wren4(num_blocks=SMALL_BLOCKS))
    fs = LFS.format(disk, small_config())
    bs = fs.config.block_size
    names = [f"/f{i}" for i in range(300)]
    for i, name in enumerate(names):
        fs.write_file(name, bytes([i % 251]) * rng.randrange(bs, 3 * bs))
    fs.write_file("/big", b"B" * (BIG_BLOCKS * bs))
    fs.sync()
    for r in range(3):
        live = [n for n in names if fs.exists(n)]
        for name in rng.sample(live, 40):
            fs.write(name, bytes([r]) * bs, 0)
        for name in rng.sample(live, 15):
            fs.truncate(name, 0)
        fs.write("/big", bytes([r]) * (8 * bs), rng.randrange(BIG_BLOCKS) * bs)
        fs.append("/big", bytes([r]) * (3 * bs))
        for name in rng.sample(live, 20):
            fs.unlink(name)
        fs.sync()
        if r == 0:
            fs.checkpoint()
    if crash:
        fs.crash()
        fs = LFS.mount(disk, small_config())
    fs.unmount()
    return disk


@pytest.mark.parametrize("crash", [False, True], ids=["unmount", "crash-mount"])
def test_unmutated_table_is_exact(crash):
    report = check_filesystem(run_scenario(crash))
    assert report.ok, report.errors


@pytest.mark.parametrize(
    "site, crash",
    [(site, False) for site in REMOVE_LIVE_SITES if site != "_replay_inode"]
    + [(site, True) for site in REMOVE_LIVE_SITES],
)
def test_dropped_remove_live_is_named(monkeypatch, site, crash):
    original = SegmentUsageTable.remove_live
    dropped: list[int] = []

    def remove_live(self, seg_no, nbytes):
        if sys._getframe(1).f_code.co_name == site:
            dropped.append(seg_no)
            return
        original(self, seg_no, nbytes)

    monkeypatch.setattr(SegmentUsageTable, "remove_live", remove_live)
    disk = run_scenario(crash)
    assert dropped, f"the scenario never reached {site}"
    errors = [e for e in check_filesystem(disk).errors if "usage table records" in e]
    assert errors, f"lfsck missed {len(dropped)} dropped deaths from {site}"
    named = {int(e.split()[1].rstrip(":")) for e in errors}
    assert named <= set(dropped)
