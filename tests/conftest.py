"""Shared fixtures: small disks and file systems that format fast."""

from __future__ import annotations

import pytest

from repro.core.config import LFSConfig
from repro.core.constants import BlockKind
from repro.core.filesystem import LFS
from repro.core.summary import SegmentSummary, SummaryEntry
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry


SMALL_BLOCKS = 4096  # 16 MB at 4 KB blocks


def small_config(**overrides) -> LFSConfig:
    """An LFS config sized for a 16 MB test disk."""
    defaults = dict(
        segment_bytes=128 * 1024,
        max_inodes=2048,
        clean_low_water=4,
        clean_high_water=8,
        reserved_segments=3,
        segments_per_pass=4,
        write_buffer_blocks=32,
        checkpoint_interval=0,
        cache_blocks=2048,
    )
    defaults.update(overrides)
    return LFSConfig(**defaults)


def lay_write(disk: Disk, start: int, offset: int, seq: int, n: int, bs: int) -> int:
    """Poke one well-formed ``n``-block partial write into the segment at
    ``start`` (no time, no stats); returns the offset just past it."""
    payloads = [bytes([seq % 251]) * bs for _ in range(n)]
    entries = [SummaryEntry(kind=BlockKind.DATA, inum=seq, offset=i, version=1) for i in range(n)]
    summary = SegmentSummary(seq=seq, write_time=float(seq), entries=entries)
    for i, block in enumerate([summary.pack(payloads, bs)] + payloads):
        disk.corrupt_block(start + offset + i, block)
    return offset + 1 + n


@pytest.fixture
def disk() -> Disk:
    """A fresh 16 MB Wren IV-modelled disk."""
    return Disk(DiskGeometry.wren4(num_blocks=SMALL_BLOCKS))


@pytest.fixture
def fs(disk: Disk) -> LFS:
    """A freshly formatted small LFS."""
    return LFS.format(disk, small_config())


@pytest.fixture
def fs_autocp(disk: Disk) -> LFS:
    """A small LFS with a 30-second checkpoint interval."""
    return LFS.format(disk, small_config(checkpoint_interval=30.0))
