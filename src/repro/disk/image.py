"""Disk-image persistence: save/load a simulated disk to a host file.

The format is a small header (geometry + clock) followed by one record
per written block, so images of mostly-empty disks stay small. This is
what lets the command-line interface operate on durable file-system
images across invocations.
"""

from __future__ import annotations

import struct

from repro.core.blocks import require
from repro.core.errors import CorruptionError
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.disk.timing import SimClock

_MAGIC = 0x4C46_5349  # "LFSI"
_HEADER = struct.Struct("<IIQQdddddQd")  # magic, block_size, num_blocks,
# track_blocks, avg_seek, rotation, bandwidth, min_seek, clock, nrecords, pad


def save_disk(disk: Disk, path: str) -> int:
    """Write a disk image; returns the number of block records saved."""
    records = sorted(disk.written_addresses())
    geo = disk.geometry
    header = _HEADER.pack(
        _MAGIC,
        geo.block_size,
        geo.num_blocks,
        geo.track_blocks,
        geo.avg_seek_time,
        geo.rotation_time,
        geo.transfer_bandwidth,
        geo.min_seek_time,
        disk.clock.now,
        len(records),
        0.0,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for addr in records:
            fh.write(struct.pack("<Q", addr))
            fh.write(disk.view(addr))
    return len(records)


def load_disk(path: str) -> Disk:
    """Reconstruct a disk (contents, geometry, and clock) from an image."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        require(len(raw) == _HEADER.size, "disk image header truncated")
        (
            magic,
            block_size,
            num_blocks,
            track_blocks,
            avg_seek,
            rotation,
            bandwidth,
            min_seek,
            clock_now,
            nrecords,
            _,
        ) = _HEADER.unpack(raw)
        require(magic == _MAGIC, "not a disk image (bad magic)")
        geometry = DiskGeometry(
            block_size=block_size,
            num_blocks=num_blocks,
            avg_seek_time=avg_seek,
            rotation_time=rotation,
            transfer_bandwidth=bandwidth,
            track_blocks=track_blocks,
            min_seek_time=min_seek,
        )
        disk = Disk(geometry, clock=SimClock(clock_now))
        for _ in range(nrecords):
            addr_raw = fh.read(8)
            payload = fh.read(block_size)
            if len(addr_raw) != 8 or len(payload) != block_size:
                raise CorruptionError("disk image block records truncated")
            (addr,) = struct.unpack("<Q", addr_raw)
            if addr >= num_blocks:
                raise CorruptionError("disk image block address out of range")
            disk._store(addr, payload)
    return disk
