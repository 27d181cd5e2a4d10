"""Crash-recovery timing (Table 3).

"The different crash configurations were generated by running a program
that created one, ten, or fifty megabytes of fixed-size files before the
system was crashed. A special version of Sprite LFS was used that had an
infinite checkpoint interval."

Here that is literal: format with ``checkpoint_interval=0``, write the
files, cut power, and re-mount with roll-forward — the recovery time is
the simulated time the roll-forward scan takes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import LFSConfig
from repro.core.filesystem import LFS
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry


@dataclass
class RecoveryCell:
    """One cell of Table 3."""

    file_size: int
    data_mb: int
    num_files: int
    recovery_seconds: float
    inodes_recovered: int


# Paper's Table 3 (seconds), for side-by-side reporting.
PAPER_TABLE3 = {
    (1024, 1): 1.0,
    (1024, 10): 21.0,
    (1024, 50): 132.0,
    (10240, 1): 1.0,
    (10240, 10): 3.0,
    (10240, 50): 17.0,
    (102400, 1): 1.0,
    (102400, 10): 1.0,
    (102400, 50): 8.0,
}


def run_recovery_case(file_size: int, data_mb: int) -> RecoveryCell:
    """Crash with ``data_mb`` of ``file_size`` files unrecovered; time recovery."""
    data_bytes = data_mb * 1024 * 1024
    num_files = max(1, data_bytes // file_size)
    # Size the disk generously: every file occupies whole blocks, plus
    # metadata, plus slack so the cleaner never needs to run.
    blocks_per_file = (file_size + 4095) // 4096
    num_blocks = max(32768, num_files * blocks_per_file * 3 + 16384)
    disk = Disk(DiskGeometry.wren4(num_blocks=num_blocks))
    fs = LFS.format(
        disk,
        LFSConfig(
            checkpoint_interval=0,  # the paper's "infinite checkpoint interval"
            max_inodes=max(16384, num_files * 2),
            cache_blocks=16384,
        ),
    )
    payload = b"r" * file_size
    files_per_dir = 512
    for i in range(num_files):
        parent = f"/d{i // files_per_dir}"
        if i % files_per_dir == 0:
            fs.mkdir(parent)
        inum = fs.create(f"{parent}/f{i}")
        fs.write_inum(inum, payload)
    fs.sync()  # everything is in the log, but no checkpoint covers it

    fs.crash()
    disk.power_on()
    report = LFS.mount(disk, roll_forward=True).last_recovery
    return RecoveryCell(
        file_size=file_size,
        data_mb=data_mb,
        num_files=num_files,
        recovery_seconds=report.elapsed,
        inodes_recovered=report.inodes_recovered,
    )


def run_recovery_grid(
    file_sizes: tuple[int, ...] = (1024, 10240, 102400),
    data_mbs: tuple[int, ...] = (1, 10, 50),
) -> list[RecoveryCell]:
    """The full Table 3 grid."""
    cells = []
    for size in file_sizes:
        for mb in data_mbs:
            cells.append(run_recovery_case(size, mb))
    return cells
