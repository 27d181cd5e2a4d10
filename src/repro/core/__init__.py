"""Sprite LFS: the paper's log-structured file system.

Public entry points:

- :class:`~repro.core.filesystem.LFS` — format/mount/operate the file system
- :class:`~repro.core.config.LFSConfig` — tunables (segment size, cleaning
  policy, checkpoint interval, ...)
- :class:`~repro.core.policy.CleaningPolicy` — greedy vs. cost-benefit
"""

from repro.core.config import LFSConfig
from repro.core.errors import (
    AlreadyMountedError,
    CorruptionError,
    DirectoryNotEmptyError,
    DiskRangeError,
    FileExistsLFSError,
    FileNotFoundLFSError,
    InvalidOperationError,
    IsADirectoryError_,
    LFSError,
    MediaError,
    NoSpaceError,
    NotADirectoryError_,
    NotMountedError,
    NVMDeviceFailedError,
    NVMError,
    NVMTornRecordError,
    ReadOnlyError,
    TrimmedBlockError,
)
from repro.core.filesystem import LFS
from repro.core.namespace import StatResult
from repro.core.policy import CleaningPolicy
from repro.core.recovery import RecoveryReport

__all__ = [
    "LFS",
    "AlreadyMountedError",
    "CleaningPolicy",
    "CorruptionError",
    "DirectoryNotEmptyError",
    "DiskRangeError",
    "FileExistsLFSError",
    "FileNotFoundLFSError",
    "InvalidOperationError",
    "IsADirectoryError_",
    "LFSConfig",
    "LFSError",
    "MediaError",
    "NVMDeviceFailedError",
    "NVMError",
    "NVMTornRecordError",
    "NoSpaceError",
    "NotADirectoryError_",
    "NotMountedError",
    "ReadOnlyError",
    "RecoveryReport",
    "StatResult",
    "TrimmedBlockError",
]
