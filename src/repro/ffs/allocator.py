"""Block and inode allocation for the FFS baseline.

A bitmap over the data areas with near-goal allocation: a file's blocks
are placed as close as possible to the previous block (sequential layout
within a file) and within the cylinder group of the file's inode — the
"logical locality" the paper contrasts with LFS's temporal locality.
Inodes are allocated group-aware so a new file's inode lands in its
parent directory's cylinder group.
"""

from __future__ import annotations

from repro.core.errors import InvalidOperationError, NoSpaceError
from repro.ffs.layout import FFSLayout


class BitmapAllocator:
    """Data-block bitmap with goal-directed first-fit allocation."""

    def __init__(self, layout: FFSLayout) -> None:
        self.layout = layout
        self._used: set[int] = set()
        self.free_blocks = layout.data_blocks

    def allocate_near(self, goal: int) -> int:
        """Allocate the free data block closest at-or-after ``goal``.

        Scans forward from the goal (skipping inode-table slices) and
        wraps once, mimicking FFS's rotational-layout search without the
        per-cylinder detail.
        """
        if self.free_blocks <= 0:
            raise NoSpaceError("FFS data region is full")
        for addr in self.layout.data_block_iter_from(goal):
            if addr not in self._used:
                self._used.add(addr)
                self.free_blocks -= 1
                return addr
        raise NoSpaceError("FFS data region is full")

    def free(self, addr: int) -> None:
        """Return a block to the free pool."""
        if addr not in self._used:
            raise InvalidOperationError(f"double free of block {addr}")
        self._used.remove(addr)
        self.free_blocks += 1

    @property
    def used_blocks(self) -> int:
        """Currently allocated data blocks."""
        return len(self._used)


class InodeAllocator:
    """Group-aware inode allocation over the fixed table."""

    def __init__(self, max_inodes: int, num_groups: int = 1) -> None:
        self.max_inodes = max_inodes
        self.num_groups = num_groups
        self._used: set[int] = set()

    def allocate(self, group: int | None = None) -> int:
        """Reserve a free inode, preferring ``group`` (parent's group)."""
        if group is not None:
            start = group % self.num_groups
            for inum in range(start or self.num_groups, self.max_inodes, self.num_groups):
                if inum not in self._used:
                    self._used.add(inum)
                    return inum
        for inum in range(1, self.max_inodes):
            if inum not in self._used:
                self._used.add(inum)
                return inum
        raise NoSpaceError("FFS inode table is full")

    def mark_used(self, inum: int) -> None:
        """Record an inode as allocated (used when loading a disk)."""
        self._used.add(inum)

    def free(self, inum: int) -> None:
        """Release an inode number."""
        self._used.discard(inum)

    @property
    def live_count(self) -> int:
        """Allocated inodes."""
        return len(self._used)
