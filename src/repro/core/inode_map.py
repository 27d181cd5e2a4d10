"""The inode map (Table 1, Section 3.1).

Maps an inode number to the log address of the file's current inode, plus
the version number used for the cleaner's fast liveness check and the last
access time. The map is divided into blocks that are themselves written to
the log; the checkpoint region records where each map block currently
lives. At run time the whole active map is kept in memory, exactly as the
paper observes is feasible ("inode maps are compact enough to keep the
active portions cached in main memory").
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.blocks import require, table_block
from repro.core.constants import INODE_MAP_ENTRY_SIZE, NULL_ADDR
from repro.core.errors import FileNotFoundLFSError, InvalidOperationError

# addr, version, atime, pad
_ENTRY_FORMAT = "QQd8x"
_ENTRY = struct.Struct("<" + _ENTRY_FORMAT)
assert _ENTRY.size == INODE_MAP_ENTRY_SIZE
_UNUSED = (NULL_ADDR, 0, 0.0)  # an untouched slot: all zero bytes


@dataclass
class InodeMapEntry:
    """One slot of the inode map."""

    addr: int = NULL_ADDR
    version: int = 0
    atime: float = 0.0

    @property
    def allocated(self) -> bool:
        """True when the slot points at a live inode."""
        return self.addr != NULL_ADDR


class InodeMap:
    """In-memory inode map with per-block dirty tracking.

    Block ``i`` of the map covers inode numbers
    ``[i * entries_per_block, (i+1) * entries_per_block)``. The map also
    allocates inode numbers: a freed slot keeps its version number so the
    (inum, version) uid is never reused, exactly as the paper requires.
    """

    def __init__(self, max_inodes: int, entries_per_block: int) -> None:
        if max_inodes < 2:
            raise InvalidOperationError("max_inodes must be >= 2")
        if entries_per_block < 1:
            raise InvalidOperationError("entries_per_block must be >= 1")
        self.max_inodes = max_inodes
        self.entries_per_block = entries_per_block
        self.num_blocks = (max_inodes + entries_per_block - 1) // entries_per_block
        self._entries: dict[int, InodeMapEntry] = {}
        self._dirty_blocks: set[int] = set()
        # log addresses of the map blocks themselves (checkpoint payload)
        self.block_addrs: list[int] = [NULL_ADDR] * self.num_blocks
        self._next_inum = 1

    # ------------------------------------------------------------------
    # entry access

    def _check_inum(self, inum: int) -> None:
        if inum <= 0 or inum >= self.max_inodes:
            raise InvalidOperationError(
                f"inode number {inum} outside [1, {self.max_inodes})"
            )

    def block_of(self, inum: int) -> int:
        """Map block index covering ``inum``."""
        self._check_inum(inum)
        return inum // self.entries_per_block

    def get(self, inum: int) -> InodeMapEntry:
        """The slot for ``inum`` (a default empty slot if never touched)."""
        self._check_inum(inum)
        entry = self._entries.get(inum)
        if entry is None:
            entry = InodeMapEntry()
            self._entries[inum] = entry
        return entry

    def peek(self, inum: int) -> InodeMapEntry | None:
        """The slot for ``inum`` if one exists, else None; inserts nothing.

        One dict probe for the cleaner's per-block uid check;
        ``version_of`` makes the same probe. Only in-range inums ever get a
        slot, so no range check.
        """
        return self._entries.get(inum)

    def lookup(self, inum: int) -> int:
        """Log address of the current inode; raises if not allocated."""
        entry = self.get(inum)
        if not entry.allocated:
            raise FileNotFoundLFSError(f"inode {inum} is not allocated")
        return entry.addr

    def is_allocated(self, inum: int) -> bool:
        """True if ``inum`` currently names a file."""
        if inum <= 0 or inum >= self.max_inodes:
            return False
        entry = self._entries.get(inum)
        return entry is not None and entry.allocated

    def version_of(self, inum: int) -> int:
        """Current version number for the cleaner's uid check."""
        entry = self._entries.get(inum)
        if entry is None:
            self._check_inum(inum)
            return 0
        return entry.version

    def set_addr(self, inum: int, addr: int) -> int:
        """Record a new inode location (marks the map block dirty);
        returns the previous one."""
        entry = self.get(inum)  # range-checks ``inum``
        old = entry.addr
        entry.addr = addr
        self._dirty_blocks.add(inum // self.entries_per_block)
        return old

    def set_atime(self, inum: int, atime: float) -> None:
        """Record an access time (marks the map block dirty)."""
        entry = self.get(inum)
        entry.atime = atime
        self._dirty_blocks.add(self.block_of(inum))

    # ------------------------------------------------------------------
    # allocation

    def allocate(self) -> int:
        """Reserve and return a fresh inode number."""
        start = self._next_inum
        inum = start
        for _ in range(self.max_inodes):
            if inum >= self.max_inodes:
                inum = 1
            entry = self._entries.get(inum)
            if entry is None or not entry.allocated:
                self._next_inum = inum + 1
                return inum
            inum += 1
        raise FileNotFoundLFSError("inode map full")

    def free(self, inum: int) -> None:
        """Release a slot: bump the version (new uid) and clear the address.

        The version bump is what lets the cleaner discard the dead file's
        blocks "immediately without examining the file's inode".
        """
        entry = self.get(inum)
        entry.addr = NULL_ADDR
        entry.version += 1
        self._dirty_blocks.add(self.block_of(inum))

    def bump_version(self, inum: int) -> int:
        """Increment and return the version (used by truncate-to-zero)."""
        entry = self.get(inum)
        entry.version += 1
        self._dirty_blocks.add(self.block_of(inum))
        return entry.version

    def allocated_inums(self) -> list[int]:
        """All currently allocated inode numbers, ascending."""
        return sorted(i for i, e in self._entries.items() if e.allocated)

    def points_at(self, addr: int) -> bool:
        """True if some allocated inode currently lives at ``addr``."""
        return addr != NULL_ADDR and any(e.addr == addr for e in self._entries.values())

    @property
    def live_count(self) -> int:
        """Number of allocated inodes."""
        return sum(1 for e in self._entries.values() if e.allocated)

    # ------------------------------------------------------------------
    # block (de)serialization

    def dirty_block_indexes(self) -> list[int]:
        """Map blocks modified since they were last written, ascending."""
        return sorted(self._dirty_blocks)

    def clear_dirty(self, block_index: int) -> None:
        """Mark one map block clean (its payload has been packed)."""
        self._dirty_blocks.discard(block_index)

    def mark_dirty(self, block_index: int) -> None:
        """Queue one block for the next checkpoint again."""
        self._dirty_blocks.add(block_index)

    def mark_all_dirty(self) -> None:
        """Force every touched map block dirty (used by recovery)."""
        for inum in self._entries:
            self._dirty_blocks.add(self.block_of(inum))

    def pack_block(self, block_index: int, block_size: int) -> bytes:
        """Serialize map block ``block_index`` to a block payload."""
        if block_index < 0 or block_index >= self.num_blocks:
            raise InvalidOperationError(f"map block {block_index} out of range")
        count = self.entries_per_block
        first = block_index * count
        get = self._entries.get
        fields: list = []
        for inum in range(first, first + count):
            entry = get(inum)
            fields += _UNUSED if entry is None else (entry.addr, entry.version, entry.atime)
        return table_block(_ENTRY_FORMAT, count, block_size).pack(*fields)

    def load_block(self, block_index: int, payload: bytes) -> None:
        """Replace map block ``block_index`` from on-disk bytes."""
        if block_index < 0 or block_index >= self.num_blocks:
            raise InvalidOperationError(f"map block {block_index} out of range")
        require(
            len(payload) >= self.entries_per_block * INODE_MAP_ENTRY_SIZE,
            "inode map block truncated",
        )
        first = block_index * self.entries_per_block
        for i in range(self.entries_per_block):
            inum = first + i
            addr, version, atime = _ENTRY.unpack_from(payload, i * INODE_MAP_ENTRY_SIZE)
            if inum == 0:
                continue
            if addr == NULL_ADDR and version == 0 and atime == 0.0:
                self._entries.pop(inum, None)
            else:
                self._entries[inum] = InodeMapEntry(addr=addr, version=version, atime=atime)
