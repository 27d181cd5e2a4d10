"""Per-file block mapping: direct, single- and double-indirect pointers.

``FileMap`` wraps one inode and answers "where is file block *n*?" It
lazily loads indirect blocks from the log into memory, tracks which of
them are dirty, and — crucially for the log discipline — *pre-creates* any
indirect structures a coming flush will touch, so the flush can queue
every block it needs before placement starts.

Indirect-block identities in segment summaries use a logical index:
index 0 is the single-indirect block; index ``1 + k`` is the k-th child
block under the double-indirect block. The double-indirect (L2) block
itself is a distinct summary kind.
"""

from __future__ import annotations

from repro.core.blocks import pack_addrs, unpack_addrs
from repro.core.constants import NULL_ADDR, NUM_DIRECT
from repro.core.errors import InvalidOperationError
from repro.core.inode import Inode, addrs_per_indirect


def _ignore(inum: int) -> None:
    """The default ``note_dirty`` hook, for owners that scan every map."""


class FileMap:
    """Block-address mapping for one file.

    The map calls back into its owner through three hooks supplied at
    construction: ``read_block(addr) -> bytes`` to load an indirect block
    from the log, ``mark_inode_dirty(inum)`` when a pointer stored in the
    inode itself changes, and ``note_dirty(inum)`` whenever it sets
    ``l1_dirty``, ``l2_dirty`` or adds to ``dirty_children``, so an owner
    can keep the set of maps with indirect blocks to write without
    scanning every map. ``note_dirty`` defaults to a no-op for owners
    that scan. No hook is specific to the file, so an owner can hand the
    same callables to every map it builds.
    """

    def __init__(
        self, inode: Inode, block_size: int, read_block, mark_inode_dirty, note_dirty=_ignore
    ) -> None:
        self.inode = inode
        self.block_size = block_size
        self.per = addrs_per_indirect(block_size)
        self._first_double = NUM_DIRECT + self.per  # first fbn under the L2
        self._double_span = self.per * self.per
        self._read_block = read_block
        self._mark_inode_dirty = mark_inode_dirty
        self._note_dirty = note_dirty
        self._l1: list[int] | None = None  # single-indirect contents
        self._l2: list[int] | None = None  # double-indirect contents
        self._children: dict[int, list[int]] = {}  # loaded L1s under L2
        self.l1_dirty = False
        self.l2_dirty = False
        self.dirty_children: set[int] = set()

    # ------------------------------------------------------------------
    # lazy loading

    def _load_l1(self) -> list[int]:
        if self._l1 is None:
            if self.inode.indirect == NULL_ADDR:
                self._l1 = [NULL_ADDR] * self.per
            else:
                payload = self._read_block(self.inode.indirect)
                self._l1 = unpack_addrs(payload, self.per)
        return self._l1

    def _load_l2(self) -> list[int]:
        if self._l2 is None:
            if self.inode.dindirect == NULL_ADDR:
                self._l2 = [NULL_ADDR] * self.per
            else:
                payload = self._read_block(self.inode.dindirect)
                self._l2 = unpack_addrs(payload, self.per)
        return self._l2

    def _load_child(self, child_idx: int) -> list[int]:
        child = self._children.get(child_idx)
        if child is None:
            l2 = self._load_l2()
            addr = l2[child_idx]
            if addr == NULL_ADDR:
                child = [NULL_ADDR] * self.per
            else:
                child = unpack_addrs(self._read_block(addr), self.per)
            self._children[child_idx] = child
        return child

    # ------------------------------------------------------------------
    # mapping

    # ``get``/``set``/``ensure_structures`` run once per block moved, so
    # each classifies ``fbn`` with integer range tests in place: direct
    # pointers, then the single-indirect range, then the double-indirect
    # range; whatever is left is out of range.

    @staticmethod
    def _out_of_range(fbn: int) -> InvalidOperationError:
        if fbn < 0:
            return InvalidOperationError(f"negative file block number {fbn}")
        return InvalidOperationError(f"file block {fbn} beyond maximum file size")

    def get(self, fbn: int) -> int:
        """Disk address of file block ``fbn`` (``NULL_ADDR`` if unwritten)."""
        if 0 <= fbn < NUM_DIRECT:
            return self.inode.direct[fbn]
        if NUM_DIRECT <= fbn < self._first_double:
            if self.inode.indirect == NULL_ADDR and self._l1 is None:
                return NULL_ADDR
            return self._load_l1()[fbn - NUM_DIRECT]
        idx = fbn - self._first_double
        if not 0 <= idx < self._double_span:
            raise self._out_of_range(fbn)
        child_idx, slot = divmod(idx, self.per)
        if self.inode.dindirect == NULL_ADDR and self._l2 is None:
            return NULL_ADDR
        if self._load_l2()[child_idx] == NULL_ADDR and child_idx not in self._children:
            return NULL_ADDR
        return self._load_child(child_idx)[slot]

    def set(self, fbn: int, addr: int) -> int:
        """Point file block ``fbn`` at ``addr``; returns the old address.

        Marks the containing structure dirty (the inode for direct
        pointers, the indirect block otherwise).
        """
        if 0 <= fbn < NUM_DIRECT:
            old = self.inode.direct[fbn]
            self.inode.direct[fbn] = addr
            self._mark_inode_dirty(self.inode.inum)
            return old
        if NUM_DIRECT <= fbn < self._first_double:
            l1 = self._load_l1()
            slot = fbn - NUM_DIRECT
            old = l1[slot]
            l1[slot] = addr
            self.l1_dirty = True
            self._note_dirty(self.inode.inum)
            return old
        idx = fbn - self._first_double
        if not 0 <= idx < self._double_span:
            raise self._out_of_range(fbn)
        child_idx, slot = divmod(idx, self.per)
        child = self._load_child(child_idx)
        old = child[slot]
        child[slot] = addr
        self.dirty_children.add(child_idx)
        self._note_dirty(self.inode.inum)
        return old

    def ensure_structures(self, fbn: int) -> None:
        """Pre-load/create every indirect block a future ``set(fbn)`` needs.

        Called by the flush builder for each dirty data block so that all
        to-be-dirtied indirect blocks exist (and are marked dirty) before
        any placement happens.
        """
        if 0 <= fbn < NUM_DIRECT:
            return
        if NUM_DIRECT <= fbn < self._first_double:
            self._load_l1()
            self.l1_dirty = True
            self._note_dirty(self.inode.inum)
            return
        idx = fbn - self._first_double
        if not 0 <= idx < self._double_span:
            raise self._out_of_range(fbn)
        child_idx = idx // self.per
        self._load_l2()
        self._load_child(child_idx)
        self.dirty_children.add(child_idx)
        self.l2_dirty = True
        self._note_dirty(self.inode.inum)

    # ------------------------------------------------------------------
    # flush support

    def pack_l1(self) -> bytes:
        """Serialize the single-indirect block."""
        return pack_addrs(self._load_l1(), self.block_size)

    def pack_l2(self) -> bytes:
        """Serialize the double-indirect block."""
        return pack_addrs(self._load_l2(), self.block_size)

    def pack_child(self, child_idx: int) -> bytes:
        """Serialize one indirect block under the double-indirect block."""
        return pack_addrs(self._load_child(child_idx), self.block_size)

    def place_l1(self, addr: int) -> int:
        """Record the single-indirect block's new log address."""
        old = self.inode.indirect
        self.inode.indirect = addr
        self._mark_inode_dirty(self.inode.inum)
        self.l1_dirty = False
        return old

    def place_l2(self, addr: int) -> int:
        """Record the double-indirect block's new log address."""
        old = self.inode.dindirect
        self.inode.dindirect = addr
        self._mark_inode_dirty(self.inode.inum)
        self.l2_dirty = False
        return old

    def place_child(self, child_idx: int, addr: int) -> int:
        """Record a child indirect block's new log address."""
        l2 = self._load_l2()
        old = l2[child_idx]
        l2[child_idx] = addr
        self.l2_dirty = True
        self.dirty_children.discard(child_idx)
        self._note_dirty(self.inode.inum)
        return old

    # ------------------------------------------------------------------
    # enumeration (delete / truncate / analysis)

    def all_block_addrs(self, nblocks: int) -> list[tuple[str, int]]:
        """Every allocated disk block of the file, as (kind, addr).

        ``kind`` is "data" or "indirect"; used by delete and truncate to
        return live bytes to the segment usage table. ``nblocks`` bounds
        the walk to the file's size.
        """
        out: list[tuple[str, int]] = []
        for fbn in range(min(nblocks, NUM_DIRECT)):
            addr = self.inode.direct[fbn]
            if addr != NULL_ADDR:
                out.append(("data", addr))
        if nblocks > NUM_DIRECT and (
            self.inode.indirect != NULL_ADDR or self._l1 is not None
        ):
            if self.inode.indirect != NULL_ADDR:
                out.append(("indirect", self.inode.indirect))
            l1 = self._load_l1()
            for slot in range(min(nblocks - NUM_DIRECT, self.per)):
                if l1[slot] != NULL_ADDR:
                    out.append(("data", l1[slot]))
        first_double = self._first_double
        if nblocks > first_double and (
            self.inode.dindirect != NULL_ADDR or self._l2 is not None
        ):
            if self.inode.dindirect != NULL_ADDR:
                out.append(("indirect", self.inode.dindirect))
            l2 = self._load_l2()
            remaining = nblocks - first_double
            nchildren = (remaining + self.per - 1) // self.per
            for child_idx in range(min(nchildren, self.per)):
                if l2[child_idx] == NULL_ADDR and child_idx not in self._children:
                    continue
                if l2[child_idx] != NULL_ADDR:
                    out.append(("indirect", l2[child_idx]))
                child = self._load_child(child_idx)
                slots = min(remaining - child_idx * self.per, self.per)
                for slot in range(slots):
                    if child[slot] != NULL_ADDR:
                        out.append(("data", child[slot]))
        return out

    def clear_from(self, first_fbn: int, nblocks: int) -> list[tuple[str, int]]:
        """Null out pointers at or past ``first_fbn``; returns freed blocks.

        Used by truncate. Indirect blocks that become entirely unused are
        freed too. ``nblocks`` is the file's current block count.
        """
        freed: list[tuple[str, int]] = []
        for fbn in range(first_fbn, min(nblocks, NUM_DIRECT)):
            if self.inode.direct[fbn] != NULL_ADDR:
                freed.append(("data", self.inode.direct[fbn]))
                self.inode.direct[fbn] = NULL_ADDR
        self._mark_inode_dirty(self.inode.inum)
        if nblocks > NUM_DIRECT and (
            self.inode.indirect != NULL_ADDR or self._l1 is not None
        ):
            l1 = self._load_l1()
            start = max(0, first_fbn - NUM_DIRECT)
            for slot in range(start, min(nblocks - NUM_DIRECT, self.per)):
                if l1[slot] != NULL_ADDR:
                    freed.append(("data", l1[slot]))
                    l1[slot] = NULL_ADDR
                    self.l1_dirty = True
            if first_fbn <= NUM_DIRECT and self.inode.indirect != NULL_ADDR:
                freed.append(("indirect", self.inode.indirect))
                self.inode.indirect = NULL_ADDR
                self._l1 = None
                self.l1_dirty = False
        first_double = self._first_double
        if nblocks > first_double and (
            self.inode.dindirect != NULL_ADDR or self._l2 is not None
        ):
            l2 = self._load_l2()
            remaining = nblocks - first_double
            nchildren = (remaining + self.per - 1) // self.per
            for child_idx in range(min(nchildren, self.per)):
                child_first = first_double + child_idx * self.per
                child_last = child_first + self.per
                if child_last <= first_fbn:
                    continue
                if l2[child_idx] == NULL_ADDR and child_idx not in self._children:
                    continue
                child = self._load_child(child_idx)
                start = max(0, first_fbn - child_first)
                slots = min(remaining - child_idx * self.per, self.per)
                for slot in range(start, slots):
                    if child[slot] != NULL_ADDR:
                        freed.append(("data", child[slot]))
                        child[slot] = NULL_ADDR
                        self.dirty_children.add(child_idx)
                if start == 0:
                    if l2[child_idx] != NULL_ADDR:
                        freed.append(("indirect", l2[child_idx]))
                        l2[child_idx] = NULL_ADDR
                        self.l2_dirty = True
                    self._children.pop(child_idx, None)
                    self.dirty_children.discard(child_idx)
            if first_fbn <= first_double and self.inode.dindirect != NULL_ADDR:
                freed.append(("indirect", self.inode.dindirect))
                self.inode.dindirect = NULL_ADDR
                self._l2 = None
                self.l2_dirty = False
        if self.l1_dirty or self.l2_dirty or self.dirty_children:
            self._note_dirty(self.inode.inum)
        return freed
