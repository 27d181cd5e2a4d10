"""Per-file block mapping: direct, single- and double-indirect pointers.

``FileMap`` wraps one inode and answers "where is file block *n*?" It
lazily loads indirect blocks from the log into memory, tracks which of
them are dirty, and — crucially for the log discipline — *pre-creates* any
indirect structures a coming flush will touch, so the flush can queue
every block it needs before placement starts.

Every indirect block is a *node* with one integer id: ``L1`` (0) is the
single-indirect block, ``child(k)`` (``1 + k``) the k-th block under the
double-indirect block, and ``L2`` (-1) the double-indirect block itself.
A map loads, packs, places and marks dirty every node the same way; only
where a node's address is kept differs (the inode holds L1's and L2's,
L2 holds each child's). This is the only module that knows how a segment
summary names a node: an INDIRECT entry's offset is the node id, and L2
is the DINDIRECT entry at offset 0 (:func:`summary_id`, :func:`node_of`).
"""

from __future__ import annotations

from typing import Iterator

from repro.core.blocks import pack_addrs, unpack_addrs
from repro.core.constants import NULL_ADDR, NUM_DIRECT, BlockKind
from repro.core.errors import InvalidOperationError
from repro.core.inode import Inode, addrs_per_indirect

L1 = 0  # the single-indirect block
L2 = -1  # the double-indirect block


def child(k: int) -> int:
    """The node id of the k-th indirect block under the double."""
    return 1 + k


def summary_id(node: int) -> tuple[BlockKind, int]:
    """The ``(kind, offset)`` a segment summary records for ``node``."""
    return (BlockKind.DINDIRECT, 0) if node == L2 else (BlockKind.INDIRECT, node)


def node_of(kind: BlockKind, offset: int) -> int:
    """The node an INDIRECT or DINDIRECT summary entry names."""
    return L2 if kind == BlockKind.DINDIRECT else offset


def _ignore(inum: int) -> None:
    """The default ``note_dirty`` hook, for owners that scan every map."""


class FileMap:
    """Block-address mapping for one file.

    The map calls back into its owner through three hooks supplied at
    construction: ``read_block(addr) -> bytes`` to load an indirect block
    from the log, ``mark_inode_dirty(inum)`` when a pointer stored in the
    inode itself changes, and ``note_dirty(inum)`` whenever it adds a
    node to ``dirty``, so an owner can keep the set of maps with indirect
    blocks to write without scanning every map. ``note_dirty`` defaults
    to a no-op for owners that scan. No hook is specific to the file, so
    an owner can hand the same callables to every map it builds.
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
        self._nodes: dict[int, list[int]] = {}  # loaded nodes' pointers
        # Nodes to write. Read it freely; add to it only through
        # ``mark_dirty`` (or this class), which calls ``note_dirty``.
        self.dirty: set[int] = set()

    # ------------------------------------------------------------------
    # nodes

    def node_addr(self, node: int) -> int:
        """Where ``node`` lives now (``NULL_ADDR`` if it was never written)."""
        if node == L1:
            return self.inode.indirect
        if node == L2:
            return self.inode.dindirect
        return self.load(L2)[node - 1]

    def load(self, node: int) -> list[int]:
        """``node``'s pointers, read from its home on first use (all null
        when it has none)."""
        ptrs = self._nodes.get(node)
        if ptrs is None:
            addr = self.node_addr(node)
            if addr == NULL_ADDR:
                ptrs = [NULL_ADDR] * self.per
            else:
                ptrs = unpack_addrs(self._read_block(addr), self.per)
            self._nodes[node] = ptrs
        return ptrs

    def mark_dirty(self, node: int) -> None:
        """Load ``node`` and queue it for the next write-back."""
        self.load(node)
        self.dirty.add(node)
        self._note_dirty(self.inode.inum)

    def pack(self, node: int) -> bytes:
        """Serialize ``node``."""
        return pack_addrs(self.load(node), self.block_size)

    def place(self, node: int, addr: int) -> int:
        """Record that ``node`` now lives at ``addr`` and is clean; returns
        its old address.

        A move dirties the pointer above the node (the inode for L1 and
        L2, L2 for a child); a write in place changes no pointer.
        """
        self.dirty.discard(node)
        inode = self.inode
        if node == L1:
            old, inode.indirect = inode.indirect, addr
        elif node == L2:
            old, inode.dindirect = inode.dindirect, addr
        else:
            l2 = self.load(L2)
            old, l2[node - 1] = l2[node - 1], addr
            if old != addr:
                self.mark_dirty(L2)
            return old
        if old != addr:
            self._mark_inode_dirty(inode.inum)
        return old

    def write_order(self) -> Iterator[int]:
        """The dirty nodes in the order they are written: children
        ascending, then L1, then L2.

        L2 is judged once the children are consumed. A caller that places
        each node as it goes (FFS) so also writes the L2 a child's move
        dirtied. The LFS flush queues every node before placing any, so
        it marks L2 dirty first whenever a child is dirty and writes it
        in the same flush. An L2 never written goes out with its dirty
        children either way: they need a home.
        """
        dirty = self.dirty
        children = sorted(node for node in dirty if node > 0)
        yield from children
        if L1 in dirty:
            yield L1
        if L2 in dirty or (children and self.inode.dindirect == NULL_ADDR):
            self.mark_dirty(L2)
            yield L2

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
        nodes = self._nodes
        if NUM_DIRECT <= fbn < self._first_double:
            l1 = nodes.get(L1)
            if l1 is None:
                if self.inode.indirect == NULL_ADDR:
                    return NULL_ADDR
                l1 = self.load(L1)
            return l1[fbn - NUM_DIRECT]
        idx = fbn - self._first_double
        if not 0 <= idx < self._double_span:
            raise self._out_of_range(fbn)
        k, slot = divmod(idx, self.per)
        l2 = nodes.get(L2)
        if l2 is None:
            if self.inode.dindirect == NULL_ADDR:
                return NULL_ADDR
            l2 = self.load(L2)
        leaf = nodes.get(1 + k)
        if leaf is None:
            if l2[k] == NULL_ADDR:
                return NULL_ADDR
            leaf = self.load(1 + k)
        return leaf[slot]

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
            node, slot = L1, fbn - NUM_DIRECT
        else:
            idx = fbn - self._first_double
            if not 0 <= idx < self._double_span:
                raise self._out_of_range(fbn)
            k, slot = divmod(idx, self.per)
            node = 1 + k
        leaf = self._nodes.get(node)
        if leaf is None:
            leaf = self.load(node)
        old = leaf[slot]
        leaf[slot] = addr
        self.dirty.add(node)
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
            self.mark_dirty(L1)
            return
        idx = fbn - self._first_double
        if not 0 <= idx < self._double_span:
            raise self._out_of_range(fbn)
        self.mark_dirty(L2)
        self.mark_dirty(1 + idx // self.per)

    # ------------------------------------------------------------------
    # enumeration (delete / truncate / analysis)

    def all_block_addrs(self, nblocks: int) -> list[tuple[str, int]]:
        """Every allocated disk block of the file, as (kind, addr).

        ``kind`` is "data" or "indirect"; used by delete and truncate to
        return live bytes to the segment usage table. ``nblocks`` bounds
        the walk to the file's size.
        """
        out: list[tuple[str, int]] = []
        inode, nodes = self.inode, self._nodes
        for fbn in range(min(nblocks, NUM_DIRECT)):
            addr = inode.direct[fbn]
            if addr != NULL_ADDR:
                out.append(("data", addr))
        if nblocks > NUM_DIRECT and (inode.indirect != NULL_ADDR or L1 in nodes):
            if inode.indirect != NULL_ADDR:
                out.append(("indirect", inode.indirect))
            l1 = self.load(L1)
            for slot in range(min(nblocks - NUM_DIRECT, self.per)):
                if l1[slot] != NULL_ADDR:
                    out.append(("data", l1[slot]))
        first_double = self._first_double
        if nblocks > first_double and (inode.dindirect != NULL_ADDR or L2 in nodes):
            if inode.dindirect != NULL_ADDR:
                out.append(("indirect", inode.dindirect))
            l2 = self.load(L2)
            remaining = nblocks - first_double
            nchildren = (remaining + self.per - 1) // self.per
            for k in range(min(nchildren, self.per)):
                if l2[k] == NULL_ADDR and 1 + k not in nodes:
                    continue
                if l2[k] != NULL_ADDR:
                    out.append(("indirect", l2[k]))
                leaf = self.load(1 + k)
                slots = min(remaining - k * self.per, self.per)
                for slot in range(slots):
                    if leaf[slot] != NULL_ADDR:
                        out.append(("data", leaf[slot]))
        return out

    def clear_from(self, first_fbn: int, nblocks: int) -> list[tuple[str, int]]:
        """Null out pointers at or past ``first_fbn``; returns freed blocks.

        Used by truncate. Indirect blocks that become entirely unused are
        freed too. ``nblocks`` is the file's current block count.
        """
        freed: list[tuple[str, int]] = []
        inode, nodes, dirty = self.inode, self._nodes, self.dirty
        for fbn in range(first_fbn, min(nblocks, NUM_DIRECT)):
            if inode.direct[fbn] != NULL_ADDR:
                freed.append(("data", inode.direct[fbn]))
                inode.direct[fbn] = NULL_ADDR
        self._mark_inode_dirty(inode.inum)
        if nblocks > NUM_DIRECT and (inode.indirect != NULL_ADDR or L1 in nodes):
            l1 = self.load(L1)
            start = max(0, first_fbn - NUM_DIRECT)
            for slot in range(start, min(nblocks - NUM_DIRECT, self.per)):
                if l1[slot] != NULL_ADDR:
                    freed.append(("data", l1[slot]))
                    l1[slot] = NULL_ADDR
                    dirty.add(L1)
            if first_fbn <= NUM_DIRECT and inode.indirect != NULL_ADDR:
                freed.append(("indirect", self.place(L1, NULL_ADDR)))
                del nodes[L1]
        first_double = self._first_double
        if nblocks > first_double and (inode.dindirect != NULL_ADDR or L2 in nodes):
            l2 = self.load(L2)
            remaining = nblocks - first_double
            nchildren = (remaining + self.per - 1) // self.per
            for k in range(min(nchildren, self.per)):
                node = 1 + k
                child_first = first_double + k * self.per
                if child_first + self.per <= first_fbn:
                    continue
                if l2[k] == NULL_ADDR and node not in nodes:
                    continue
                leaf = self.load(node)
                start = max(0, first_fbn - child_first)
                slots = min(remaining - k * self.per, self.per)
                for slot in range(start, slots):
                    if leaf[slot] != NULL_ADDR:
                        freed.append(("data", leaf[slot]))
                        leaf[slot] = NULL_ADDR
                        dirty.add(node)
                if start == 0:
                    if l2[k] != NULL_ADDR:
                        freed.append(("indirect", self.place(node, NULL_ADDR)))
                    del nodes[node]
                    dirty.discard(node)
            if first_fbn <= first_double and inode.dindirect != NULL_ADDR:
                freed.append(("indirect", self.place(L2, NULL_ADDR)))
                del nodes[L2]
        if dirty:
            self._note_dirty(inode.inum)
        return freed
