"""The FFS baseline file system.

Faithful to the paper's characterization of SunOS 4.0.3 / Unix FFS:

- inodes at fixed addresses; directory data, directory inodes, and
  new-file inodes (written twice) are **synchronous** individual writes —
  so creating a small file costs at least five seek-separated I/Os;
- file data is written asynchronously but as individual per-block
  operations (no write clustering), so even sequential writes miss
  rotations;
- reads use read-ahead, so sequential reads stream at full bandwidth —
  which is why the paper's Figure 9 shows SunOS matching LFS on reads.

There is no crash-recovery log: :meth:`FFS.fsck` models the full-disk
metadata scan the paper contrasts with LFS roll-forward.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import directory as dirfmt
from repro.core.blocks import splice
from repro.core.cache import BlockCache
from repro.core.constants import NULL_ADDR, ROOT_INUM, FileType
from repro.core.errors import (
    FileNotFoundLFSError,
    InvalidOperationError,
    IsADirectoryError_,
)
from repro.core.inode import Inode, pack_inode_block
from repro.core.mapping import FileMap
from repro.core.namespace import Namespace
from repro.disk.device import Disk
from repro.ffs.allocator import BitmapAllocator, InodeAllocator
from repro.ffs.layout import FFSLayout, compute_ffs_layout

#: blocks fetched per streamed read when access is sequential
READAHEAD_BLOCKS = 8


@dataclass
class FFSConfig:
    """Tunables for the FFS baseline.

    Attributes:
        block_size: bytes per block (the paper's SunOS used 8 KB).
        max_inodes: inode table capacity.
        num_groups: cylinder groups.
        write_buffer_blocks: dirty data blocks buffered before the
            asynchronous writer pushes them out one at a time.
        cache_blocks: file-cache capacity in blocks.
        write_clustering: stream contiguous dirty runs as single requests,
            like the extent-based SunOS the paper cites ("a newer version
            of SunOS groups writes and should therefore have performance
            equivalent to Sprite LFS" for sequential writes). Off by
            default: the paper's measured SunOS 4.0.3 issued per-block
            operations.
    """

    block_size: int = 8192
    max_inodes: int = 32768
    num_groups: int = 16
    write_buffer_blocks: int = 64
    cache_blocks: int = 3072
    write_clustering: bool = False


@dataclass
class FFSStats:
    """Operation and I/O-pattern counters."""

    creates: int = 0
    deletes: int = 0
    reads: int = 0
    writes: int = 0
    sync_metadata_writes: int = 0
    async_data_writes: int = 0
    ops: int = 0


class FFS(Namespace):
    """A Unix FFS-style file system on a simulated disk.

    Paths, entry rules and whole-path calls come from
    :class:`~repro.core.namespace.Namespace`, shared with LFS; this class
    decides only where blocks go and writes metadata synchronously.
    """

    def __init__(self, disk: Disk, config: FFSConfig | None = None) -> None:
        self.disk = disk
        self.config = config if config is not None else FFSConfig()
        if self.config.block_size != disk.geometry.block_size:
            raise InvalidOperationError(
                f"config block size {self.config.block_size} != disk block size "
                f"{disk.geometry.block_size}"
            )
        self.layout: FFSLayout = compute_ffs_layout(
            self.config.block_size,
            disk.geometry.num_blocks,
            max_inodes=self.config.max_inodes,
            num_groups=self.config.num_groups,
        )
        self.allocator = BitmapAllocator(self.layout)
        self.inode_alloc = InodeAllocator(self.layout.max_inodes, self.layout.num_groups)
        self.cache = BlockCache(self.config.cache_blocks)
        self.stats = FFSStats()
        # Optional observability hook (repro.obs.Observation); None = off.
        self.obs = None
        self._inodes: dict[int, Inode] = {}
        self._filemaps: dict[int, FileMap] = {}
        self._dir_states: dict[int, dirfmt.Directory] = {}
        self._last_read: dict[int, int] = {}  # inum -> last fbn (read-ahead)

    # ==================================================================
    # lifecycle

    @classmethod
    def format(cls, disk: Disk, config: FFSConfig | None = None, *, obs=None) -> "FFS":
        """mkfs: create a fresh FFS with an empty root directory.

        ``obs`` (a :class:`repro.obs.Observation`) is attached before the
        first write so the trace covers the whole session.
        """
        fs = cls(disk, config)
        if obs is not None:
            obs.attach(fs)
        now = disk.clock.now
        root = Inode(inum=ROOT_INUM, ftype=FileType.DIRECTORY, mtime=now, ctime=now)
        fs._inodes[ROOT_INUM] = root
        fs.inode_alloc.mark_used(ROOT_INUM)
        fs._dir_states[ROOT_INUM] = dirfmt.Directory(fs.config.block_size)
        fs._write_inode_sync(root)
        return fs

    # ==================================================================
    # low-level I/O patterns

    def _write_inode_sync(self, inode: Inode, *, twice: bool = False) -> None:
        """Synchronously write the table block holding ``inode``."""
        block_addr, _ = self.layout.inode_addr(inode.inum)
        payload = self._pack_inode_table_block(block_addr)
        for _ in range(2 if twice else 1):
            self.disk.write_block(block_addr, payload, force_latency=True)
            self.stats.sync_metadata_writes += 1

    def _pack_inode_table_block(self, block_addr: int) -> bytes:
        """Serialize every in-memory inode living in one table block.

        Table block ``k`` of group ``g`` holds inodes
        ``(k * inodes_per_block + slot) * num_groups + g``.
        """
        lay = self.layout
        group = (block_addr - 1) // lay.group_blocks
        k = block_addr - lay.group_start(group)
        first_slot = k * lay.inodes_per_block
        present = []
        for slot in range(first_slot, first_slot + lay.inodes_per_block):
            inum = slot * lay.num_groups + group
            if inum in self._inodes:
                present.append(self._inodes[inum])
        return pack_inode_block(present, self.config.block_size)

    def _write_dir_block_sync(self, dir_inum: int, block_idx: int) -> None:
        """Synchronously write one directory data block."""
        fmap = self._filemap(dir_inum)
        addr = fmap.get(block_idx)
        if addr == NULL_ADDR:
            inode = self._inodes[dir_inum]
            goal = self.layout.group_data_start(self.layout.group_for_inode(dir_inum))
            addr = self.allocator.allocate_near(goal)
            fmap.set(block_idx, addr)
            needed = (block_idx + 1) * self.config.block_size
            if inode.size < needed:
                inode.size = needed
        payload = self._dir_states[dir_inum].payload(block_idx)
        self.disk.write_block(addr, payload, force_latency=True)
        self.stats.sync_metadata_writes += 1
        self.cache.insert_clean(dir_inum, block_idx, payload, self.disk.clock.now)

    def _filemap(self, inum: int) -> FileMap:
        fmap = self._filemaps.get(inum)
        if fmap is None:
            inode = self.get_inode(inum)
            fmap = FileMap(
                inode,
                self.config.block_size,
                lambda addr: self.disk.read_block(addr),
                lambda inum: None,
            )
            self._filemaps[inum] = fmap
        return fmap

    def get_inode(self, inum: int) -> Inode:
        """An allocated inode; every FFS inode lives in memory."""
        inode = self._inodes.get(inum)
        if inode is None:
            raise FileNotFoundLFSError(f"inode {inum} is not allocated")
        return inode

    # ==================================================================
    # directories

    def _dir_insert(self, parent: int, name: str, inum: int) -> int:
        """Add an entry to the first block it fits in; returns that block."""
        state = self._dir_state(parent)
        room = self.config.block_size - dirfmt.entry_size(name)
        target = next((b for b, u in enumerate(state.used) if u <= room), len(state.used))
        state.insert(name, inum, target)
        self.get_inode(parent).mtime = self.disk.clock.now
        return target

    def _dir_remove(self, parent: int, name: str) -> int:
        """Drop an entry and write its block back; returns the entry's inum."""
        state = self._dir_state(parent)
        if state.lookup(name) is None:
            raise FileNotFoundLFSError(f"{name!r} not found")
        inum, block = state.remove(name)
        self._dir_sync(parent, block)
        return inum

    def _dir_sync(self, parent: int, block: int) -> None:
        """The synchronous pattern: the directory block, then its inode."""
        self._write_dir_block_sync(parent, block)
        self._write_inode_sync(self.get_inode(parent))

    # ==================================================================
    # operations

    def create(self, path: str, *, ftype: FileType = FileType.REGULAR) -> int:
        """Create a file: the paper's five-synchronous-I/O pattern."""
        parent, name = self._free_name(path)
        inum = self.inode_alloc.allocate(self.layout.group_for_inode(parent))
        now = self.disk.clock.now
        inode = Inode(inum=inum, ftype=ftype, mtime=now, ctime=now)
        self._inodes[inum] = inode
        if ftype == FileType.DIRECTORY:
            self._dir_states[inum] = dirfmt.Directory(self.config.block_size)
        target = self._dir_insert(parent, name, inum)
        self._write_inode_sync(inode, twice=True)  # new file's inode, twice
        self._dir_sync(parent, target)
        self.stats.creates += 1
        self.stats.ops += 1
        return inum

    def write_inum(self, inum: int, data: bytes, offset: int = 0) -> None:
        """Write by inode number (buffered, asynchronous per-block I/O)."""
        if offset < 0:
            raise InvalidOperationError("negative offset")
        inode = self.get_inode(inum)
        if inode.is_directory:
            raise IsADirectoryError_(f"inode {inum} is a directory")
        if not data:
            return
        bs = self.config.block_size
        now = self.disk.clock.now
        end = offset + len(data)
        pos = offset
        while pos < end:
            fbn = pos // bs
            block_off = pos % bs
            take = min(bs - block_off, end - pos)
            if take == bs:
                payload = bytes(data[pos - offset : pos - offset + bs])
            else:
                payload = splice(
                    self._read_data_block(inum, fbn),
                    block_off,
                    data[pos - offset : pos - offset + take],
                )
            self.cache.write(inum, fbn, payload, now)
            pos += take
        if end > inode.size:
            inode.size = end
        inode.mtime = now
        self.stats.writes += 1
        self.stats.ops += 1
        if self.cache.dirty_count >= self.config.write_buffer_blocks:
            self._flush_data()

    def _flush_data(self) -> None:
        """Push dirty data blocks out, one disk operation per block."""
        by_addr: list[tuple[int, int, int]] = []
        # Allocate in file order so sequential files get contiguous blocks.
        for inum, fbn, _ in self.cache.dirty_blocks():
            fmap = self._filemap(inum)
            addr = fmap.get(fbn)
            if addr == NULL_ADDR:
                addr = self._allocate_data_block(inum, fbn, fmap)
            by_addr.append((addr, inum, fbn))
        touched = set()
        ordered = sorted(by_addr, key=lambda t: (t[1], t[2]))
        if self.config.write_clustering:
            # extent-style clustering: stream each contiguous run
            run_start = 0
            while run_start < len(ordered):
                run_end = run_start + 1
                while (
                    run_end < len(ordered)
                    and ordered[run_end][0] == ordered[run_end - 1][0] + 1
                ):
                    run_end += 1
                run = ordered[run_start:run_end]
                payloads = []
                for addr, inum, fbn in run:
                    entry = self.cache.lookup(inum, fbn)
                    payloads.append(entry.payload if entry else bytes(self.config.block_size))
                    self.cache.mark_clean(inum, fbn)
                    touched.add(inum)
                self.disk.write_blocks(run[0][0], payloads)
                self.stats.async_data_writes += len(run)
                run_start = run_end
        else:
            # the paper's SunOS 4.0.3: one disk operation per block
            for addr, inum, fbn in ordered:
                entry = self.cache.lookup(inum, fbn)
                if entry is None:
                    continue
                self.disk.write_block(addr, entry.payload, force_latency=True)
                self.stats.async_data_writes += 1
                self.cache.mark_clean(inum, fbn)
                touched.add(inum)
        # indirect blocks and inodes of the files just written follow
        for inum in sorted(touched):
            fmap = self._filemaps.get(inum)
            if fmap is not None:
                self._flush_indirect(inum, fmap)

    def _allocate_data_block(self, inum: int, fbn: int, fmap: FileMap) -> int:
        """Place a new block near the file's previous block (locality)."""
        if fbn > 0:
            prev = fmap.get(fbn - 1)
            goal = prev + 1 if prev != NULL_ADDR else 0
        else:
            goal = 0
        if not goal:
            goal = self.layout.group_data_start(self.layout.group_for_inode(inum))
        addr = self.allocator.allocate_near(goal)
        fmap.set(fbn, addr)
        return addr

    def _flush_indirect(self, inum: int, fmap: FileMap) -> None:
        """Write dirty indirect blocks in place, allocating on first use."""
        inode = self._inodes.get(inum)
        if inode is None:
            return
        goal = self.layout.group_data_start(self.layout.group_for_inode(inum))
        for node in fmap.write_order():
            addr = fmap.node_addr(node)
            if addr == NULL_ADDR:
                addr = self.allocator.allocate_near(goal)
            fmap.place(node, addr)
            self.disk.write_block(addr, fmap.pack(node), force_latency=True)
            self.stats.async_data_writes += 1
        block_addr, _ = self.layout.inode_addr(inum)
        self.disk.write_block(
            block_addr, self._pack_inode_table_block(block_addr), force_latency=True
        )
        self.stats.async_data_writes += 1

    def _read_data_block(self, inum: int, fbn: int) -> bytes:
        entry = self.cache.lookup(inum, fbn)
        if entry is not None:
            return entry.payload
        fmap = self._filemap(inum)
        addr = fmap.get(fbn)
        if addr == NULL_ADDR:
            payload = bytes(self.config.block_size)
            self.cache.insert_clean(inum, fbn, payload)
            return payload
        # Read-ahead: when access looks sequential, stream a cluster.
        sequential = self._last_read.get(inum) == fbn - 1
        self._last_read[inum] = fbn
        if sequential:
            inode = self.get_inode(inum)
            nblocks = inode.nblocks(self.config.block_size)
            run = [addr]
            next_fbn = fbn + 1
            while (
                len(run) < READAHEAD_BLOCKS
                and next_fbn < nblocks
                and fmap.get(next_fbn) == run[-1] + 1
                and not self.cache.contains(inum, next_fbn)
            ):
                run.append(fmap.get(next_fbn))
                next_fbn += 1
            payloads = self.disk.read_blocks(addr, len(run))
            for i, p in enumerate(payloads):
                self.cache.insert_clean(inum, fbn + i, p)
            return payloads[0]
        payload = self.disk.read_block(addr)
        self.cache.insert_clean(inum, fbn, payload)
        return payload

    def read_inum(self, inum: int, offset: int = 0, length: int | None = None) -> bytes:
        """Read by inode number."""
        data = self._read_range(inum, offset, length)
        if data:
            self.stats.reads += 1
            self.stats.ops += 1
        return data

    def truncate(self, path: str, size: int = 0) -> None:
        """Shrink a file, freeing its blocks back to the bitmap."""
        target = self._truncate_target(path, size)
        if target is None:
            return
        inum, inode = target
        bs = self.config.block_size
        first_dead = (size + bs - 1) // bs
        fmap = self._filemap(inum)
        for _, addr in fmap.clear_from(first_dead, inode.nblocks(bs)):
            self.allocator.free(addr)
        self.cache.drop_from(inum, first_dead)
        inode.size = size
        inode.mtime = self.disk.clock.now
        self._write_inode_sync(inode)
        self.stats.ops += 1

    def _drop_inode(self, inum: int) -> None:
        """Free an inode and everything it owns (link count reached zero)."""
        inode = self.get_inode(inum)
        fmap = self._filemap(inum)
        for _, addr in fmap.all_block_addrs(inode.nblocks(self.config.block_size)):
            self.allocator.free(addr)
        self.cache.drop_file(inum)
        self._inodes.pop(inum, None)
        self._filemaps.pop(inum, None)
        self._dir_states.pop(inum, None)
        self.inode_alloc.free(inum)

    def unlink(self, path: str) -> None:
        """Remove a directory entry: synchronous metadata updates."""
        parent, name, inum, inode = self._removable(path)
        self._dir_remove(parent, name)
        inode.nlink -= 1
        self._write_inode_sync(inode)  # updated link count
        if inode.nlink <= 0:
            self._drop_inode(inum)
        self.stats.deletes += 1
        self.stats.ops += 1

    def link(self, existing: str, newpath: str) -> None:
        """Create a hard link to a regular file."""
        inum, inode = self._link_source(existing)
        parent, name = self._free_name(newpath)
        self._dir_sync(parent, self._dir_insert(parent, name, inum))
        inode.nlink += 1
        self._write_inode_sync(inode)
        self.stats.ops += 1

    def rename(self, oldpath: str, newpath: str) -> None:
        """Move a file or directory (synchronous directory updates)."""
        plan = self._rename_plan(oldpath, newpath)
        if plan is None:
            return
        old_parent, old_name, new_parent, new_name, inum, displaced = plan
        if displaced is not None:
            victim = self.get_inode(displaced)
            self._dir_remove(new_parent, new_name)
            victim.nlink -= 1
            if victim.nlink <= 0:
                self._drop_inode(displaced)
        self._dir_remove(old_parent, old_name)
        self._dir_sync(new_parent, self._dir_insert(new_parent, new_name, inum))
        self.stats.ops += 1

    def sync(self) -> None:
        """Flush all buffered data."""
        if self.cache.dirty_count:
            self._flush_data()

    def fsck(self) -> float:
        """The full-disk consistency scan the paper contrasts with LFS.

        Reads the entire inode table plus every indirect block of every
        allocated file to rebuild the block bitmap; returns the simulated
        seconds it took. "The system cannot determine where the last
        changes were made, so it must scan all of the metadata structures
        on disk."
        """
        start = self.disk.clock.now
        for group in range(self.layout.num_groups):
            self.disk.read_blocks(self.layout.group_start(group), self.layout.itab_blocks)
        for inum, inode in self._inodes.items():
            if inode.indirect != NULL_ADDR:
                self.disk.read_block(inode.indirect, force_latency=True)
            if inode.dindirect != NULL_ADDR:
                self.disk.read_block(inode.dindirect, force_latency=True)
        return self.disk.clock.now - start
