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
from repro.core.cache import BlockCache
from repro.core.constants import NULL_ADDR, ROOT_INUM, FileType
from repro.core.errors import (
    DirectoryNotEmptyError,
    FileExistsLFSError,
    FileNotFoundLFSError,
    InvalidOperationError,
    IsADirectoryError_,
    NotADirectoryError_,
)
from repro.core.inode import Inode, pack_inode_block
from repro.core.mapping import FileMap
from repro.disk.device import Disk
from repro.ffs.allocator import BitmapAllocator, InodeAllocator
from repro.ffs.layout import FFSLayout, compute_ffs_layout


@dataclass
class FFSConfig:
    """Tunables for the FFS baseline.

    Attributes:
        block_size: bytes per block (the paper's SunOS used 8 KB).
        max_inodes: inode table capacity.
        num_groups: cylinder groups.
        write_buffer_blocks: dirty data blocks buffered before the
            asynchronous writer pushes them out one at a time.
        sync_metadata: write metadata synchronously (the behavior the
            paper blames for small-file slowness). Setting this False
            models a delayed-metadata variant for ablations.
        double_inode_writes: write each new file's inode twice "to ease
            recovery from crashes" (Figure 1's caption).
        readahead_blocks: blocks fetched per streamed read when access is
            sequential.
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
    sync_metadata: bool = True
    double_inode_writes: bool = True
    readahead_blocks: int = 8
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


class _DirState:
    """In-memory image of one directory (same shape as the LFS one)."""

    def __init__(self, blocks: list[list[tuple[str, int]]]) -> None:
        self.blocks = blocks
        self.index: dict[str, tuple[int, int]] = {}
        for block_idx, entries in enumerate(blocks):
            for name, inum in entries:
                if inum != 0:
                    self.index[name] = (inum, block_idx)

    def lookup(self, name: str) -> int | None:
        hit = self.index.get(name)
        return hit[0] if hit else None

    def names(self) -> list[str]:
        return sorted(self.index.keys())

    def __len__(self) -> int:
        return len(self.index)


class FFS:
    """A Unix FFS-style file system on a simulated disk."""

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
        self._dir_states: dict[int, _DirState] = {}
        self._dirty_data: set[tuple[int, int]] = set()
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
        fs._dir_states[ROOT_INUM] = _DirState([])
        fs._write_inode_sync(root)
        return fs

    # ==================================================================
    # low-level I/O patterns

    def _write_inode_sync(self, inode: Inode, *, twice: bool = False) -> None:
        """Synchronously write the table block holding ``inode``."""
        block_addr, _ = self.layout.inode_addr(inode.inum)
        payload = self._pack_inode_table_block(block_addr)
        repeats = 2 if (twice and self.config.double_inode_writes) else 1
        for _ in range(repeats):
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

    def _write_dir_block_sync(self, dir_inum: int, block_idx: int, state: _DirState) -> None:
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
        payload = dirfmt.pack_block(
            [e for e in state.blocks[block_idx] if e[1] != 0], self.config.block_size
        )
        self.disk.write_block(addr, payload, force_latency=True)
        self.stats.sync_metadata_writes += 1
        self.cache.insert_clean(dir_inum, block_idx, payload, self.disk.clock.now)

    def _filemap(self, inum: int) -> FileMap:
        fmap = self._filemaps.get(inum)
        if fmap is None:
            inode = self._get_inode(inum)
            fmap = FileMap(
                inode,
                self.config.block_size,
                lambda addr: self.disk.read_block(addr),
                lambda inum: None,
            )
            self._filemaps[inum] = fmap
        return fmap

    def _get_inode(self, inum: int) -> Inode:
        inode = self._inodes.get(inum)
        if inode is None:
            raise FileNotFoundLFSError(f"inode {inum} is not allocated")
        return inode

    # ==================================================================
    # path resolution and directories (mirrors the LFS facade)

    @staticmethod
    def _split_path(path: str) -> list[str]:
        if not path.startswith("/"):
            raise InvalidOperationError(f"path {path!r} must be absolute")
        return [part for part in path.split("/") if part]

    def _resolve(self, path: str) -> int:
        inum = ROOT_INUM
        for part in self._split_path(path):
            inode = self._get_inode(inum)
            if not inode.is_directory:
                raise NotADirectoryError_(f"{part!r} looked up under a non-directory")
            child = self._dir_state(inum).lookup(part)
            if child is None:
                raise FileNotFoundLFSError(f"path {path!r}: component {part!r} not found")
            inum = child
        return inum

    def _resolve_parent(self, path: str) -> tuple[int, str]:
        parts = self._split_path(path)
        if not parts:
            raise InvalidOperationError("the root directory has no parent")
        parent = self._resolve("/" + "/".join(parts[:-1]))
        if not self._get_inode(parent).is_directory:
            raise NotADirectoryError_(f"parent of {path!r} is not a directory")
        return parent, parts[-1]

    def _dir_state(self, inum: int) -> _DirState:
        state = self._dir_states.get(inum)
        if state is not None:
            return state
        inode = self._get_inode(inum)
        blocks = []
        for fbn in range(inode.nblocks(self.config.block_size)):
            blocks.append(dirfmt.parse_block(self._read_data_block(inum, fbn)))
        state = _DirState(blocks)
        self._dir_states[inum] = state
        return state

    def exists(self, path: str) -> bool:
        """True if ``path`` names a file or directory."""
        try:
            self._resolve(path)
            return True
        except (FileNotFoundLFSError, NotADirectoryError_):
            return False

    # ==================================================================
    # operations

    def create(self, path: str, *, ftype: FileType = FileType.REGULAR) -> int:
        """Create a file: the paper's five-synchronous-I/O pattern."""
        parent, name = self._resolve_parent(path)
        dirfmt.validate_name(name)
        state = self._dir_state(parent)
        if state.lookup(name) is not None:
            raise FileExistsLFSError(f"{path!r} already exists")
        inum = self.inode_alloc.allocate(self.layout.group_for_inode(parent))
        now = self.disk.clock.now
        inode = Inode(inum=inum, ftype=ftype, mtime=now, ctime=now)
        self._inodes[inum] = inode
        if ftype == FileType.DIRECTORY:
            self._dir_states[inum] = _DirState([])

        # directory entry
        target = None
        for idx, entries in enumerate(state.blocks):
            if dirfmt.block_has_room(entries, name, self.config.block_size):
                target = idx
                break
        if target is None:
            state.blocks.append([])
            target = len(state.blocks) - 1
        state.blocks[target].append((name, inum))
        state.index[name] = (inum, target)

        parent_inode = self._get_inode(parent)
        parent_inode.mtime = now
        if self.config.sync_metadata:
            self._write_inode_sync(inode, twice=True)  # new file's inode, twice
            self._write_dir_block_sync(parent, target, state)  # directory data
            self._write_inode_sync(parent_inode)  # directory's inode
        self.stats.creates += 1
        self.stats.ops += 1
        return inum

    def mkdir(self, path: str) -> int:
        """Create a directory."""
        return self.create(path, ftype=FileType.DIRECTORY)

    def write(self, path: str, data: bytes, offset: int = 0) -> None:
        """Write data at an offset (buffered, asynchronous per-block I/O)."""
        self.write_inum(self._resolve(path), data, offset)

    def write_inum(self, inum: int, data: bytes, offset: int = 0) -> None:
        """Write by inode number."""
        if offset < 0:
            raise InvalidOperationError("negative offset")
        inode = self._get_inode(inum)
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
                base = bytearray(self._read_data_block(inum, fbn))
                base[block_off : block_off + take] = data[pos - offset : pos - offset + take]
                payload = bytes(base)
            self.cache.write(inum, fbn, payload, now)
            self._dirty_data.add((inum, fbn))
            pos += take
        if end > inode.size:
            inode.size = end
        inode.mtime = now
        self.stats.writes += 1
        self.stats.ops += 1
        if len(self._dirty_data) >= self.config.write_buffer_blocks:
            self._flush_data()

    def write_file(self, path: str, data: bytes) -> int:
        """Create (or truncate) and write a whole file."""
        if self.exists(path):
            inum = self._resolve(path)
            self.truncate(path, 0)
        else:
            inum = self.create(path)
        self.write_inum(inum, data)
        return inum

    def _flush_data(self) -> None:
        """Push dirty data blocks out, one disk operation per block."""
        by_addr: list[tuple[int, int, int]] = []
        # Allocate in file order so sequential files get contiguous blocks.
        for inum, fbn in sorted(self._dirty_data):
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
        self._dirty_data.clear()
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
        if fmap.dirty_children:
            l2 = fmap._load_l2()
            for child_idx in sorted(fmap.dirty_children):
                addr = l2[child_idx]
                if addr == NULL_ADDR:
                    addr = self.allocator.allocate_near(goal)
                    fmap.place_child(child_idx, addr)
                self.disk.write_block(addr, fmap.pack_child(child_idx), force_latency=True)
                self.stats.async_data_writes += 1
            fmap.dirty_children.clear()
        if fmap.l1_dirty:
            if inode.indirect == NULL_ADDR:
                fmap.place_l1(self.allocator.allocate_near(goal))
            self.disk.write_block(inode.indirect, fmap.pack_l1(), force_latency=True)
            self.stats.async_data_writes += 1
            fmap.l1_dirty = False
        if fmap.l2_dirty:
            if inode.dindirect == NULL_ADDR:
                fmap.place_l2(self.allocator.allocate_near(goal))
            self.disk.write_block(inode.dindirect, fmap.pack_l2(), force_latency=True)
            self.stats.async_data_writes += 1
            fmap.l2_dirty = False
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
        if sequential and self.config.readahead_blocks > 1:
            inode = self._get_inode(inum)
            nblocks = inode.nblocks(self.config.block_size)
            run = [addr]
            next_fbn = fbn + 1
            while (
                len(run) < self.config.readahead_blocks
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

    def read(self, path: str, offset: int = 0, length: int | None = None) -> bytes:
        """Read bytes from a file."""
        return self.read_inum(self._resolve(path), offset, length)

    def read_inum(self, inum: int, offset: int = 0, length: int | None = None) -> bytes:
        """Read by inode number."""
        inode = self._get_inode(inum)
        if length is None:
            length = max(0, inode.size - offset)
        end = min(offset + length, inode.size)
        if end <= offset:
            return b""
        bs = self.config.block_size
        chunks = []
        pos = offset
        while pos < end:
            fbn = pos // bs
            block_off = pos % bs
            take = min(bs - block_off, end - pos)
            payload = self._read_data_block(inum, fbn)
            chunks.append(payload[block_off : block_off + take])
            pos += take
        self.stats.reads += 1
        self.stats.ops += 1
        return b"".join(chunks)

    def truncate(self, path: str, size: int = 0) -> None:
        """Shrink a file, freeing its blocks back to the bitmap."""
        inum = self._resolve(path)
        inode = self._get_inode(inum)
        if inode.is_directory:
            raise IsADirectoryError_(f"{path!r} is a directory")
        if size < 0 or size > inode.size:
            raise InvalidOperationError(f"cannot truncate to {size}")
        if size == inode.size:
            return
        bs = self.config.block_size
        first_dead = (size + bs - 1) // bs
        fmap = self._filemap(inum)
        for _, addr in fmap.clear_from(first_dead, inode.nblocks(bs)):
            self.allocator.free(addr)
        self.cache.drop_from(inum, first_dead)
        self._dirty_data = {(i, f) for (i, f) in self._dirty_data if i != inum or f < first_dead}
        inode.size = size
        inode.mtime = self.disk.clock.now
        if self.config.sync_metadata:
            self._write_inode_sync(inode)
        self.stats.ops += 1

    def _dir_insert_sync(self, parent: int, name: str, inum: int) -> None:
        """Add a directory entry with the synchronous write pattern."""
        state = self._dir_state(parent)
        target = None
        for idx, entries in enumerate(state.blocks):
            if dirfmt.block_has_room(entries, name, self.config.block_size):
                target = idx
                break
        if target is None:
            state.blocks.append([])
            target = len(state.blocks) - 1
        state.blocks[target].append((name, inum))
        state.index[name] = (inum, target)
        parent_inode = self._get_inode(parent)
        parent_inode.mtime = self.disk.clock.now
        if self.config.sync_metadata:
            self._write_dir_block_sync(parent, target, state)
            self._write_inode_sync(parent_inode)

    def _dir_remove_sync(self, parent: int, name: str) -> int:
        """Remove a directory entry with the synchronous write pattern."""
        state = self._dir_state(parent)
        hit = state.index.get(name)
        if hit is None:
            raise FileNotFoundLFSError(f"{name!r} not found")
        inum, block_idx = hit
        del state.index[name]
        state.blocks[block_idx] = [e for e in state.blocks[block_idx] if e[0] != name]
        if self.config.sync_metadata:
            self._write_dir_block_sync(parent, block_idx, state)
            self._write_inode_sync(self._get_inode(parent))
        return inum

    def _drop_inode(self, inum: int) -> None:
        """Free an inode and everything it owns (link count reached zero)."""
        inode = self._get_inode(inum)
        fmap = self._filemap(inum)
        for _, addr in fmap.all_block_addrs(inode.nblocks(self.config.block_size)):
            self.allocator.free(addr)
        self.cache.drop_file(inum)
        self._dirty_data = {(i, f) for (i, f) in self._dirty_data if i != inum}
        self._inodes.pop(inum, None)
        self._filemaps.pop(inum, None)
        self._dir_states.pop(inum, None)
        self.inode_alloc.free(inum)

    def unlink(self, path: str) -> None:
        """Remove a directory entry: synchronous metadata updates."""
        parent, name = self._resolve_parent(path)
        state = self._dir_state(parent)
        hit = state.index.get(name)
        if hit is None:
            raise FileNotFoundLFSError(f"{path!r} not found")
        inum, _ = hit
        inode = self._get_inode(inum)
        if inode.is_directory and len(self._dir_state(inum)):
            raise DirectoryNotEmptyError(f"{path!r} is not empty")
        self._dir_remove_sync(parent, name)
        inode.nlink -= 1
        if self.config.sync_metadata:
            self._write_inode_sync(inode)  # updated link count
        if inode.nlink <= 0:
            self._drop_inode(inum)
        self.stats.deletes += 1
        self.stats.ops += 1

    def link(self, existing: str, newpath: str) -> None:
        """Create a hard link to a regular file."""
        inum = self._resolve(existing)
        inode = self._get_inode(inum)
        if inode.is_directory:
            from repro.core.errors import IsADirectoryError_ as _IsDir

            raise _IsDir("cannot hard-link a directory")
        parent, name = self._resolve_parent(newpath)
        dirfmt.validate_name(name)
        if self._dir_state(parent).lookup(name) is not None:
            raise FileExistsLFSError(f"{newpath!r} already exists")
        self._dir_insert_sync(parent, name, inum)
        inode.nlink += 1
        if self.config.sync_metadata:
            self._write_inode_sync(inode)
        self.stats.ops += 1

    def rename(self, oldpath: str, newpath: str) -> None:
        """Move a file or directory (synchronous directory updates)."""
        old_parent, old_name = self._resolve_parent(oldpath)
        new_parent, new_name = self._resolve_parent(newpath)
        dirfmt.validate_name(new_name)
        inum = self._dir_state(old_parent).lookup(old_name)
        if inum is None:
            raise FileNotFoundLFSError(f"{oldpath!r} not found")
        displaced = self._dir_state(new_parent).lookup(new_name)
        if displaced == inum:
            return
        if displaced is not None:
            victim = self._get_inode(displaced)
            if victim.is_directory and len(self._dir_state(displaced)):
                raise DirectoryNotEmptyError(f"{newpath!r} is not empty")
            self._dir_remove_sync(new_parent, new_name)
            victim.nlink -= 1
            if victim.nlink <= 0:
                self._drop_inode(displaced)
        self._dir_remove_sync(old_parent, old_name)
        self._dir_insert_sync(new_parent, new_name, inum)
        self.stats.ops += 1

    def readdir(self, path: str) -> list[str]:
        """Names in a directory, sorted."""
        inum = self._resolve(path)
        if not self._get_inode(inum).is_directory:
            raise NotADirectoryError_(f"{path!r} is not a directory")
        return self._dir_state(inum).names()

    def stat(self, path: str):
        """Attributes of a file or directory (LFS-compatible shape)."""
        from repro.core.filesystem import StatResult

        inum = self._resolve(path)
        inode = self._get_inode(inum)
        return StatResult(
            inum=inum,
            ftype=inode.ftype,
            size=inode.size,
            nlink=inode.nlink,
            mtime=inode.mtime,
            version=0,
        )

    def sync(self) -> None:
        """Flush all buffered data."""
        if self._dirty_data:
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
