"""Sprite LFS: the log-structured file system facade.

``LFS`` glues the pieces together: the write-back cache buffers
modifications; flushes turn dirty blocks into partial-segment writes
through the :class:`~repro.core.segments.LogWriter` (data, then indirect
blocks, then inodes, then — at checkpoints — inode-map and segment-usage
blocks); the cleaner regenerates free segments; checkpoints plus
roll-forward provide crash recovery. There is no bitmap and no free list:
free space management is entirely segment-based, as in the paper.
"""

from __future__ import annotations

import dataclasses
import weakref
import zlib
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

from repro.core.blocks import checksum, splice
from repro.core.cache import BlockCache
from repro.core.checkpoint import Checkpoint, read_latest_checkpoint, write_checkpoint
from repro.core.cleaner import Cleaner
from repro.core.config import DiskLayout, LFSConfig, compute_layout
from repro.core.constants import (
    INODE_SIZE,
    NO_SEGMENT,
    NULL_ADDR,
    NUM_DIRECT,
    PENDING_ADDR,
    ROOT_INUM,
    BlockKind,
    DirOp,
    FileType,
)
from repro.core import directory as dirfmt
from repro.core.dirlog import DirOpRecord, pack_records
from repro.core.errors import (
    LFSError,
    CorruptionError,
    FileExistsLFSError,
    FileNotFoundLFSError,
    InvalidOperationError,
    IsADirectoryError_,
    MediaError,
    NoSpaceError,
    NotMountedError,
    ReadOnlyError,
)
from repro.core.inode import Inode, find_inode, inodes_per_block, pack_inode_block
from repro.core.inode_map import InodeMap
from repro.core.mapping import L2, FileMap, node_of, summary_id
from repro.core.namespace import Namespace
from repro.core.seg_usage import SegmentUsageTable
from repro.core.segments import LogItem, LogWriter
from repro.core.summary import SegmentGap, walk_segment
from repro.core.superblock import Superblock
from repro.disk.device import Disk
from repro.obs.attribution import (
    CHECKPOINT,
    CLEANING_WRITE,
    DATA_WRITE,
    NVM_DESTAGE,
    write_cost,
)
from repro.obs.events import CACHE_FLUSH, FLASH_TRIM, FS_SYNC

# Shared no-op context for the untraced path: one instance, no allocation
# per flush when observability is off.
_NULL_CAUSE = nullcontext()


@dataclass
class LFSStats:
    """Operation counters and derived performance figures."""

    creates: int = 0
    deletes: int = 0
    reads: int = 0
    writes: int = 0
    renames: int = 0
    flushes: int = 0
    checkpoints: int = 0
    checkpoint_region_blocks: int = 0
    ops: int = 0


class LFS(Namespace):
    """A log-structured file system on a simulated disk.

    Use :meth:`format` to create a fresh file system or :meth:`mount` to
    attach to an existing one (optionally rolling the log forward after a
    crash). Paths are ``/``-separated absolute strings.
    """

    def __init__(
        self, disk: Disk, config: LFSConfig, layout: DiskLayout, nvram=None
    ) -> None:
        self.disk = disk
        self.config = config
        self.layout = layout
        self.usage = SegmentUsageTable(
            layout.num_segments, config.segment_bytes, config.seg_usage_entries_per_block
        )
        self.imap = InodeMap(config.max_inodes, config.imap_entries_per_block)
        self.writer = LogWriter(disk, config, layout, self.usage)
        self.cache = BlockCache(config.cache_blocks)
        self.cleaner = Cleaner(self)
        self.stats = LFSStats()
        # Optional observability hook (repro.obs.Observation); None = off.
        self.obs = None
        self._inodes: dict[int, Inode] = {}
        # Cleared in place, never rebound: each map holds its ``add``.
        self._dirty_inodes: set[int] = set()
        self._filemaps: dict[int, FileMap] = {}
        # Every inum whose FileMap has an indirect block to write (it may
        # hold more: the flush prunes freed and clean maps as it walks).
        # Cleared in place, never rebound: each map holds its ``add``.
        self._dirty_maps: set[int] = set()
        # The three hooks every FileMap calls back through, built once.
        # They reach this object through a weak proxy: the maps live in
        # ``_filemaps``, so a strong reference would make every LFS a
        # cycle that only the collector can free.
        weak = weakref.proxy(self)
        self._filemap_hooks = (
            lambda addr: weak._read_log_block(addr),
            self._dirty_inodes.add,
            self._dirty_maps.add,
        )
        self._dir_states: dict[int, dirfmt.Directory] = {}
        self._pending_dirops: list[DirOpRecord] = []
        self._dirop_addrs: list[int] = []
        self._checkpoint_seq = 1
        self._next_region_b = False
        self._last_checkpoint_time = disk.clock.now
        self._mounted = False
        self._in_cleaner = False
        self._clean_retry_at = 0
        self._last_checkpoint_log_blocks = 0
        # Dead segments whose TRIM must wait for the next checkpoint:
        # trimming before the usage table's clean verdict is durable
        # could leave recovery reading a trimmed (unreadable) block.
        self._pending_trims: set[int] = set()
        # Sick-disk degradation state: unrecoverable errors seen on the
        # read path; crossing the configured budget flips ``read_only``.
        self.read_only = False
        self.media_errors_seen = 0
        self._read_only_reason: str | None = None
        # NVM write-ahead staging, the second persistence domain: present
        # only when format/mount were handed a staging device (passing one
        # is the opt-in — it may hold acknowledged records from before a
        # crash, and ignoring it would silently lose them).
        self.nvlog = None
        if nvram is not None:
            from repro.core.nvlog import NVLog  # loaded only with a board

            self.nvlog = NVLog(self, nvram)
        # Segments whose on-disk summaries have been folded into the
        # writer's CRC index (lazy back-fill for pre-mount writes).
        self._crc_indexed_segments: set[int] = set()
        #: log addresses no valid segment summary vouches for — either a
        #: segment's unused tail (never read) or the footprint of a write
        #: whose summary rotted away (reading those blocks as if intact
        #: would be silent corruption, so the read path refuses).
        self._tainted_addrs: set[int] = set()

    # ==================================================================
    # lifecycle

    @classmethod
    def format(
        cls, disk: Disk, config: LFSConfig | None = None, *, obs=None, nvram=None
    ) -> "LFS":
        """mkfs: write a fresh file system and return it mounted.

        ``obs`` (a :class:`repro.obs.Observation`) is attached before the
        first write so the trace covers the whole session, including the
        format-time checkpoint. ``nvram`` (a
        :class:`~repro.disk.nvram.NVMDevice`) attaches NVM write-ahead
        staging (:class:`~repro.core.nvlog.NVLog`); omitted, syncs flush
        to the log.
        """
        config = config if config is not None else LFSConfig()
        if config.block_size != disk.geometry.block_size:
            raise InvalidOperationError(
                f"config block size {config.block_size} != disk block size "
                f"{disk.geometry.block_size}"
            )
        align = getattr(disk.geometry, "erase_block_blocks", 1) or 1
        layout = compute_layout(config, disk.geometry.num_blocks, align=align)
        fs = cls(disk, config, layout, nvram)
        if obs is not None:
            obs.attach(fs)
        sb = Superblock.from_layout(config, layout)
        disk.write_block(0, sb.to_bytes(config.block_size))
        fs._install_inode(ROOT_INUM, FileType.DIRECTORY, 1, disk.clock.now)
        fs._mounted = True
        fs.checkpoint()
        return fs

    @classmethod
    def mount(
        cls,
        disk: Disk,
        config: LFSConfig | None = None,
        *,
        roll_forward: bool = True,
        scavenge: bool = True,
        obs=None,
        nvram=None,
    ) -> "LFS":
        """Attach to an existing file system.

        Geometry parameters come from the superblock; runtime knobs
        (cleaning policy, thresholds, checkpoint interval) come from
        ``config`` if given. With ``roll_forward=False`` the system
        discards everything written after the last checkpoint, like the
        paper's production configuration.

        When *both* checkpoint regions are unreadable the mount falls back
        to the scavenger (:func:`repro.core.recovery.scavenge`), rebuilding
        the inode map and segment usage table from segment summaries alone;
        pass ``scavenge=False`` to surface the :class:`CorruptionError`
        instead. ``nvram`` attaches staging as in :meth:`format`; its
        surviving records replay after the log is recovered.
        """
        sb = Superblock.from_bytes(disk.read_block(0))
        runtime = config if config is not None else LFSConfig()
        merged = dataclasses.replace(
            runtime,
            block_size=sb.block_size,
            segment_bytes=sb.segment_bytes,
            max_inodes=sb.max_inodes,
        )
        align = getattr(disk.geometry, "erase_block_blocks", 1) or 1
        layout = compute_layout(merged, disk.geometry.num_blocks, align=align)
        if layout.num_segments != sb.num_segments or layout.segment_area_start != sb.segment_area_start:
            raise CorruptionError("superblock layout does not match device geometry")
        fs = cls(disk, merged, layout, nvram)
        if obs is not None:
            obs.attach(fs)
        try:
            cp, was_b = read_latest_checkpoint(disk, layout)
        except CorruptionError:
            if not scavenge:
                raise
            from repro.core.recovery import scavenge as do_scavenge

            fs._mounted = True
            fs.last_recovery = do_scavenge(fs)
            # Scavenge rebuilds the same durable state roll-forward would
            # have reached, so staged records replay on top of it too.
            if fs.nvlog is not None:
                fs.nvlog.mount(fs.last_recovery)
            fs.checkpoint()
            return fs
        fs._load_checkpoint(cp, was_b)
        fs._mounted = True
        report = None
        if roll_forward:
            from repro.core.recovery import roll_forward as do_roll_forward

            report = fs.last_recovery = do_roll_forward(fs, cp)
        if fs.nvlog is not None:
            # Without roll-forward the mount discards the post-checkpoint
            # suffix by contract, and with it the staged records.
            fs.nvlog.mount(report, discard=not roll_forward)
        if report is not None and (
            report.partial_writes_replayed
            or report.dirops_applied
            or report.nvm_records_replayed
        ):
            fs.checkpoint()
        # Capture the CRC index for every in-log segment while its
        # summaries are known-good: a scrub can then convict a block whose
        # own summary rots away later, including the final summary of a
        # segment (nothing after it on disk to expose the break). Indexing
        # that ran during checkpoint loading or roll-forward used the
        # checkpoint's sequence bound, under which post-checkpoint writes
        # look invalid — drop it and re-walk with the final cursor.
        fs._crc_indexed_segments.clear()
        fs._tainted_addrs.clear()
        for seg_no in fs.usage.dirty_segments():
            fs._index_segment_crcs(seg_no)
        return fs

    def _load_checkpoint(self, cp: Checkpoint, was_region_b: bool) -> None:
        """Initialize in-memory state from a checkpoint region."""
        loaded: list[tuple[int, bytes]] = []
        for idx, addr in enumerate(cp.imap_addrs):
            if addr != NULL_ADDR:
                payload = self.disk.read_block(addr)
                self.imap.load_block(idx, payload)
                loaded.append((addr, payload))
            self.imap.block_addrs[idx] = addr
        for idx, addr in enumerate(cp.usage_addrs):
            if addr != NULL_ADDR:
                payload = self.disk.read_block(addr)
                self.usage.load_block(idx, payload)
                loaded.append((addr, payload))
            self.usage.block_addrs[idx] = addr
        self.imap._dirty_blocks.clear()
        for idx in range(self.usage.num_blocks):
            self.usage.clear_dirty(idx)
        self.imap._next_inum = cp.next_inum
        next_segment = None if cp.next_segment == NO_SEGMENT else cp.next_segment
        self.writer.restore_cursor(cp.tail_segment, cp.tail_offset, cp.log_seq, next_segment)
        self._checkpoint_seq = cp.seq + 1
        self._next_region_b = not was_region_b
        self._last_checkpoint_time = cp.timestamp
        self.disk.clock.advance_to(cp.timestamp)
        # The map/table blocks came off the log, so their summaries carry
        # per-block CRCs; verify them now that the write cursor (and with
        # it the CRC index's sequence bound) is restored. Rot in
        # checkpoint-referenced metadata becomes a detected mount failure
        # instead of a silently garbage inode map.
        for addr, payload in loaded:
            self._verify_log_payload(addr, payload)

    def unmount(self) -> None:
        """Checkpoint and detach.

        The detached instance accepts no further calls, so it gives up
        its cache and every other piece of in-memory state exactly as
        :meth:`crash` does (:meth:`_drop_memory_state`); use
        :meth:`LFS.mount` for a fresh instance.
        """
        self._require_mounted()
        self.checkpoint()
        self._mounted = False
        self._drop_memory_state()

    def crash(self) -> None:
        """Simulate an OS crash: all in-memory state is lost.

        The disk keeps whatever was durably written. Use
        :meth:`LFS.mount` afterwards to recover. With
        ``battery_backed_buffer`` the write buffer drains to the log
        before the system halts (unless the disk itself lost power).
        What is lost is the list in :meth:`_drop_memory_state`, shared
        with :meth:`unmount`.
        """
        if (
            self._mounted
            and self.config.battery_backed_buffer
            and not self.disk.faults.crashed
        ):
            try:
                self.checkpoint()
            except LFSError:
                pass  # the battery could not save everything; recover normally
        self._mounted = False
        self._drop_memory_state()

    def _drop_memory_state(self) -> None:
        """Forget everything held in RAM; the end of this instance's life."""
        self.cache.clear_all()
        self._inodes.clear()
        self._dirty_inodes.clear()
        self._filemaps.clear()
        self._dirty_maps.clear()
        self._dir_states.clear()
        self._pending_dirops.clear()
        self._pending_trims.clear()
        if self.nvlog is not None:
            self.nvlog.reset()

    @property
    def mounted(self) -> bool:
        """True while the file system accepts operations."""
        return self._mounted

    def _require_mounted(self) -> None:
        if not self._mounted:
            raise NotMountedError("file system is not mounted")

    def _require_writable(self) -> None:
        """Fail fast when the file system has degraded to read-only.

        Internal maintenance (flush, checkpoint, cleaning, rescue) stays
        allowed: persisting quarantine verdicts and already-buffered data
        is safer than stranding them in memory. Only new application
        mutations are refused.
        """
        self._require_mounted()
        if self.read_only:
            raise ReadOnlyError(
                self._read_only_reason
                or f"file system is read-only after {self.media_errors_seen} "
                f"unrecoverable media errors (budget "
                f"{self.config.media_error_budget})"
            )

    def _note_media_error(self) -> None:
        """Count an unrecoverable read-path error against the budget."""
        self.media_errors_seen += 1
        budget = self.config.media_error_budget
        if budget > 0 and self.media_errors_seen >= budget and not self.read_only:
            self.read_only = True
            if self.obs is not None:
                self.obs.emit(
                    "fs.readonly",
                    media_errors=self.media_errors_seen,
                    budget=budget,
                )

    def _degrade_read_only(self, reason: str) -> None:
        """Flip to read-only for a non-media-budget cause (NVM loss).

        Used when acknowledged synchronous writes cannot be proven
        durable — staying writable would let new data stack on top of a
        silently inconsistent acked history.
        """
        if self.read_only:
            return
        self.read_only = True
        self._read_only_reason = f"file system is read-only: {reason}"
        if self.obs is not None:
            self.obs.emit("fs.readonly", reason=reason)

    def _cause(self, name: str):
        """Scope disk time under an attribution cause (no-op when untraced)."""
        if self.obs is None:
            return _NULL_CAUSE
        return self.obs.cause(name)

    def _span(self, name: str, **fields):
        """Named trace span over a block (no-op when untraced)."""
        if self.obs is None:
            return _NULL_CAUSE
        return self.obs.span(name, **fields)

    # ==================================================================
    # inode / filemap access

    def _read_log_block(self, addr: int) -> bytes:
        if addr in (NULL_ADDR, PENDING_ADDR):
            raise CorruptionError(f"attempt to read sentinel address {addr:#x}")
        try:
            payload = self.disk.read_block(addr)
        except MediaError:
            self._note_media_error()
            raise
        self._verify_log_payload(addr, payload)
        return payload

    def _verify_log_payload(self, addr: int, payload: bytes) -> None:
        """Check a log block against the CRC its segment summary recorded."""
        expected = self.writer.block_crcs.get(addr)
        if expected is None and addr >= self.layout.segment_area_start:
            self._index_segment_crcs(self.layout.segment_of(addr))
            expected = self.writer.block_crcs.get(addr)
            if expected is None and addr in self._tainted_addrs:
                # A live block whose summary rotted away: its recorded CRC
                # is gone with the summary, so there is no way to tell
                # intact bytes from rot. Refuse rather than guess.
                self._note_media_error()
                raise CorruptionError(
                    f"block {addr} is not vouched for by any valid segment "
                    f"summary (its summary rotted away); refusing unverifiable "
                    f"read"
                )
        # ``checksum([payload])`` for one block, without the list.
        if expected is not None and zlib.crc32(payload) != expected:
            self._note_media_error()
            raise CorruptionError(
                f"checksum mismatch reading block {addr}: stored payload does "
                f"not match the CRC its segment summary recorded (bit-rot?)"
            )

    def _index_segment_crcs(self, seg_no: int) -> None:
        """Back-fill the CRC index from one segment's on-disk summaries.

        Runs once per segment, via :meth:`Disk.peek` — on a real system the
        summary block is read alongside the first access to the segment and
        cached, so no extra simulated I/O is charged. Stale summaries from
        a previous epoch of a reused segment are cut off by the epoch rule
        of :func:`~repro.core.summary.walk_segment`.
        """
        if seg_no in self._crc_indexed_segments:
            return
        self._crc_indexed_segments.add(seg_no)
        start = self.layout.segment_start(seg_no)
        seg_blocks = self.config.segment_blocks
        sink = self.writer.block_crcs
        peek, bs = self.disk.peek, self.config.block_size
        for step in walk_segment(peek, peek, start, seg_blocks, bs, seq_limit=self.writer.seq):
            if isinstance(step, SegmentGap):
                if step.beyond is not None:
                    # A write from beyond the restored cursor — the
                    # checkpoint tail before roll-forward has replayed it.
                    # Not rot: stop without tainting and let the
                    # post-recovery re-index walk it with the advanced bound.
                    break
                # Nothing from here to the resume point (or segment end)
                # is vouched for by a valid summary. For an unused tail
                # that is moot — no live block points there — but a live
                # block in this range lost its CRC to summary rot and
                # must not be read back as if intact.
                end = step.resume if step.resume is not None else seg_blocks
                self._tainted_addrs.update(range(start + step.offset, start + end))
                continue
            addr = start + step.offset
            # setdefault: this session's write-through CRCs are fresher
            # than anything parsed off the platter.
            sink.setdefault(addr, checksum([step.raw]))
            for i, entry in enumerate(step.summary.entries):
                sink.setdefault(addr + 1 + i, entry.block_crc)

    def get_inode(self, inum: int) -> Inode:
        """Fetch an inode, reading it from the log if necessary."""
        inode = self._inodes.get(inum)
        if inode is not None:
            return inode
        addr = self.imap.lookup(inum)
        if addr == PENDING_ADDR:
            raise CorruptionError(f"inode {inum} pending but not in memory")
        inode = find_inode(self._read_log_block(addr), inum)
        if inode is None:
            raise CorruptionError(f"inode {inum} not found in its inode block")
        self._inodes[inum] = inode
        return inode

    def _install_inode(self, inum: int, ftype: FileType, nlink: int, when: float) -> None:
        """Bring a new inode to life in memory, dirty, at the slot's version.

        The map slot points at ``PENDING_ADDR`` until the next flush
        writes the inode; a directory starts with an empty entry table.
        """
        self.imap.set_addr(inum, PENDING_ADDR)
        if inum >= self.imap._next_inum:
            self.imap._next_inum = inum + 1
        self._inodes[inum] = Inode(
            inum=inum,
            version=self.imap.version_of(inum),
            ftype=ftype,
            nlink=nlink,
            mtime=when,
            ctime=when,
        )
        self._dirty_inodes.add(inum)
        if ftype == FileType.DIRECTORY:
            self._dir_states[inum] = dirfmt.Directory(self.config.block_size)

    def _mark_inode_dirty(self, inum: int) -> None:
        self._dirty_inodes.add(inum)

    def _set_nlink(self, inum: int, n: int) -> None:
        """Set a link count, dirtying the inode only when it changes."""
        inode = self.get_inode(inum)
        if inode.nlink != n:
            inode.nlink = n
            self._mark_inode_dirty(inum)

    def _live_dir(self, dinum: int) -> bool:
        """True if ``dinum`` names an allocated directory."""
        return self.imap.is_allocated(dinum) and self.get_inode(dinum).is_directory

    def filemap(self, inum: int) -> FileMap:
        """The (cached) block map for one file."""
        fmap = self._filemaps.get(inum)
        if fmap is None:
            inode = self.get_inode(inum)
            fmap = FileMap(inode, self.config.block_size, *self._filemap_hooks)
            self._filemaps[inum] = fmap
        return fmap

    def block_addr(self, inum: int, fbn: int) -> int:
        """Current log address of a file block (liveness checks)."""
        return self.filemap(inum).get(fbn)

    # ==================================================================
    # directory state

    def _dir_write_block(self, dir_inum: int, block: int, state: dirfmt.Directory) -> None:
        now = self.disk.clock.now
        self.cache.write(dir_inum, block, state.payload(block), now)
        inode = self.get_inode(dir_inum)
        needed = (block + 1) * self.config.block_size
        if inode.size < needed:
            inode.size = needed
        inode.mtime = now
        self._mark_inode_dirty(dir_inum)

    def _dir_insert(self, dir_inum: int, name: str, file_inum: int) -> None:
        """Add an entry: to the last block if it fits, else the first that fits."""
        state = self._dir_state(dir_inum)
        if state.lookup(name) is not None:
            raise FileExistsLFSError(f"{name!r} already exists")
        room = self.config.block_size - dirfmt.entry_size(name)
        used = state.used
        if used and used[-1] <= room:
            target = len(used) - 1
        else:
            target = next((b for b, u in enumerate(used) if u <= room), len(used))
        state.insert(name, file_inum, target)
        self._dir_write_block(dir_inum, target, state)

    def _dir_remove(self, dir_inum: int, name: str) -> int:
        state = self._dir_state(dir_inum)
        if state.lookup(name) is None:
            raise FileNotFoundLFSError(f"{name!r} not found")
        inum, block = state.remove(name)
        self._dir_write_block(dir_inum, block, state)
        return inum

    # ==================================================================
    # data block access

    def _read_data_block(self, inum: int, fbn: int) -> bytes:
        entry = self.cache.lookup(inum, fbn)
        if entry is not None:
            return entry.payload
        addr = self.filemap(inum).get(fbn)
        if addr == NULL_ADDR:
            payload = bytes(self.config.block_size)
        else:
            payload = self._read_log_block(addr)
        inode = self._inodes.get(inum)
        self.cache.insert_clean(inum, fbn, payload, inode.mtime if inode else 0.0)
        return payload

    # ==================================================================
    # public operations

    # benchmarks/layered/trace.py wraps only what vars(LFS) holds: bind here
    # the shared operations it times.
    mkdir = Namespace.mkdir
    write_file = Namespace.write_file
    read = Namespace.read
    stat = Namespace.stat
    exists = Namespace.exists

    def create(self, path: str, *, ftype: FileType = FileType.REGULAR) -> int:
        """Create an empty file (or directory); returns the inode number."""
        self._require_writable()
        parent, name = self._free_name(path)
        inum = self.imap.allocate()
        self._install_inode(inum, ftype, 1, self.disk.clock.now)
        self._pending_dirops.append(
            DirOpRecord(op=DirOp.CREATE, file_inum=inum, refcount=1, dir1=parent, name1=name)
        )
        self._dir_insert(parent, name, inum)
        self.stats.creates += 1
        self._after_op()
        return inum

    def write_inum(self, inum: int, data: bytes, offset: int = 0) -> None:
        """Write by inode number (avoids path resolution in benchmarks)."""
        self._require_writable()
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
        nvlog = self.nvlog
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
            if nvlog is not None:
                nvlog.note_range(inum, fbn, block_off, block_off + take)
            pos += take
        if end > inode.size:
            inode.size = end
        inode.mtime = now
        self._mark_inode_dirty(inum)
        self.stats.writes += 1
        self._after_op()

    def read_inum(self, inum: int, offset: int = 0, length: int | None = None) -> bytes:
        """Read by inode number."""
        self._require_mounted()
        data = self._read_range(inum, offset, length)
        if data:
            self.imap.set_atime(inum, self.disk.clock.now)
            self.stats.reads += 1
            self._after_op()
        return data

    def truncate(self, path: str, size: int = 0) -> None:
        """Shrink a file; truncating to zero bumps the uid version."""
        self._require_writable()
        target = self._truncate_target(path, size)
        if target is None:
            return
        inum, inode = target
        self._shrink(inum, inode, size)
        inode.mtime = self.disk.clock.now
        self._mark_inode_dirty(inum)
        self._after_op()

    def _shrink(self, inum: int, inode: Inode, size: int) -> None:
        """Cut a file down to ``size`` bytes.

        The dead blocks' live bytes leave the usage table and their
        cached and staged copies are dropped. Shrinking to zero bumps the
        uid version, so the cleaner judges every old block dead without
        reading the inode (Section 3.3). Callers set the mtime and mark
        the inode dirty.
        """
        bs = self.config.block_size
        first_dead_fbn = (size + bs - 1) // bs
        for _, addr in self.filemap(inum).clear_from(first_dead_fbn, inode.nblocks(bs)):
            self.usage.remove_live(self.layout.segment_of(addr), bs)
        self.cache.drop_from(inum, first_dead_fbn)
        if self.nvlog is not None:
            self.nvlog.trim_ranges(inum, first_dead_fbn)
        inode.size = size
        if size == 0:
            inode.version = self.imap.bump_version(inum)

    def unlink(self, path: str) -> None:
        """Remove a directory entry; frees the file when nlink hits zero."""
        self._require_writable()
        parent, name, inum, inode = self._removable(path)
        self._pending_dirops.append(
            DirOpRecord(
                op=DirOp.UNLINK,
                file_inum=inum,
                refcount=inode.nlink - 1,
                dir1=parent,
                name1=name,
            )
        )
        self._dir_remove(parent, name)
        inode.nlink -= 1
        if inode.nlink <= 0:
            self._free_inode(inum)
        else:
            self._mark_inode_dirty(inum)
        self.stats.deletes += 1
        self._after_op()

    def link(self, existing: str, newpath: str) -> None:
        """Create a hard link to an existing regular file."""
        self._require_writable()
        inum, inode = self._link_source(existing)
        parent, name = self._free_name(newpath)
        self._pending_dirops.append(
            DirOpRecord(
                op=DirOp.LINK,
                file_inum=inum,
                refcount=inode.nlink + 1,
                dir1=parent,
                name1=name,
            )
        )
        self._dir_insert(parent, name, inum)
        inode.nlink += 1
        self._mark_inode_dirty(inum)
        self._after_op()

    def rename(self, oldpath: str, newpath: str) -> None:
        """Atomically move a file or directory (Section 4.2)."""
        self._require_writable()
        plan = self._rename_plan(oldpath, newpath)
        if plan is None:
            return
        old_parent, old_name, new_parent, new_name, inum, displaced = plan
        inode = self.get_inode(inum)
        if displaced is not None:
            victim = self.get_inode(displaced)
            self._pending_dirops.append(
                DirOpRecord(
                    op=DirOp.UNLINK,
                    file_inum=displaced,
                    refcount=victim.nlink - 1,
                    dir1=new_parent,
                    name1=new_name,
                )
            )
        self._pending_dirops.append(
            DirOpRecord(
                op=DirOp.RENAME,
                file_inum=inum,
                refcount=inode.nlink,
                dir1=old_parent,
                name1=old_name,
                dir2=new_parent,
                name2=new_name,
            )
        )
        if displaced is not None:
            self._dir_remove(new_parent, new_name)
            victim.nlink -= 1
            if victim.nlink <= 0:
                self._free_inode(displaced)
            else:
                self._mark_inode_dirty(displaced)
        self._dir_remove(old_parent, old_name)
        self._dir_insert(new_parent, new_name, inum)
        self.stats.renames += 1
        self._after_op()

    def _free_inode(self, inum: int) -> None:
        """Release an inode and every block it owns."""
        inode = self.get_inode(inum)
        fmap = self.filemap(inum)
        bs = self.config.block_size
        for _, addr in fmap.all_block_addrs(inode.nblocks(bs)):
            self.usage.remove_live(self.layout.segment_of(addr), bs)
        old = self.imap.get(inum).addr
        if old not in (NULL_ADDR, PENDING_ADDR):
            self.usage.remove_live(self.layout.segment_of(old), INODE_SIZE)
        self.imap.free(inum)
        self.cache.drop_file(inum)
        self._inodes.pop(inum, None)
        self._filemaps.pop(inum, None)
        self._dir_states.pop(inum, None)
        self._dirty_inodes.discard(inum)
        if self.nvlog is not None:
            self.nvlog.forget(inum)

    # ==================================================================
    # flushing and checkpoints

    def _after_op(self) -> None:
        """Post-operation housekeeping: flush, cleaning, and checkpoints."""
        self.stats.ops += 1
        if self.cache.dirty_count >= self.config.write_buffer_blocks:
            self._ensure_space(self.cache.dirty_count + 64)
            self.flush()
        # The paper's threshold policy: start cleaning when clean segments
        # drop below a low-water mark, continue to the high-water mark.
        # If the target is unreachable at the current disk utilization,
        # back off instead of grinding on every operation.
        if (
            not self._in_cleaner
            and self.usage.clean_count < self.config.clean_low_water
            and self.stats.ops >= self._clean_retry_at
        ):
            self.cleaner.clean(self.config.clean_high_water)
            if self.usage.clean_count < self.config.clean_low_water:
                self._clean_retry_at = self.stats.ops + 64
        interval = self.config.checkpoint_interval
        if interval > 0 and self.disk.clock.now - self._last_checkpoint_time >= interval:
            self.checkpoint()
        # Section 4.1's alternative trigger: new data volume since the
        # last checkpoint, bounding recovery time independently of idle
        # periods.
        threshold = self.config.checkpoint_data_blocks
        if threshold > 0 and (
            self.writer.stats.total_blocks - self._last_checkpoint_log_blocks >= threshold
        ):
            self.checkpoint()

    def _ensure_space(self, upcoming_blocks: int) -> None:
        """Clean, if needed, so a flush of ``upcoming_blocks`` can succeed."""
        if self._in_cleaner:
            return
        # Hard floor: the flush itself plus a trailing checkpoint.
        needed_segments = (
            self.writer.blocks_needed(upcoming_blocks) // self.config.segment_blocks + 2
        )
        target = max(self.config.clean_low_water, needed_segments + self.config.reserved_segments)
        if self.usage.clean_count < target:
            self.cleaner.clean(max(self.config.clean_high_water, target))
        if self.usage.clean_count < needed_segments:
            raise NoSpaceError(
                f"need {needed_segments} clean segments, have {self.usage.clean_count}"
            )

    def _build_flush_items(self, *, cleaning: bool = False) -> list[LogItem]:
        """Assemble the ordered item list for one flush.

        Order: directory-op log records first (the paper's before-the-
        directory-block guarantee), then data blocks, then indirect
        blocks (children before the double-indirect), then inode blocks.
        A checkpoint appends the inode-map and segment-usage blocks
        itself (:meth:`_build_meta_items`).
        """
        items: list[LogItem] = []
        bs = self.config.block_size
        now = self.disk.clock.now

        if self.nvlog is not None:
            self.nvlog.reset()

        # -- directory operation log
        if self._pending_dirops:
            for payload in pack_records(self._pending_dirops, bs):
                items.append(
                    LogItem(
                        kind=BlockKind.DIROP_LOG,
                        mtime=now,
                        payload=payload,
                        on_placed=self._place_dirop,
                    )
                )
            self._pending_dirops = []

        # -- data blocks
        # A cleaning flush age-sorts the survivors so cold data
        # segregates (Section 3.5).
        dirty = self.cache.dirty_blocks(by_age=cleaning)
        data = BlockKind.DATA
        place = self._data_placer()
        # Placing a file's data or indirect blocks moves a pointer in its
        # inode (or in a node that then moves one), so every such inode
        # goes out in this flush, packed after those placements.
        dirty_inodes = self._dirty_inodes
        fmap_inum = None
        for inum, fbn, entry in dirty:
            if inum != fmap_inum:  # runs of one file's blocks share these
                fmap, fmap_inum = self.filemap(inum), inum
                dirty_inodes.add(inum)
                version = self.imap.version_of(inum)
                place_data = partial(place, fmap.set)
            if fbn >= NUM_DIRECT:  # a direct pointer lives in the inode
                fmap.ensure_structures(fbn)
            # kind, inum, offset, version, mtime, payload, get_payload, on_placed
            items.append(
                LogItem(data, inum, fbn, version, entry.mtime, entry.payload, None, place_data)
            )

        # -- indirect blocks: children and single-indirects, then doubles.
        # Only maps in ``_dirty_maps`` can have any; a freed or clean one
        # leaves the set here. A dirty one stays until a later flush finds
        # it clean, so an append that raises strands nothing.
        double_items: list[LogItem] = []
        dirty_maps = self._dirty_maps
        place_node = self._place_node
        for inum in sorted(dirty_maps):
            fmap = self._filemaps.get(inum)
            if fmap is None or not fmap.dirty:
                dirty_maps.discard(inum)
                continue
            dirty_inodes.add(inum)
            if L2 not in fmap.dirty and any(node > 0 for node in fmap.dirty):
                fmap.mark_dirty(L2)  # a moved child moves L2's pointer to it
            version = self.imap.version_of(inum)
            mtime = fmap.inode.mtime
            for node in fmap.write_order():
                kind, offset = summary_id(node)
                # kind, inum, offset, version, mtime, payload, get_payload, on_placed
                item = LogItem(
                    kind, inum, offset, version, mtime, None, partial(fmap.pack, node), place_node
                )
                (double_items if node == L2 else items).append(item)
        items.extend(double_items)

        # -- inode blocks, last: no later placement in the flush touches
        # an inode, so each group's flags clear when it is packed.
        dirty_inums = sorted(dirty_inodes)
        per_block = inodes_per_block(bs)
        for start in range(0, len(dirty_inums), per_block):
            group = dirty_inums[start : start + per_block]
            items.append(
                LogItem(
                    kind=BlockKind.INODE,
                    inum=group[0],
                    offset=0,
                    mtime=max([self._inodes[i].mtime for i in group]),
                    get_payload=partial(self._pack_inodes, group),
                    on_placed=lambda item, addr, g=group: self._place_inodes(g, addr),
                )
            )
        return items

    def _pack_inodes(self, inums: list[int]) -> bytes:
        """One inode block's payload; its inodes are clean from here on."""
        self._dirty_inodes.difference_update(inums)
        return pack_inode_block([self._inodes[i] for i in inums], self.config.block_size)

    def _build_meta_items(self, queued: set[tuple[BlockKind, int]]) -> list[LogItem]:
        """Inode-map and segment-usage blocks that are dirty and not in
        ``queued`` yet (checkpoint flushes only); adds them to it.

        Placing one of these blocks changes the usage table again (the
        old copy dies, the new one is live, the write is stamped), so the
        checkpoint's append asks for them once more after its placements,
        until none is left. A block's dirty flag clears when its payload
        is packed, which is after every placement of that append.
        """
        items: list[LogItem] = []
        now = self.disk.clock.now
        for kind, table in ((BlockKind.INODE_MAP, self.imap), (BlockKind.SEG_USAGE, self.usage)):
            place = partial(self._place_map_block, table.block_addrs)
            for idx in table.dirty_block_indexes():
                if (kind, idx) in queued:
                    continue
                queued.add((kind, idx))
                # kind, inum, offset, version, mtime, payload, get_payload, on_placed
                items.append(
                    LogItem(
                        kind, 0, idx, 0, now, None, partial(self._pack_table_block, table, idx), place
                    )
                )
        return items

    def _pack_table_block(self, table, idx: int) -> bytes:
        """One inode-map or usage block's payload; clean from here on."""
        table.clear_dirty(idx)
        return table.pack_block(idx, self.config.block_size)

    # ---- placement callbacks ----------------------------------------

    def _place_dirop(self, item: LogItem, addr: int) -> None:
        self._dirop_addrs.append(addr)
        self.usage.add_live(
            self.layout.segment_of(addr), self.config.block_size, self.disk.clock.now
        )

    def _data_placer(self):
        """One flush's data placement, as ``place(set_addr, item, addr)``.

        The builder binds each file run's ``FileMap.set`` in with
        ``partial``, so the map is looked up once per run, not per block
        (a map outlives the flush: only unlink and recovery drop one).
        """
        segment_of = self.layout.segment_of
        add_live = self.usage.add_live
        remove_live = self.usage.remove_live
        mark_clean = self.cache.mark_clean
        bs = self.config.block_size

        def place(set_addr, item: LogItem, addr: int) -> None:
            fbn = item.offset
            old = set_addr(fbn, addr)
            if old != NULL_ADDR:
                remove_live(segment_of(old), bs)
            # The item was built from this block's cache entry in this
            # same flush, so it already carries the entry's mtime.
            add_live(segment_of(addr), bs, item.mtime)
            mark_clean(item.inum, fbn)

        return place

    def _place_node(self, item: LogItem, addr: int) -> None:
        """Every indirect item's placement: the map records the node's new
        home, the usage table moves its bytes there."""
        old = self._filemaps[item.inum].place(node_of(item.kind, item.offset), addr)
        bs = self.config.block_size
        if old != NULL_ADDR:
            self.usage.remove_live(self.layout.segment_of(old), bs)
        self.usage.add_live(self.layout.segment_of(addr), bs, self.disk.clock.now)

    def _place_inodes(self, inums: list[int], addr: int) -> None:
        imap, usage, inodes = self.imap, self.usage, self._inodes
        segment_of = self.layout.segment_of
        seg = segment_of(addr)
        now = self.disk.clock.now
        for inum in inums:
            old = imap.set_addr(inum, addr)
            if old not in (NULL_ADDR, PENDING_ADDR):
                usage.remove_live(segment_of(old), INODE_SIZE)
            inode = inodes.get(inum)
            usage.add_live(seg, INODE_SIZE, inode.mtime if inode else now)

    def _place_map_block(self, addr_table: list[int], item: LogItem, addr: int) -> None:
        idx = item.offset
        old = addr_table[idx]
        bs = self.config.block_size
        if old != NULL_ADDR:
            self.usage.remove_live(self.layout.segment_of(old), bs)
        addr_table[idx] = addr
        self.usage.add_live(self.layout.segment_of(addr), bs, self.disk.clock.now)

    # ------------------------------------------------------------------

    def flush(
        self,
        *,
        cleaning: bool = False,
        barrier: bool = False,
        cause: str | None = None,
    ) -> int:
        """Write everything dirty to the log; returns partial writes issued.

        ``barrier`` charges the first partial write half a rotation of
        positioning latency (a synchronous flush issued in isolation);
        ``cause`` overrides the attribution cause (destage flushes charge
        ``nvm_destage`` instead of ``data_write``). Once the flush is on
        disk every staged NVM record is redundant, so the staging log is
        truncated — the write-ahead contract's release point.
        """
        self._require_mounted()
        dirty_before = self.cache.dirty_count
        items = self._build_flush_items(cleaning=cleaning)
        writes = 0
        if items:
            if self.obs is not None:
                self.obs.emit(CACHE_FLUSH, dirty=dirty_before, items=len(items), cleaning=cleaning)
            with self._cause(cause or (CLEANING_WRITE if cleaning else DATA_WRITE)):
                writes = self.writer.append(items, cleaning=cleaning, barrier=barrier)
            self.stats.flushes += 1
        if self.nvlog is not None:
            self.nvlog.truncate_after_flush()
        if items and self.obs is not None:
            self.obs.timeline_tick()
        return writes

    def sync(self) -> None:
        """Make everything pending durable in *some* domain (no checkpoint).

        With an NVM staging board attached, the pending sync set —
        unstaged directory operations, dirty byte ranges, and changed file
        sizes/mtimes — is absorbed into one CRC-framed staging record and
        the call returns without touching the disk log. Otherwise (no
        board, the record would push the staging log past the destage
        threshold, or the board has failed) everything dirty is flushed
        to the on-disk log synchronously; with a board, that flush charges
        its disk time to the ``nvm_destage`` cause.
        """
        self._require_mounted()
        nvlog = self.nvlog
        staged_bytes = nvlog.stage() if nvlog is not None else None
        if staged_bytes is None:
            self._ensure_space(self.cache.dirty_count + len(self._dirty_inodes) + 8)
            self.flush(
                barrier=self.config.sync_flush_barrier,
                cause=NVM_DESTAGE if nvlog is not None else None,
            )
        if self.obs is not None:
            self.obs.emit(
                FS_SYNC,
                staged=staged_bytes is not None,
                bytes=staged_bytes or 0,
                unstaged_dirty=(
                    self._unflushed() if staged_bytes is None
                    else nvlog.uncovered_after_stage()
                ),
            )

    def _unflushed(self) -> int:
        """Acked-sync state the on-disk log does not hold yet: dirty
        blocks, dirty inodes and unlogged directory operations."""
        return self.cache.dirty_count + len(self._dirty_inodes) + len(self._pending_dirops)

    def checkpoint(self) -> None:
        """Two-phase checkpoint (Section 4.1).

        Phase one flushes all modified information — data, indirect
        blocks, inodes, inode-map and usage-table blocks — to the log,
        each block once. The map and usage blocks go out in one append
        that also takes every usage block its own placements change, and
        each is packed after all of them; anything still dirty after that
        is a bug and raises. Phase two writes a checkpoint region at the
        alternating fixed location, timestamp last.
        """
        self._require_mounted()
        with self._span("checkpoint", seq=self._checkpoint_seq):
            self._ensure_space(
                self.cache.dirty_count
                + len(self._dirty_inodes)
                + self.imap.num_blocks
                + self.usage.num_blocks
                + 8
            )
            self.flush()
            # The directory-op log records written since the last checkpoint
            # die with this one, so the table it persists must not count
            # them. Retiring them here is safe: remove_live never marks a
            # segment clean and the metadata rounds below never clean, so
            # no record is overwritten before the region lands.
            for addr in self._dirop_addrs:
                self.usage.remove_live(self.layout.segment_of(addr), self.config.block_size)
            self._dirop_addrs = []
            # Now write the inode map and segment usage table. The residual
            # flush above charges as ordinary data/cleaning traffic; only the
            # map and usage blocks and the region write are checkpoint overhead.
            with self._cause(CHECKPOINT):
                queued: set[tuple[BlockKind, int]] = set()
                more = partial(self._build_meta_items, queued)
                try:
                    self.writer.append(more(), more=more)
                except BaseException:
                    # A block packed for the partial write that failed is
                    # clean but not on disk: the next checkpoint writes
                    # every block this one queued.
                    for kind, idx in queued:
                        (self.imap if kind is BlockKind.INODE_MAP else self.usage).mark_dirty(idx)
                    raise
                left = (
                    sorted(self._dirty_inodes),
                    self.imap.dirty_block_indexes(),
                    self.usage.dirty_block_indexes(),
                )
                if any(left):
                    raise RuntimeError(
                        "checkpoint left metadata dirty "
                        f"(inodes, inode-map blocks, usage blocks): {left}"
                    )

                now = self.disk.clock.now
                cp = Checkpoint(
                    seq=self._checkpoint_seq,
                    timestamp=now,
                    log_seq=self.writer.seq,
                    tail_segment=self.writer.current_segment
                    if self.writer.current_segment is not None
                    else 0,
                    tail_offset=self.writer.offset,
                    next_segment=self.writer.next_segment
                    if self.writer.next_segment is not None
                    else NO_SEGMENT,
                    next_inum=self.imap._next_inum,
                    imap_addrs=list(self.imap.block_addrs),
                    usage_addrs=list(self.usage.block_addrs),
                )
                write_checkpoint(self.disk, self.layout, cp, region_b=self._next_region_b)
            self.stats.checkpoint_region_blocks += self.layout.checkpoint_blocks
            self._checkpoint_seq += 1
            self._next_region_b = not self._next_region_b
            self._last_checkpoint_time = now
            self._last_checkpoint_log_blocks = self.writer.stats.total_blocks
            self.stats.checkpoints += 1
            # Segment deaths recorded before this region write are durable
            # now: the usage table just persisted them clean, so recovery
            # can never need their old bytes. Safe to TRIM.
            if self._pending_trims:
                self._drain_pending_trims()
        if self.obs is not None:
            self.obs.timeline_tick()

    def _drain_pending_trims(self) -> None:
        """TRIM deferred dead segments whose death a checkpoint persisted.

        A segment is skipped (and forgotten) if it was reopened by the
        writer or quarantined since its death was recorded; it is trimmed
        only while still clean.
        """
        pending, self._pending_trims = self._pending_trims, set()
        held = self.writer.open_segments()
        for seg_no in sorted(pending):
            rec = self.usage.get(seg_no)
            if not rec.clean or rec.quarantined or seg_no in held:
                continue
            self._trim_segment(seg_no)

    def _trim_segment(self, seg_no: int) -> None:
        """TRIM one dead segment's blocks on a flash disk (no-op elsewhere).

        Callers must only pass segments whose death is durable — a
        checkpoint has already persisted the usage table marking them
        clean — because a trimmed, never-reprogrammed block is unreadable
        by contract and recovery must never want one.
        """
        if self.disk.flash is None:
            return
        start = self.layout.segment_start(seg_no)
        erased = self.disk.trim(start, self.config.segment_blocks)
        if self.obs is not None:
            self.obs.emit(
                FLASH_TRIM,
                segment=seg_no,
                start=start,
                blocks=self.config.segment_blocks,
                erased=erased,
            )

    def clean_now(self, target_clean: int | None = None) -> int:
        """Run the cleaner immediately; returns segments cleaned."""
        self._require_mounted()
        target = target_clean if target_clean is not None else self.config.clean_high_water
        return self.cleaner.clean(target)

    # ==================================================================
    # derived statistics

    @property
    def write_cost(self) -> float:
        """The paper's write cost: total disk traffic per byte of new data.

        ``(log blocks written + cleaner blocks read) / new data blocks``;
        1.0 means the full disk bandwidth went to new data.
        """
        log = self.writer.stats
        cost = write_cost(
            log.total_blocks,
            self.stats.checkpoint_region_blocks,
            log.cleaner_blocks,
            self.cleaner.stats.blocks_read,
        )
        return 1.0 if cost is None else cost

    @property
    def disk_capacity_utilization(self) -> float:
        """Fraction of the segment area occupied by live bytes."""
        total = self.layout.num_segments * self.config.segment_bytes
        return self.usage.total_live_bytes() / total if total else 0.0

    def segment_utilizations(self, *, include_clean: bool = False) -> list[float]:
        """Per-segment utilization snapshot (Figure 10).

        By default only segments that are part of the log are reported;
        ``include_clean`` adds clean segments (as zeros).
        """
        out = []
        for seg_no in range(self.layout.num_segments):
            if self.usage.get(seg_no).clean and not include_clean:
                continue
            out.append(self.usage.utilization(seg_no))
        return out

    def live_data_breakdown(self) -> dict[str, int]:
        """Approximate live bytes on disk by block type (Table 4).

        Walks the inode map and file maps without charging simulated time
        (this is an analysis probe, not file system activity).
        """
        bs = self.config.block_size
        data = indirect = 0
        inodes = self.imap.live_count
        for inum in self.imap.allocated_inums():
            inode = self.get_inode(inum)
            fmap = self.filemap(inum)
            for kind, _ in fmap.all_block_addrs(inode.nblocks(bs)):
                if kind == "data":
                    data += bs
                else:
                    indirect += bs
        imap_bytes = sum(1 for a in self.imap.block_addrs if a != NULL_ADDR) * bs
        usage_bytes = sum(1 for a in self.usage.block_addrs if a != NULL_ADDR) * bs
        return {
            "data": data,
            "indirect": indirect,
            "inode": inodes * INODE_SIZE,
            "inode_map": imap_bytes,
            "seg_usage": usage_bytes,
            "dirop_log": len(self._dirop_addrs) * bs,
        }

    def log_bandwidth_breakdown(self) -> dict[str, int]:
        """Blocks written to the log by kind since format/mount (Table 4)."""
        kinds = self.writer.stats.blocks_by_kind
        return {
            "data": kinds.get(BlockKind.DATA, 0),
            "indirect": kinds.get(BlockKind.INDIRECT, 0)
            + kinds.get(BlockKind.DINDIRECT, 0),
            "inode": kinds.get(BlockKind.INODE, 0),
            "inode_map": kinds.get(BlockKind.INODE_MAP, 0),
            "seg_usage": kinds.get(BlockKind.SEG_USAGE, 0),
            "dirop_log": kinds.get(BlockKind.DIROP_LOG, 0),
            "summary": kinds.get(BlockKind.SUMMARY, 0),
        }
