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
from contextlib import nullcontext
from dataclasses import dataclass

from repro.core.blocks import checksum
from repro.core.cache import BlockCache
from repro.core.checkpoint import Checkpoint, read_latest_checkpoint, write_checkpoint
from repro.core.cleaner import Cleaner
from repro.core.config import DiskLayout, LFSConfig, compute_layout
from repro.core.constants import (
    INODE_SIZE,
    NO_SEGMENT,
    NULL_ADDR,
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
    DirectoryNotEmptyError,
    FileExistsLFSError,
    FileNotFoundLFSError,
    InvalidOperationError,
    IsADirectoryError_,
    MediaError,
    NoSpaceError,
    NotADirectoryError_,
    NotMountedError,
    NVMDeviceFailedError,
    NVMError,
    ReadOnlyError,
)
from repro.core.inode import Inode, inodes_per_block, pack_inode_block, unpack_inode_block
from repro.core.inode_map import InodeMap
from repro.core.mapping import FileMap
from repro.core.nvlog import NVDirOp, NVMeta, NVPatch, pack_body
from repro.core.seg_usage import SegmentUsageTable
from repro.core.segments import LogItem, LogWriter
from repro.core.summary import SegmentGap, walk_segment
from repro.core.superblock import Superblock
from repro.disk.device import Disk
from repro.obs.attribution import CHECKPOINT, CLEANING_WRITE, DATA_WRITE, NVM_DESTAGE
from repro.obs.events import CACHE_FLUSH, FLASH_TRIM, FS_SYNC, NVM_FAIL

# Shared no-op context for the untraced path: one instance, no allocation
# per flush when observability is off.
_NULL_CAUSE = nullcontext()


@dataclass
class StatResult:
    """Metadata returned by :meth:`LFS.stat`."""

    inum: int
    ftype: FileType
    size: int
    nlink: int
    mtime: float
    version: int

    @property
    def is_directory(self) -> bool:
        return self.ftype == FileType.DIRECTORY


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


class _DirState:
    """In-memory image of one directory: per-block entries plus an index."""

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


class LFS:
    """A log-structured file system on a simulated disk.

    Use :meth:`format` to create a fresh file system or :meth:`mount` to
    attach to an existing one (optionally rolling the log forward after a
    crash). Paths are ``/``-separated absolute strings.
    """

    def __init__(self, disk: Disk, config: LFSConfig, layout: DiskLayout) -> None:
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
        self._dirty_inodes: set[int] = set()
        self._filemaps: dict[int, FileMap] = {}
        # The two hooks every FileMap calls back through, built once.
        # They reach this object through a weak proxy: the maps live in
        # ``_filemaps``, so a strong reference would make every LFS a
        # cycle that only the collector can free.
        weak = weakref.proxy(self)
        self._filemap_hooks = (
            lambda addr: weak._read_log_block(addr),
            lambda inum: weak._mark_inode_dirty(inum),
        )
        self._dir_states: dict[int, _DirState] = {}
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
        # NVM write-ahead staging (``config.nvram_staging``): the second
        # persistence domain. ``nvram`` is the staging device (attached by
        # format/mount); the bookkeeping below tracks which pending state
        # the staging log already covers, so each sync stages only the
        # delta since the previous record:
        #  - ``_nvm_staged_dirops``: count of ``_pending_dirops`` entries
        #    already staged (reset when a flush consumes the list);
        #  - ``_nvm_dirty_ranges``: inum -> fbn -> merged (start, end)
        #    byte ranges written since the last record/flush;
        #  - ``_nvm_staged_meta``: inum -> (size, mtime) last staged, so
        #    unchanged metadata is not re-staged every fsync.
        self.nvram = None
        self._nvm_staged_dirops = 0
        self._nvm_dirty_ranges: dict[int, dict[int, list[tuple[int, int]]]] = {}
        self._nvm_staged_meta: dict[int, tuple[int, float]] = {}
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
        :class:`~repro.disk.nvram.NVMDevice`) supplies the staging board
        when ``config.nvram_staging`` is on; omitted, a default board is
        created sharing the disk's clock.
        """
        config = config if config is not None else LFSConfig()
        if config.block_size != disk.geometry.block_size:
            raise InvalidOperationError(
                f"config block size {config.block_size} != disk block size "
                f"{disk.geometry.block_size}"
            )
        align = getattr(disk.geometry, "erase_block_blocks", 1) or 1
        layout = compute_layout(config, disk.geometry.num_blocks, align=align)
        fs = cls(disk, config, layout)
        fs._attach_nvram(nvram)
        if obs is not None:
            obs.attach(fs)
        sb = Superblock.from_layout(config, layout)
        disk.write_block(0, sb.to_bytes(config.block_size))
        root = Inode(
            inum=ROOT_INUM,
            ftype=FileType.DIRECTORY,
            nlink=1,
            mtime=disk.clock.now,
            ctime=disk.clock.now,
        )
        fs._inodes[ROOT_INUM] = root
        fs._dirty_inodes.add(ROOT_INUM)
        fs._dir_states[ROOT_INUM] = _DirState([])
        fs.imap.get(ROOT_INUM).addr = PENDING_ADDR
        fs.imap._next_inum = ROOT_INUM + 1
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
        instead.
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
        fs = cls(disk, merged, layout)
        fs._attach_nvram(nvram)
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
            fs._nvm_mount_replay(fs.last_recovery)
            fs.checkpoint()
            return fs
        fs._load_checkpoint(cp, was_b)
        fs._mounted = True
        if roll_forward:
            from repro.core.recovery import roll_forward as do_roll_forward

            report = do_roll_forward(fs, cp)
            fs.last_recovery = report
            fs._nvm_mount_replay(report)
            if (
                report.partial_writes_replayed
                or report.dirops_applied
                or report.nvm_records_replayed
            ):
                fs.checkpoint()
        else:
            # Discarding everything after the checkpoint by contract also
            # discards the staged suffix the records describe.
            fs._nvm_mount_replay(None, discard=True)
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

    def _attach_nvram(self, nvram) -> None:
        """Bind the NVM staging board (or build one) when the knob is on.

        The board shares the disk's clock so staging latency and disk
        latency advance the same simulated timeline. Passing a device is
        itself the opt-in — it may hold acknowledged records from before
        a crash, and ignoring it would silently lose them — while the
        ``nvram_staging`` knob governs auto-creating a default board when
        none is supplied.
        """
        if nvram is None:
            if not self.config.nvram_staging:
                self.nvram = None
                return
            from repro.disk.nvram import NVMDevice

            nvram = NVMDevice(clock=self.disk.clock)
        else:
            nvram.clock = self.disk.clock
        self.nvram = nvram

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
        self._dir_states.clear()
        self._pending_dirops.clear()
        self._pending_trims.clear()
        # Staging bookkeeping is RAM; the NVM device itself (a second
        # persistence domain) keeps its records for mount-time replay.
        self._nvm_staged_dirops = 0
        self._nvm_dirty_ranges.clear()
        self._nvm_staged_meta.clear()

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
        # CRC 0 doubles as "unknown" (images written before per-entry CRCs
        # existed carry zeros in those bytes) — skip verification for it.
        if expected and checksum([payload]) != expected:
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
                if entry.block_crc:
                    sink.setdefault(addr + 1 + i, entry.block_crc)

    def get_inode(self, inum: int) -> Inode:
        """Fetch an inode, reading it from the log if necessary."""
        inode = self._inodes.get(inum)
        if inode is not None:
            return inode
        addr = self.imap.lookup(inum)
        if addr == PENDING_ADDR:
            raise CorruptionError(f"inode {inum} pending but not in memory")
        payload = self._read_log_block(addr)
        for candidate in unpack_inode_block(payload, self.config.block_size):
            if candidate.inum == inum:
                self._inodes[inum] = candidate
                return candidate
        raise CorruptionError(f"inode {inum} not found in its inode block")

    def _mark_inode_dirty(self, inum: int) -> None:
        self._dirty_inodes.add(inum)

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
    # path resolution

    @staticmethod
    def _split_path(path: str) -> list[str]:
        if not path.startswith("/"):
            raise InvalidOperationError(f"path {path!r} must be absolute")
        return [part for part in path.split("/") if part]

    def _resolve(self, path: str) -> int:
        """Path -> inode number; raises if any component is missing."""
        inum = ROOT_INUM
        for part in self._split_path(path):
            inode = self.get_inode(inum)
            if not inode.is_directory:
                raise NotADirectoryError_(f"{part!r} looked up under a non-directory")
            child = self._dir_state(inum).lookup(part)
            if child is None:
                raise FileNotFoundLFSError(f"path {path!r}: component {part!r} not found")
            inum = child
        return inum

    def _resolve_parent(self, path: str) -> tuple[int, str]:
        """Path -> (parent directory inum, final component name)."""
        parts = self._split_path(path)
        if not parts:
            raise InvalidOperationError("the root directory has no parent")
        parent_path = "/" + "/".join(parts[:-1])
        parent = self._resolve(parent_path)
        if not self.get_inode(parent).is_directory:
            raise NotADirectoryError_(f"parent of {path!r} is not a directory")
        return parent, parts[-1]

    def exists(self, path: str) -> bool:
        """True if ``path`` names a file or directory."""
        self._require_mounted()
        try:
            self._resolve(path)
            return True
        except (FileNotFoundLFSError, NotADirectoryError_):
            return False

    # ==================================================================
    # directory state

    def _dir_state(self, inum: int) -> _DirState:
        state = self._dir_states.get(inum)
        if state is not None:
            return state
        inode = self.get_inode(inum)
        if not inode.is_directory:
            raise NotADirectoryError_(f"inode {inum} is not a directory")
        blocks: list[list[tuple[str, int]]] = []
        for fbn in range(inode.nblocks(self.config.block_size)):
            payload = self._read_data_block(inum, fbn)
            blocks.append(dirfmt.parse_block(payload))
        state = _DirState(blocks)
        self._dir_states[inum] = state
        return state

    def _dir_write_block(self, dir_inum: int, block_idx: int, state: _DirState) -> None:
        payload = dirfmt.pack_block(
            [e for e in state.blocks[block_idx] if e[1] != 0], self.config.block_size
        )
        now = self.disk.clock.now
        self.cache.write(dir_inum, block_idx, payload, now)
        inode = self.get_inode(dir_inum)
        needed = (block_idx + 1) * self.config.block_size
        if inode.size < needed:
            inode.size = needed
        inode.mtime = now
        self._mark_inode_dirty(dir_inum)

    def _dir_insert(self, dir_inum: int, name: str, file_inum: int) -> None:
        state = self._dir_state(dir_inum)
        if state.lookup(name) is not None:
            raise FileExistsLFSError(f"{name!r} already exists")
        target = None
        if state.blocks and dirfmt.block_has_room(
            state.blocks[-1], name, self.config.block_size
        ):
            target = len(state.blocks) - 1
        else:
            for idx, entries in enumerate(state.blocks):
                if dirfmt.block_has_room(entries, name, self.config.block_size):
                    target = idx
                    break
        if target is None:
            state.blocks.append([])
            target = len(state.blocks) - 1
        state.blocks[target].append((name, file_inum))
        state.index[name] = (file_inum, target)
        self._dir_write_block(dir_inum, target, state)

    def _dir_remove(self, dir_inum: int, name: str) -> int:
        state = self._dir_state(dir_inum)
        hit = state.index.pop(name, None)
        if hit is None:
            raise FileNotFoundLFSError(f"{name!r} not found")
        inum, block_idx = hit
        state.blocks[block_idx] = [e for e in state.blocks[block_idx] if e[0] != name]
        self._dir_write_block(dir_inum, block_idx, state)
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

    def create(self, path: str, *, ftype: FileType = FileType.REGULAR) -> int:
        """Create an empty file (or directory); returns the inode number."""
        self._require_writable()
        parent, name = self._resolve_parent(path)
        dirfmt.validate_name(name)
        if self._dir_state(parent).lookup(name) is not None:
            raise FileExistsLFSError(f"{path!r} already exists")
        inum = self.imap.allocate()
        now = self.disk.clock.now
        inode = Inode(
            inum=inum,
            version=self.imap.version_of(inum),
            ftype=ftype,
            nlink=1,
            mtime=now,
            ctime=now,
        )
        self._inodes[inum] = inode
        self._dirty_inodes.add(inum)
        self.imap.get(inum).addr = PENDING_ADDR
        self.imap._dirty_blocks.add(self.imap.block_of(inum))
        if ftype == FileType.DIRECTORY:
            self._dir_states[inum] = _DirState([])
        self._pending_dirops.append(
            DirOpRecord(op=DirOp.CREATE, file_inum=inum, refcount=1, dir1=parent, name1=name)
        )
        self._dir_insert(parent, name, inum)
        self.stats.creates += 1
        self._after_op()
        return inum

    def mkdir(self, path: str) -> int:
        """Create a directory."""
        return self.create(path, ftype=FileType.DIRECTORY)

    def write(self, path: str, data: bytes, offset: int = 0) -> None:
        """Write ``data`` at ``offset``, extending the file as needed."""
        self._require_mounted()
        inum = self._resolve(path)
        self.write_inum(inum, data, offset)

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
        track = self.nvram is not None
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
            if track:
                self._nvm_note_range(inum, fbn, block_off, block_off + take)
            pos += take
        if end > inode.size:
            inode.size = end
        inode.mtime = now
        self._mark_inode_dirty(inum)
        self.stats.writes += 1
        self._after_op()

    def append(self, path: str, data: bytes) -> None:
        """Append ``data`` to the end of the file."""
        inum = self._resolve(path)
        self.write_inum(inum, data, self.get_inode(inum).size)

    def write_file(self, path: str, data: bytes) -> int:
        """Create (if needed) and write a whole file; returns the inum."""
        self._require_mounted()
        if self.exists(path):
            inum = self._resolve(path)
            self.truncate(path, 0)
        else:
            inum = self.create(path)
        self.write_inum(inum, data)
        return inum

    def read(self, path: str, offset: int = 0, length: int | None = None) -> bytes:
        """Read ``length`` bytes (default: to EOF) starting at ``offset``."""
        self._require_mounted()
        return self.read_inum(self._resolve(path), offset, length)

    def read_inum(self, inum: int, offset: int = 0, length: int | None = None) -> bytes:
        """Read by inode number."""
        self._require_mounted()
        if offset < 0:
            raise InvalidOperationError("negative offset")
        inode = self.get_inode(inum)
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
        self.imap.set_atime(inum, self.disk.clock.now)
        self.stats.reads += 1
        self._after_op()
        return b"".join(chunks)

    def truncate(self, path: str, size: int = 0) -> None:
        """Shrink a file; truncating to zero bumps the uid version."""
        self._require_writable()
        inum = self._resolve(path)
        inode = self.get_inode(inum)
        if inode.is_directory:
            raise IsADirectoryError_(f"{path!r} is a directory")
        if size < 0 or size > inode.size:
            raise InvalidOperationError(f"cannot truncate to {size}")
        if size == inode.size:
            return
        bs = self.config.block_size
        first_dead_fbn = (size + bs - 1) // bs
        fmap = self.filemap(inum)
        freed = fmap.clear_from(first_dead_fbn, inode.nblocks(bs))
        for _, addr in freed:
            self.usage.remove_live(self.layout.segment_of(addr), bs)
        self.cache.drop_from(inum, first_dead_fbn)
        self._nvm_trim_ranges(inum, first_dead_fbn)
        inode.size = size
        inode.mtime = self.disk.clock.now
        if size == 0:
            inode.version = self.imap.bump_version(inum)
        self._mark_inode_dirty(inum)
        self._after_op()

    def unlink(self, path: str) -> None:
        """Remove a directory entry; frees the file when nlink hits zero."""
        self._require_writable()
        parent, name = self._resolve_parent(path)
        inum = self._dir_state(parent).lookup(name)
        if inum is None:
            raise FileNotFoundLFSError(f"{path!r} not found")
        inode = self.get_inode(inum)
        if inode.is_directory:
            if len(self._dir_state(inum)) != 0:
                raise DirectoryNotEmptyError(f"{path!r} is not empty")
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

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        inum = self._resolve(path)
        if not self.get_inode(inum).is_directory:
            raise NotADirectoryError_(f"{path!r} is not a directory")
        self.unlink(path)

    def remove(self, path: str) -> None:
        """Remove a file or empty directory."""
        self.unlink(path)

    def link(self, existing: str, newpath: str) -> None:
        """Create a hard link to an existing regular file."""
        self._require_writable()
        inum = self._resolve(existing)
        inode = self.get_inode(inum)
        if inode.is_directory:
            raise IsADirectoryError_("cannot hard-link a directory")
        parent, name = self._resolve_parent(newpath)
        dirfmt.validate_name(name)
        if self._dir_state(parent).lookup(name) is not None:
            raise FileExistsLFSError(f"{newpath!r} already exists")
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
        old_parent, old_name = self._resolve_parent(oldpath)
        new_parent, new_name = self._resolve_parent(newpath)
        dirfmt.validate_name(new_name)
        inum = self._dir_state(old_parent).lookup(old_name)
        if inum is None:
            raise FileNotFoundLFSError(f"{oldpath!r} not found")
        displaced = self._dir_state(new_parent).lookup(new_name)
        if displaced == inum:
            return
        inode = self.get_inode(inum)
        if displaced is not None:
            victim = self.get_inode(displaced)
            if victim.is_directory and len(self._dir_state(displaced)):
                raise DirectoryNotEmptyError(f"{newpath!r} is not empty")
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
            victim = self.get_inode(displaced)
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

    def readdir(self, path: str) -> list[str]:
        """Names in a directory, sorted."""
        self._require_mounted()
        inum = self._resolve(path)
        if not self.get_inode(inum).is_directory:
            raise NotADirectoryError_(f"{path!r} is not a directory")
        return self._dir_state(inum).names()

    def stat(self, path: str) -> StatResult:
        """Attributes of a file or directory."""
        self._require_mounted()
        inum = self._resolve(path)
        inode = self.get_inode(inum)
        return StatResult(
            inum=inum,
            ftype=inode.ftype,
            size=inode.size,
            nlink=inode.nlink,
            mtime=inode.mtime,
            version=inode.version,
        )

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
        # Staged byte ranges die with the file: the inum may be reused,
        # and a surviving range must never patch a successor's blocks.
        self._nvm_dirty_ranges.pop(inum, None)
        self._nvm_staged_meta.pop(inum, None)

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

    def _build_flush_items(self, *, include_meta: bool, cleaning: bool = False) -> list[LogItem]:
        """Assemble the ordered item list for one flush.

        Order: directory-op log records first (the paper's before-the-
        directory-block guarantee), then data blocks, then indirect
        blocks (children before the double-indirect), then inode blocks,
        then — for checkpoints — inode-map and segment-usage blocks.
        """
        items: list[LogItem] = []
        bs = self.config.block_size
        now = self.disk.clock.now

        # A flush takes every pending dirop and every dirty block, so the
        # NVM staging bookkeeping resets with it: once these items are on
        # disk, nothing the staging log covers is still pending.
        self._nvm_staged_dirops = 0
        self._nvm_dirty_ranges.clear()
        self._nvm_staged_meta.clear()

        # -- directory operation log
        if self._pending_dirops:
            for payload in pack_records(self._pending_dirops, bs):
                items.append(
                    LogItem(
                        kind=BlockKind.DIROP_LOG,
                        mtime=now,
                        get_payload=lambda p=payload: p,
                        on_placed=self._place_dirop,
                    )
                )
            self._pending_dirops = []

        # -- data blocks
        dirty = self.cache.dirty_blocks()
        if cleaning and self.config.age_sort:
            dirty.sort(key=lambda t: (t[2].mtime, t[0], t[1]))
        for inum, fbn, entry in dirty:
            self.filemap(inum).ensure_structures(fbn)
            items.append(
                LogItem(
                    kind=BlockKind.DATA,
                    inum=inum,
                    offset=fbn,
                    version=self.imap.version_of(inum),
                    mtime=entry.mtime,
                    get_payload=lambda e=entry: e.payload,
                    on_placed=lambda addr, i=inum, f=fbn: self._place_data(i, f, addr),
                )
            )

        # -- indirect blocks: children and single-indirects, then doubles
        double_items: list[LogItem] = []
        for inum, fmap in sorted(self._filemaps.items()):
            version = self.imap.version_of(inum)
            mtime = fmap.inode.mtime
            for child_idx in sorted(fmap.dirty_children):
                items.append(
                    LogItem(
                        kind=BlockKind.INDIRECT,
                        inum=inum,
                        offset=1 + child_idx,
                        version=version,
                        mtime=mtime,
                        get_payload=lambda m=fmap, c=child_idx: m.pack_child(c),
                        on_placed=lambda addr, i=inum, m=fmap, c=child_idx: (
                            self._place_indirect(i, m.place_child(c, addr), addr)
                        ),
                    )
                )
            if fmap.l1_dirty:
                items.append(
                    LogItem(
                        kind=BlockKind.INDIRECT,
                        inum=inum,
                        offset=0,
                        version=version,
                        mtime=mtime,
                        get_payload=fmap.pack_l1,
                        on_placed=lambda addr, i=inum, m=fmap: (
                            self._place_indirect(i, m.place_l1(addr), addr)
                        ),
                    )
                )
            if fmap.l2_dirty or (fmap.dirty_children and fmap.inode.dindirect == NULL_ADDR):
                fmap.l2_dirty = True
                double_items.append(
                    LogItem(
                        kind=BlockKind.DINDIRECT,
                        inum=inum,
                        offset=0,
                        version=version,
                        mtime=mtime,
                        get_payload=fmap.pack_l2,
                        on_placed=lambda addr, i=inum, m=fmap: (
                            self._place_indirect(i, m.place_l2(addr), addr)
                        ),
                    )
                )
        items.extend(double_items)

        # -- inode blocks
        dirty_inums = sorted(self._dirty_inodes)
        per_block = inodes_per_block(bs)
        for start in range(0, len(dirty_inums), per_block):
            group = dirty_inums[start : start + per_block]
            items.append(
                LogItem(
                    kind=BlockKind.INODE,
                    inum=group[0],
                    offset=0,
                    mtime=max(self._inodes[i].mtime for i in group),
                    get_payload=lambda g=group: pack_inode_block(
                        [self._inodes[i] for i in g], bs
                    ),
                    on_placed=lambda addr, g=group: self._place_inodes(g, addr),
                )
            )
        self._dirty_inodes.clear()

        if include_meta:
            items.extend(self._build_meta_items())
        return items

    def _build_meta_items(self) -> list[LogItem]:
        """Inode-map and segment-usage blocks (checkpoint flushes only).

        Dirty flags are cleared as blocks are queued: payloads are packed
        after every placement in the flush, so the written image is
        accurate, and anything a placement re-dirties afterwards is picked
        up by the checkpoint's stabilization loop.
        """
        items: list[LogItem] = []
        bs = self.config.block_size
        now = self.disk.clock.now
        for idx in self.imap.dirty_block_indexes():
            self.imap.clear_dirty(idx)
            items.append(
                LogItem(
                    kind=BlockKind.INODE_MAP,
                    offset=idx,
                    mtime=now,
                    get_payload=lambda i=idx: self.imap.pack_block(i, bs),
                    on_placed=lambda addr, i=idx: self._place_map_block(
                        self.imap.block_addrs, i, addr
                    ),
                )
            )
        for idx in self.usage.dirty_block_indexes():
            self.usage.clear_dirty(idx)
            items.append(
                LogItem(
                    kind=BlockKind.SEG_USAGE,
                    offset=idx,
                    mtime=now,
                    get_payload=lambda i=idx: self.usage.pack_block(i, bs),
                    on_placed=lambda addr, i=idx: self._place_map_block(
                        self.usage.block_addrs, i, addr
                    ),
                )
            )
        return items

    # ---- placement callbacks ----------------------------------------

    def _place_dirop(self, addr: int) -> None:
        self._dirop_addrs.append(addr)
        self.usage.add_live(
            self.layout.segment_of(addr), self.config.block_size, self.disk.clock.now
        )

    def _place_data(self, inum: int, fbn: int, addr: int) -> None:
        fmap = self.filemap(inum)
        old = fmap.set(fbn, addr)
        bs = self.config.block_size
        if old != NULL_ADDR:
            self.usage.remove_live(self.layout.segment_of(old), bs)
        # peek, not lookup: placement is internal traffic and must not
        # count toward the application hit rate or reorder the LRU.
        entry = self.cache.peek(inum, fbn)
        mtime = entry.mtime if entry else self.disk.clock.now
        self.usage.add_live(self.layout.segment_of(addr), bs, mtime)
        self.cache.mark_clean(inum, fbn)

    def _place_indirect(self, inum: int, old: int, addr: int) -> None:
        bs = self.config.block_size
        if old != NULL_ADDR:
            self.usage.remove_live(self.layout.segment_of(old), bs)
        self.usage.add_live(self.layout.segment_of(addr), bs, self.disk.clock.now)

    def _place_inodes(self, inums: list[int], addr: int) -> None:
        for inum in inums:
            old = self.imap.get(inum).addr
            if old not in (NULL_ADDR, PENDING_ADDR):
                self.usage.remove_live(self.layout.segment_of(old), INODE_SIZE)
            self.imap.set_addr(inum, addr)
            inode = self._inodes.get(inum)
            mtime = inode.mtime if inode else self.disk.clock.now
            self.usage.add_live(self.layout.segment_of(addr), INODE_SIZE, mtime)

    def _place_map_block(self, addr_table: list[int], idx: int, addr: int) -> None:
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
        include_meta: bool = False,
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
        items = self._build_flush_items(include_meta=include_meta, cleaning=cleaning)
        if not items:
            self._nvm_truncate_after_flush()
            return 0
        if self.obs is not None:
            self.obs.emit(CACHE_FLUSH, dirty=dirty_before, items=len(items), cleaning=cleaning)
        with self._cause(cause or (CLEANING_WRITE if cleaning else DATA_WRITE)):
            writes = self.writer.append(items, cleaning=cleaning, barrier=barrier)
        self.stats.flushes += 1
        self._nvm_truncate_after_flush()
        if self.obs is not None:
            self.obs.timeline_tick()
        return writes

    def sync(self) -> None:
        """Make everything pending durable in *some* domain (no checkpoint).

        With NVM staging enabled, the pending sync set — unstaged
        directory operations, dirty byte ranges, and changed file
        sizes/mtimes — is absorbed into one CRC-framed staging record and
        the call returns without touching the disk log. Otherwise
        (staging off, the record would push the staging log past the
        destage threshold, or the board has failed) everything dirty is
        flushed to the on-disk log synchronously; a destage flush charges
        its disk time to the ``nvm_destage`` cause.
        """
        self._require_mounted()
        staged_bytes = self._nvm_try_stage()
        if staged_bytes is None:
            self._ensure_space(self.cache.dirty_count + len(self._dirty_inodes) + 8)
            destage = self.nvram is not None
            self.flush(
                barrier=self.config.sync_flush_barrier,
                cause=NVM_DESTAGE if destage else None,
            )
        if self.obs is not None:
            self.obs.emit(
                FS_SYNC,
                staged=staged_bytes is not None,
                bytes=staged_bytes or 0,
                unstaged_dirty=self._nvm_uncovered(staged=staged_bytes is not None),
            )

    def fsync(self, path: str) -> None:
        """fsync(2): make ``path``'s acknowledged state durable.

        The path is resolved first (fsync on a deleted file is an error,
        mirroring the VFS's closed-handle check), then the call provides
        the same durability as :meth:`sync`. The staging record — or the
        fallback flush — absorbs the *whole* pending set rather than one
        file's slice: the point of the staging log (and of the log
        itself) is batching, and the crash oracle treats fsync as a full
        barrier, so over-delivering keeps both domains simple and sound.
        """
        self._require_mounted()
        self._resolve(path)
        self.sync()

    def checkpoint(self) -> None:
        """Two-phase checkpoint (Section 4.1).

        Phase one flushes all modified information — data, indirect
        blocks, inodes, inode-map and usage-table blocks — to the log
        (iterating until the usage table's self-referential updates
        settle). Phase two writes a checkpoint region at the alternating
        fixed location, timestamp last.
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
            # Now write the inode map and segment usage table. The usage table
            # is self-referential — writing its blocks changes live counts — so
            # iterate until no map block is re-dirtied (converges in 2-3 steps;
            # the cap bounds staleness in pathological cases). The residual
            # flush above charges as ordinary data/cleaning traffic; only the
            # map stabilization and the region write are checkpoint overhead.
            with self._cause(CHECKPOINT):
                for _ in range(8):
                    meta = self._build_meta_items()
                    if not meta:
                        break
                    self.writer.append(meta)
                for idx in range(self.imap.num_blocks):
                    self.imap.clear_dirty(idx)
                for idx in range(self.usage.num_blocks):
                    self.usage.clear_dirty(idx)

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
            # Directory-op log records before this checkpoint are now dead.
            bs = self.config.block_size
            for addr in self._dirop_addrs:
                self.usage.remove_live(self.layout.segment_of(addr), bs)
            self._dirop_addrs = []
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

    # ==================================================================
    # NVM write-ahead staging (the second persistence domain)

    def _nvm_note_range(self, inum: int, fbn: int, start: int, end: int) -> None:
        """Record one written byte range (merged with existing ranges)."""
        per_fbn = self._nvm_dirty_ranges.setdefault(inum, {})
        ranges = per_fbn.setdefault(fbn, [])
        ranges.append((start, end))
        if len(ranges) > 1:
            ranges.sort()
            merged = [ranges[0]]
            for s, e in ranges[1:]:
                last_s, last_e = merged[-1]
                if s <= last_e:
                    merged[-1] = (last_s, max(last_e, e))
                else:
                    merged.append((s, e))
            per_fbn[fbn] = merged

    def _nvm_trim_ranges(self, inum: int, first_dead_fbn: int) -> None:
        """Drop staged ranges truncate just invalidated."""
        per_fbn = self._nvm_dirty_ranges.get(inum)
        if not per_fbn:
            return
        for fbn in [f for f in per_fbn if f >= first_dead_fbn]:
            del per_fbn[fbn]
        if not per_fbn:
            del self._nvm_dirty_ranges[inum]

    def _nvm_collect(self) -> tuple[list[NVDirOp], list[NVPatch], list[NVMeta]]:
        """The pending sync set as staging entries (consumes no state).

        Directory operations carry the named inode's file type so replay
        can materialize inodes that never reached the disk log; patches
        carry exactly the dirty byte ranges; metas are emitted only for
        files whose (size, mtime) changed since they were last staged.
        """
        dirops: list[NVDirOp] = []
        for rec in self._pending_dirops[self._nvm_staged_dirops :]:
            inode = self._inodes.get(rec.file_inum)
            ftype = inode.ftype if inode is not None else FileType.REGULAR
            dirops.append(NVDirOp(record=rec, ftype=ftype))
        patches: list[NVPatch] = []
        bs = self.config.block_size
        for inum in sorted(self._nvm_dirty_ranges):
            per_fbn = self._nvm_dirty_ranges[inum]
            for fbn in sorted(per_fbn):
                entry = self.cache.peek(inum, fbn)
                if entry is None:
                    continue  # truncated away since the range was noted
                for start, end in per_fbn[fbn]:
                    patches.append(
                        NVPatch(
                            inum=inum,
                            offset=fbn * bs + start,
                            data=entry.payload[start:end],
                        )
                    )
        metas: list[NVMeta] = []
        for inum in sorted(self._dirty_inodes):
            inode = self._inodes.get(inum)
            if inode is None or inode.is_directory:
                continue
            if self._nvm_staged_meta.get(inum) != (inode.size, inode.mtime):
                metas.append(NVMeta(inum=inum, size=inode.size, mtime=inode.mtime))
        return dirops, patches, metas

    def _nvm_try_stage(self) -> int | None:
        """Absorb the pending sync set into one NVM staging record.

        Returns the staged body size in bytes (0 when nothing was pending
        — acked trivially), or None when the caller must fall back to a
        synchronous flush: staging off, the board has failed, or the
        record would push the staging log past the destage threshold
        (``nvram_destage_bytes``, default one segment).
        """
        nvram = self.nvram
        if nvram is None or nvram.dead:
            return None
        dirops, patches, metas = self._nvm_collect()
        if not dirops and not patches and not metas:
            return 0
        body = pack_body(dirops, patches, metas)
        from repro.disk.nvram import RECORD_OVERHEAD

        limit = min(
            nvram.profile.capacity_bytes,
            self.config.nvram_destage_bytes or self.config.segment_bytes,
        )
        if nvram.used_bytes + RECORD_OVERHEAD + len(body) > limit:
            return None  # destage: batch the staging log out through a flush
        try:
            nvram.append_record(body)
        except NVMDeviceFailedError:
            # The board died under us. Nothing is lost — everything staged
            # is still dirty in the cache — so fall back to flushing.
            self._nvm_note_failure("append")
            return None
        except NVMError:
            return None  # full despite the threshold: destage
        # Consume the markers only once the record is durable.
        self._nvm_staged_dirops = len(self._pending_dirops)
        self._nvm_dirty_ranges.clear()
        for meta in metas:
            self._nvm_staged_meta[meta.inum] = (meta.size, meta.mtime)
        return len(body)

    def _nvm_truncate_after_flush(self) -> None:
        """Release the staging log once a flush made its records redundant.

        Every flush takes the complete dirty set (and dirty blocks are
        never evicted), so after any flush the staged records describe
        only durable state. ``uncovered`` reports what would still be
        pending — the watchdog asserts it is zero
        (nvm-truncate-covered-by-disk).
        """
        nvram = self.nvram
        if nvram is None or nvram.dead or nvram.record_count == 0:
            return
        nvram.truncate_all(uncovered=self._nvm_uncovered(staged=False))

    def _nvm_uncovered(self, *, staged: bool) -> int:
        """Acked-sync state covered by neither domain (invariantly zero).

        ``_dirty_inodes`` is deliberately excluded from the post-flush
        count: data placements re-mark inodes dirty while the flush runs,
        but inode payloads pack lazily *after* every data placement in
        the same flush, so the durable inode already carries the new
        addresses — the lingering dirty flags are conservative
        bookkeeping, not unacknowledged state.
        """
        if staged:
            ranges = sum(
                len(per_fbn)
                for per_fbn in self._nvm_dirty_ranges.values()
            )
            return (len(self._pending_dirops) - self._nvm_staged_dirops) + ranges
        return self.cache.dirty_count + len(self._pending_dirops)

    def _nvm_note_failure(self, reason: str) -> None:
        """Trace an NVM board failure (graceful fallback, not data loss)."""
        if self.obs is not None:
            self.obs.emit(NVM_FAIL, reason=reason)

    def _nvm_mount_replay(self, report, *, discard: bool = False) -> None:
        """Replay (or intentionally discard) staged records at mount time.

        A dead board is indistinguishable from lost acked records, so it
        degrades the mount to read-only; ``discard`` serves
        ``mount(roll_forward=False)``, whose contract already throws away
        the post-checkpoint suffix the records describe.
        """
        nvram = self.nvram
        if nvram is None:
            return
        if nvram.dead:
            self._degrade_read_only(
                "NVM staging device failed; acknowledged synchronous "
                "writes may be lost"
            )
            if report is not None:
                report.nvm_lost = True
            return
        if discard:
            if nvram.record_count:
                nvram.truncate_all(uncovered=0)
            return
        from repro.core.recovery import replay_nvm

        replay_nvm(self, report)

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
        total_written = self.writer.stats.total_blocks + self.stats.checkpoint_region_blocks
        new_data = self.writer.stats.total_blocks - self.writer.stats.cleaner_blocks
        if new_data <= 0:
            return 1.0
        return (total_written + self.cleaner.stats.blocks_read) / new_data

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
