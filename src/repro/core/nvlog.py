"""NVM write-ahead staging: the record format and the component using it.

:class:`NVLog` is the second persistence domain, attached to an
:class:`~repro.core.filesystem.LFS` only when ``LFS.format``/``LFS.mount``
are handed an :class:`~repro.disk.nvram.NVMDevice` (a file system
without a board holds ``None`` and runs none of this code). It stages
each ``sync()``/``fsync()`` delta as one device record, truncates the
log once a flush made the records redundant, and replays or discards
surviving records at mount.

The device's CRC frame is the atomicity unit; the rest of this docstring
defines what goes inside. A body is a sequence of typed entries, applied
in order on replay:

- **DIROP** — one :class:`~repro.core.dirlog.DirOpRecord` plus the file
  type of the inode it names. Directory data blocks are *not* staged:
  the operation records fully determine the namespace, and replay
  re-executes them through the live directory-insert/remove paths (which
  regenerate the directory blocks dirty in cache). The file type is
  carried because replay may have to *materialize* an inode that never
  reached the on-disk log — a CREATE staged to NVM has no durable inode
  to consult — and a directory materializes with an empty entry table
  while a regular file does not.
- **PATCH** — a byte-range delta against one file: inode number, byte
  offset, payload. Patches carry exactly the bytes the application wrote
  since the previous record, not whole blocks, so repeated small
  synchronous writes stage a few hundred bytes instead of re-staging a
  4 KiB block each time (the difference between fitting under the NVM
  bandwidth bound and blowing through it).
- **META** — a file's size and mtime at staging time. Replay applies it
  after the record's patches; a shrink replays as an internal truncate.

Entries never span records, and a record's entries apply strictly in the
order staged: directory operations first (they may materialize the inodes
the patches target), then patches, then metas.
"""

from __future__ import annotations

import struct
import weakref
from dataclasses import dataclass

from repro.core.blocks import splice
from repro.core.constants import DirOp, FileType
from repro.core.dirlog import DirOpRecord
from repro.core.errors import CorruptionError, MediaError, NVMDeviceFailedError, NVMError
from repro.obs.events import NVM_FAIL

# Entry tags. A body is a concatenation of tagged entries; parsing stops
# exactly at the end of the body (the device frame already carries the
# length and CRC, so there is no per-body trailer).
_TAG_DIROP = 0x01
_TAG_PATCH = 0x02
_TAG_META = 0x03

_DIROP_HEAD = struct.Struct("<BBI")  # tag, ftype, packed dirop length
_PATCH_HEAD = struct.Struct("<BQQI")  # tag, inum, byte offset, length
_META_HEAD = struct.Struct("<BQQd")  # tag, inum, size, mtime


@dataclass(frozen=True)
class NVDirOp:
    """A staged directory operation plus the named inode's file type."""

    record: DirOpRecord
    ftype: FileType = FileType.REGULAR


@dataclass(frozen=True)
class NVPatch:
    """A staged byte-range delta (never spans a file-system block)."""

    inum: int
    offset: int
    data: bytes


@dataclass(frozen=True)
class NVMeta:
    """A file's staged size and mtime."""

    inum: int
    size: int
    mtime: float


def pack_body(
    dirops: list[NVDirOp], patches: list[NVPatch], metas: list[NVMeta]
) -> bytes:
    """Serialize one record body (dirops, then patches, then metas)."""
    parts: list[bytes] = []
    for op in dirops:
        raw = op.record.pack()
        parts.append(_DIROP_HEAD.pack(_TAG_DIROP, int(op.ftype), len(raw)))
        parts.append(raw)
    for patch in patches:
        parts.append(
            _PATCH_HEAD.pack(_TAG_PATCH, patch.inum, patch.offset, len(patch.data))
        )
        parts.append(patch.data)
    for meta in metas:
        parts.append(_META_HEAD.pack(_TAG_META, meta.inum, meta.size, meta.mtime))
    return b"".join(parts)


def unpack_body(body: bytes) -> tuple[list[NVDirOp], list[NVPatch], list[NVMeta]]:
    """Parse one record body back into its typed entries.

    Raises :class:`CorruptionError` on a malformed body — the device
    frame's CRC already vouched for the bytes, so a parse failure here
    means a format bug, not media damage, and must be loud.
    """
    dirops: list[NVDirOp] = []
    patches: list[NVPatch] = []
    metas: list[NVMeta] = []
    pos = 0
    end = len(body)
    while pos < end:
        tag = body[pos]
        if tag == _TAG_DIROP:
            if pos + _DIROP_HEAD.size > end:
                raise CorruptionError("NVM record: truncated dirop header")
            _, ftype_raw, length = _DIROP_HEAD.unpack_from(body, pos)
            pos += _DIROP_HEAD.size
            if pos + length > end:
                raise CorruptionError("NVM record: truncated dirop payload")
            record, consumed = DirOpRecord.unpack_from(body[pos : pos + length], 0)
            if consumed != length:
                raise CorruptionError("NVM record: dirop length mismatch")
            try:
                ftype = FileType(ftype_raw)
            except ValueError as exc:
                raise CorruptionError(
                    f"NVM record: bad file type {ftype_raw}"
                ) from exc
            dirops.append(NVDirOp(record=record, ftype=ftype))
            pos += length
        elif tag == _TAG_PATCH:
            if pos + _PATCH_HEAD.size > end:
                raise CorruptionError("NVM record: truncated patch header")
            _, inum, offset, length = _PATCH_HEAD.unpack_from(body, pos)
            pos += _PATCH_HEAD.size
            if pos + length > end:
                raise CorruptionError("NVM record: truncated patch payload")
            patches.append(NVPatch(inum=inum, offset=offset, data=body[pos : pos + length]))
            pos += length
        elif tag == _TAG_META:
            if pos + _META_HEAD.size > end:
                raise CorruptionError("NVM record: truncated meta entry")
            _, inum, size, mtime = _META_HEAD.unpack_from(body, pos)
            metas.append(NVMeta(inum=inum, size=size, mtime=mtime))
            pos += _META_HEAD.size
        else:
            raise CorruptionError(f"NVM record: unknown entry tag {tag:#x}")
    return dirops, patches, metas


# ======================================================================
# the staging component


class NVLog:
    """NVM write-ahead staging for one mounted file system.

    The state below is RAM bookkeeping of which pending state the device
    already covers, so each sync stages only the delta since the
    previous record:

    - ``_staged_dirops``: count of ``fs._pending_dirops`` entries already
      staged (reset when a flush consumes the list);
    - ``_dirty_ranges``: inum -> fbn -> merged (start, end) byte ranges
      written since the last record/flush;
    - ``_staged_meta``: inum -> (size, mtime) last staged, so unchanged
      metadata is not re-staged every fsync.

    A sync destages (flushes instead of staging) once its record would
    push the log past one segment's worth of bytes, capped by the
    board's capacity.
    """

    def __init__(self, fs, device) -> None:
        # Imported here so a run without a board never loads the device
        # module.
        from repro.disk.nvram import RECORD_OVERHEAD

        # A weak proxy: the file system owns this object, and a strong
        # back-reference would make every staged LFS a reference cycle.
        self.fs = weakref.proxy(fs)
        self.device = device
        # The board shares the disk's clock so staging latency and disk
        # latency advance the same simulated timeline.
        device.clock = fs.disk.clock
        # Room for record bodies before a sync destages instead.
        self._body_limit = (
            min(device.profile.capacity_bytes, fs.config.segment_bytes) - RECORD_OVERHEAD
        )
        self._staged_dirops = 0
        self._dirty_ranges: dict[int, dict[int, list[tuple[int, int]]]] = {}
        self._staged_meta: dict[int, tuple[int, float]] = {}

    # ------------------------------------------------------------------
    # staging (write, truncate, free-inode, flush, sync)

    def reset(self) -> None:
        """Forget every staging marker.

        A flush takes every pending dirop and every dirty block, so once
        its items are on disk nothing the log covers is still pending;
        a crash or unmount loses the RAM state the markers describe. The
        device keeps its records either way.
        """
        self._staged_dirops = 0
        self._dirty_ranges.clear()
        self._staged_meta.clear()

    def note_range(self, inum: int, fbn: int, start: int, end: int) -> None:
        """Record one written byte range (merged with existing ranges)."""
        per_fbn = self._dirty_ranges.setdefault(inum, {})
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

    def trim_ranges(self, inum: int, first_dead_fbn: int) -> None:
        """Drop staged ranges truncate just invalidated."""
        per_fbn = self._dirty_ranges.get(inum)
        if not per_fbn:
            return
        for fbn in [f for f in per_fbn if f >= first_dead_fbn]:
            del per_fbn[fbn]
        if not per_fbn:
            del self._dirty_ranges[inum]

    def forget(self, inum: int) -> None:
        """Staged byte ranges die with the file: the inum may be reused,
        and a surviving range must never patch a successor's blocks."""
        self._dirty_ranges.pop(inum, None)
        self._staged_meta.pop(inum, None)

    def _collect(self) -> tuple[list[NVDirOp], list[NVPatch], list[NVMeta]]:
        """The pending sync set as staging entries (consumes no state).

        Directory operations carry the named inode's file type so replay
        can materialize inodes that never reached the disk log; patches
        carry exactly the dirty byte ranges; metas are emitted only for
        files whose (size, mtime) changed since they were last staged.
        """
        fs = self.fs
        dirops: list[NVDirOp] = []
        for rec in fs._pending_dirops[self._staged_dirops :]:
            inode = fs._inodes.get(rec.file_inum)
            ftype = inode.ftype if inode is not None else FileType.REGULAR
            dirops.append(NVDirOp(record=rec, ftype=ftype))
        patches: list[NVPatch] = []
        bs = fs.config.block_size
        for inum in sorted(self._dirty_ranges):
            per_fbn = self._dirty_ranges[inum]
            for fbn in sorted(per_fbn):
                entry = fs.cache.peek(inum, fbn)
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
        for inum in sorted(fs._dirty_inodes):
            inode = fs._inodes.get(inum)
            if inode is None or inode.is_directory:
                continue
            if self._staged_meta.get(inum) != (inode.size, inode.mtime):
                metas.append(NVMeta(inum=inum, size=inode.size, mtime=inode.mtime))
        return dirops, patches, metas

    def stage(self) -> int | None:
        """Absorb the pending sync set into one staging record.

        Returns the staged body size in bytes (0 when nothing was pending
        — acked trivially), or None when the caller must fall back to a
        synchronous flush: the board has failed, or the record would push
        the log past the destage threshold.
        """
        device = self.device
        if device.dead:
            return None
        dirops, patches, metas = self._collect()
        if not dirops and not patches and not metas:
            return 0
        body = pack_body(dirops, patches, metas)
        if device.used_bytes + len(body) > self._body_limit:
            return None  # destage: batch the staging log out through a flush
        try:
            device.append_record(body)
        except NVMDeviceFailedError:
            # The board died under us. Nothing is lost — everything staged
            # is still dirty in the cache — so fall back to flushing.
            if self.fs.obs is not None:
                self.fs.obs.emit(NVM_FAIL, reason="append")
            return None
        except NVMError:
            return None  # full despite the threshold: destage
        # Consume the markers only once the record is durable.
        self._staged_dirops = len(self.fs._pending_dirops)
        self._dirty_ranges.clear()
        for meta in metas:
            self._staged_meta[meta.inum] = (meta.size, meta.mtime)
        return len(body)

    def uncovered_after_stage(self) -> int:
        """Acked-sync state a just-staged record left uncovered (zero)."""
        ranges = sum(len(per_fbn) for per_fbn in self._dirty_ranges.values())
        return (len(self.fs._pending_dirops) - self._staged_dirops) + ranges

    def truncate_after_flush(self) -> None:
        """Release the staging log once a flush made its records redundant.

        Every flush takes the complete dirty set (and dirty blocks are
        never evicted), so after any flush the staged records describe
        only durable state. ``uncovered`` reports what would still be
        pending — the watchdog asserts it is zero
        (nvm-truncate-covered-by-disk).
        """
        device = self.device
        if device.dead or device.record_count == 0:
            return
        device.truncate_all(uncovered=self.fs._unflushed())

    # ------------------------------------------------------------------
    # mount

    def mount(self, report, *, discard: bool = False) -> None:
        """Replay (or intentionally discard) staged records at mount time.

        A dead board is indistinguishable from lost acked records, so it
        degrades the mount to read-only; ``discard`` serves
        ``mount(roll_forward=False)``, whose contract already throws away
        the post-checkpoint suffix the records describe.
        """
        device = self.device
        if device.dead:
            self.fs._degrade_read_only(
                "NVM staging device failed; acknowledged synchronous "
                "writes may be lost"
            )
            if report is not None:
                report.nvm_lost = True
            return
        if discard:
            if device.record_count:
                device.truncate_all(uncovered=0)
            return
        self._replay(report)

    # Staged records are *re-executed*, not fixed up: an NVM-staged
    # CREATE whose inode never reached the on-disk log has nothing for
    # roll-forward's dirop pass to key on — that pass would treat the
    # entry as an orphan and remove it, deleting an acknowledged file.
    # Re-execution instead materializes the missing inode (the record
    # carries its file type) and replays the operation through the live
    # directory paths, which regenerate the directory blocks dirty in
    # cache. Replay leaves state dirty and the records in place; the next
    # flush (normally the post-recovery checkpoint) makes everything
    # durable and truncates the staging log. Every state change goes
    # through the file system's own rules: ``_install_inode`` (as
    # ``create``), ``_shrink`` (as ``truncate``), ``splice`` (as
    # ``write_inum``), ``_set_nlink`` and ``_live_dir`` (as roll-forward).
    #
    # Re-execution must also stay conservative when the durable disk
    # state already reflects a *later, unacknowledged but flushed*
    # operation (a threshold or destage flush that tore before its NVM
    # truncate):
    #  - content: a file whose durable inode mtime is strictly newer than
    #    the record's staged META was covered completely by a later flush
    #    (data blocks precede the inode within every flush), so its
    #    patches and meta are skipped — the newer consistent state wins;
    #  - namespace: an entry is inserted only into a vacant slot, removed
    #    only while it still points at the staged inode, and a
    #    CREATE/LINK whose link count is already satisfied is treated as
    #    superseded.
    # Either way the recovered state lands inside the crash oracle's
    # bounds: the staged (acknowledged) state or a later applied one.

    def _replay(self, report) -> None:
        """Replay surviving records on top of roll-forward state.

        Records apply in append order; within a record, directory
        operations first (they may materialize the inodes the patches
        target), then patches, then metas. Damage confined to the final
        record is the expected torn tail of a mid-append power cut — that
        append was never acknowledged, so it is dropped (and, if it was
        the only content, truncated away). Damage earlier in the log
        means acknowledged records are gone: the valid prefix is still
        applied, then the mount degrades to read-only rather than
        silently continue from a hole in the acked history.
        """
        fs = self.fs
        result = self.device.read_records()
        with fs._span("recovery.nvm", records=len(result.bodies), dropped=result.dropped):
            for body in result.bodies:
                dirops, patches, metas = unpack_body(body)
                stale = self._stale_files(metas)
                for op in dirops:
                    self._apply_dirop(op, report)
                for patch in patches:
                    if patch.inum not in stale:
                        self._apply_patch(patch, report)
                for meta in metas:
                    if meta.inum not in stale:
                        self._apply_meta(meta, report)
        if report is not None:
            report.nvm_records_replayed += len(result.bodies)
            report.nvm_records_dropped += result.dropped
        if result.lost:
            if report is not None:
                report.nvm_lost = True
            fs._degrade_read_only(
                "NVM staging log damaged mid-log; acknowledged synchronous "
                "writes were lost"
            )
        elif not result.bodies and result.dropped:
            # Only a torn tail survived — an append that was never
            # acknowledged. Dropping it is the expected crash residue, not
            # a loss, so the log is simply reset.
            self.device.truncate_all(uncovered=0)

    def _stale_files(self, metas: list[NVMeta]) -> set[int]:
        """Files whose durable inode is strictly newer than this record.

        A newer durable mtime proves a later flush covered the file
        completely — within every flush the data items precede the inode
        item, so a durable inode implies durable data. Re-imposing the
        record's older acked content over it would manufacture a state
        that never existed; skipping leaves a later consistent state,
        which the crash bounds accept.
        """
        fs = self.fs
        stale: set[int] = set()
        for meta in metas:
            if not fs.imap.is_allocated(meta.inum):
                continue
            try:
                inode = fs.get_inode(meta.inum)
            except (CorruptionError, MediaError):
                continue
            if inode.mtime > meta.mtime:
                stale.add(meta.inum)
        return stale

    def _apply_dirop(self, op: NVDirOp, report) -> None:
        """Re-execute one staged directory operation (see the notes above)."""
        fs = self.fs
        rec = op.record
        inum = rec.file_inum

        def lookup(dinum: int, name: str) -> int | None:
            if not fs._live_dir(dinum):
                return None
            return fs._dir_state(dinum).lookup(name)

        applied = False
        if rec.op in (DirOp.CREATE, DirOp.LINK):
            target = lookup(rec.dir1, rec.name1)
            if target == inum:
                fs._set_nlink(inum, rec.refcount)
                applied = True
            elif target is None and fs._live_dir(rec.dir1):
                if fs.imap.is_allocated(inum):
                    if fs.get_inode(inum).nlink >= rec.refcount:
                        # The link count is satisfied without this entry:
                        # a later durable operation moved or removed it.
                        return
                else:
                    # The inode never reached the on-disk log. Its mtime
                    # is zeroed so the staleness guard never mistakes it
                    # for newer durable state; the record's META supplies
                    # the real values.
                    fs._install_inode(inum, op.ftype, 0, 0.0)
                fs._dir_insert(rec.dir1, rec.name1, inum)
                fs._set_nlink(inum, rec.refcount)
                applied = True
            # else: another inode owns the name — a later durable
            # operation claimed it; the staged op is superseded.
        elif rec.op == DirOp.UNLINK:
            if lookup(rec.dir1, rec.name1) == inum:
                fs._dir_remove(rec.dir1, rec.name1)
            if fs.imap.is_allocated(inum):
                if rec.refcount <= 0:
                    fs._free_inode(inum)
                    if report is not None:
                        report.files_freed += 1
                else:
                    fs._set_nlink(inum, rec.refcount)
            applied = True
        elif rec.op == DirOp.RENAME:
            src = lookup(rec.dir1, rec.name1)
            dst = lookup(rec.dir2, rec.name2)
            if dst == inum:
                if src == inum:
                    fs._dir_remove(rec.dir1, rec.name1)  # half-applied move
                applied = True
            elif src == inum and dst is None and fs._live_dir(rec.dir2):
                fs._dir_remove(rec.dir1, rec.name1)
                fs._dir_insert(rec.dir2, rec.name2, inum)
                fs._set_nlink(inum, rec.refcount)
                applied = True
            elif (
                not fs.imap.is_allocated(inum)
                and src is None
                and dst is None
                and fs._live_dir(rec.dir2)
            ):
                # The renamed inode never reached any domain's durable
                # state (both its CREATE and this RENAME were staged only,
                # and an earlier record should have materialized it —
                # defensive). Zero mtime as in the CREATE branch.
                fs._install_inode(inum, op.ftype, 0, 0.0)
                fs._dir_insert(rec.dir2, rec.name2, inum)
                fs._set_nlink(inum, rec.refcount)
                applied = True
        if applied and report is not None:
            report.nvm_dirops_applied += 1

    def _apply_patch(self, patch: NVPatch, report) -> None:
        """Apply one staged byte-range delta through the cache."""
        fs = self.fs
        if not fs.imap.is_allocated(patch.inum):
            return
        inode = fs.get_inode(patch.inum)
        if inode.is_directory:
            return
        bs = fs.config.block_size
        fbn = patch.offset // bs
        block = splice(fs._read_data_block(patch.inum, fbn), patch.offset % bs, patch.data)
        fs.cache.write(patch.inum, fbn, block, inode.mtime)
        if patch.offset + len(patch.data) > inode.size:
            inode.size = patch.offset + len(patch.data)
        fs._mark_inode_dirty(patch.inum)
        if report is not None:
            report.nvm_patches_applied += 1

    def _apply_meta(self, meta: NVMeta, report) -> None:
        """Apply one staged (size, mtime); a shrink replays as a truncate."""
        fs = self.fs
        if not fs.imap.is_allocated(meta.inum):
            return
        inode = fs.get_inode(meta.inum)
        if inode.is_directory:
            return
        if meta.size < inode.size:
            fs._shrink(meta.inum, inode, meta.size)
        inode.size = meta.size
        inode.mtime = meta.mtime
        fs._mark_inode_dirty(meta.inum)
        if report is not None:
            report.nvm_metas_applied += 1
