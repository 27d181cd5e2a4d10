"""Crash recovery: roll-forward (Section 4.2).

After reboot the file system initializes itself from the newest checkpoint
and then scans the log segments written after it, following the
next-segment threading recorded in summary blocks. Inodes found in the
scan are re-applied to the inode map (incorporating their data blocks
automatically); segment-usage counts are adjusted by diffing each
recovered inode against the previous version; and the directory-operation
log is replayed to restore consistency between directory entries and inode
reference counts — including removing the entry for a file whose inode was
never written, the one operation that cannot be completed.

This module also holds the disaster-recovery scavenger (:func:`scavenge`):
when *both* checkpoint regions are unreadable, the whole segment area is
scanned for intact partial writes and the entire surviving log history is
replayed in sequence order from an empty file system, rebuilding the inode
map and segment usage table with no checkpoint at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.checkpoint import Checkpoint
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
from repro.core.dirlog import DirOpRecord, unpack_block
from repro.core.errors import CorruptionError, MediaError, TrimmedBlockError
from repro.core.inode import Inode, unpack_inode_block
from repro.core.mapping import FileMap
from repro.core.nvlog import NVDirOp, NVMeta, NVPatch, unpack_body
from repro.core.summary import SegmentGap, SegmentSummary, try_parse_summary, walk_segment
from repro.obs.events import RECOVER_SCAVENGE


@dataclass
class RecoveryReport:
    """What a roll-forward pass found and fixed."""

    partial_writes_replayed: int = 0
    torn_writes_dropped: int = 0
    inodes_recovered: int = 0
    blocks_recovered: int = 0
    dirops_applied: int = 0
    orphan_entries_removed: int = 0
    files_freed: int = 0
    elapsed: float = 0.0
    segments_scanned: int = 0
    scavenged: bool = False
    # NVM staging-log replay (the second persistence domain).
    nvm_records_replayed: int = 0
    nvm_records_dropped: int = 0
    nvm_dirops_applied: int = 0
    nvm_patches_applied: int = 0
    nvm_metas_applied: int = 0
    nvm_lost: bool = False


@dataclass
class _PartialWrite:
    summary: SegmentSummary
    segment: int
    offset: int
    # Only metadata payloads are read during the scan; data blocks are
    # skipped over, which is what keeps recovery time proportional to the
    # number of files recovered rather than the volume of data (Table 3).
    payloads: dict[int, bytes] = field(default_factory=dict)


_METADATA_KINDS = (BlockKind.INODE, BlockKind.DIROP_LOG)


def _collect_partial_writes(fs, cp: Checkpoint, report: RecoveryReport) -> list[_PartialWrite]:
    """Follow the threaded log from the checkpoint's tail, in seq order.

    Walks summaries with strictly consecutive sequence numbers starting
    at ``cp.log_seq``, reading each summary block and the inode /
    directory-log blocks it describes. Because partial writes are issued
    strictly in sequence, only the *last* one can be torn by the crash;
    it is CRC-verified against its full payload and dropped if torn.
    """
    writes: list[_PartialWrite] = []
    expected_seq = cp.log_seq
    seg = cp.tail_segment
    offset = cp.tail_offset
    seen: set[int] = set()
    seg_blocks = fs.config.segment_blocks
    # If the tail segment was already full at checkpoint time, the log
    # continued in the successor the checkpoint reserved.
    initial_next = None if cp.next_segment == NO_SEGMENT else cp.next_segment
    while seg is not None and seg not in seen and 0 <= seg < fs.layout.num_segments:
        seen.add(seg)
        report.segments_scanned += 1
        start = fs.layout.segment_start(seg)
        next_seg: int | None = initial_next
        initial_next = None
        stop = False
        while offset < seg_blocks - 1:
            try:
                block = fs.disk.read_block(start + offset)
            except TrimmedBlockError:
                # A trimmed, never-reprogrammed page cannot hold a valid
                # summary: the device is saying nothing was written here
                # after the segment's TRIM, so the log ends at this point.
                stop = True
                break
            summary = try_parse_summary(block, fs.config.block_size)
            if summary is None or summary.seq != expected_seq:
                stop = True
                break
            n = len(summary.entries)
            if offset + 1 + n > seg_blocks:
                stop = True
                break
            payloads: dict[int, bytes] = {}
            for i, entry in enumerate(summary.entries):
                if entry.kind in _METADATA_KINDS:
                    payloads[i] = fs.disk.read_block(start + offset + 1 + i)
            writes.append(
                _PartialWrite(summary=summary, segment=seg, offset=offset, payloads=payloads)
            )
            expected_seq += 1
            offset += 1 + n
            next_seg = None if summary.next_segment == NO_SEGMENT else summary.next_segment
        if stop:
            # Sequence numbers are strictly consecutive, so an invalid or
            # stale summary mid-segment means the log ends here.
            break
        seg = next_seg
        offset = 0
    if writes:
        last = writes[-1]
        full = (
            fs.disk.read_blocks(
                fs.layout.segment_start(last.segment) + last.offset + 1,
                len(last.summary.entries),
            )
            if last.summary.entries
            else []
        )
        if not last.summary.verify(full):
            writes.pop()  # torn by the crash: the log ends one write earlier
            report.torn_writes_dropped += 1
    return writes


def _inode_block_addrs(fs, inode: Inode) -> list[tuple[str, int]]:
    """All allocated (kind, addr) blocks of one inode, reading indirects."""
    fmap = FileMap(inode, fs.config.block_size, fs._read_log_block, lambda inum: None)
    return fmap.all_block_addrs(inode.nblocks(fs.config.block_size))


def _read_old_inode(fs, inum: int, addr: int) -> Inode | None:
    """Read the pre-crash inode instance at ``addr``, if parseable."""
    try:
        payload = fs._read_log_block(addr)
    except (CorruptionError, MediaError):
        return None
    for candidate in unpack_inode_block(payload, fs.config.block_size):
        if candidate.inum == inum:
            return candidate
    return None


def _replay_inode(fs, inode: Inode, addr: int, report: RecoveryReport) -> None:
    """Apply one recovered inode: update the map and segment usage."""
    slot = fs.imap.get(inode.inum)
    if inode.version < slot.version:
        return  # the file was deleted/truncated after this inode was written
    if slot.addr == addr and slot.version == inode.version:
        return  # already current (e.g. double replay)
    bs = fs.config.block_size

    # All reads happen before any accounting mutation, so a media error
    # mid-replay propagates out with the usage table still consistent.
    new_blocks = _inode_block_addrs(fs, inode)
    old_inode = fs._inodes.get(inode.inum)
    old_addr = slot.addr
    if old_inode is None and old_addr not in (NULL_ADDR, PENDING_ADDR):
        old_inode = _read_old_inode(fs, inode.inum, old_addr)
    old_blocks = [] if old_inode is None else _inode_block_addrs(fs, old_inode)

    for _, block_addr in old_blocks:
        fs.usage.remove_live(fs.layout.segment_of(block_addr), bs)
    if old_addr not in (NULL_ADDR, PENDING_ADDR):
        fs.usage.remove_live(fs.layout.segment_of(old_addr), INODE_SIZE)
    for _, block_addr in new_blocks:
        fs.usage.add_live(fs.layout.segment_of(block_addr), bs, inode.mtime)
    fs.usage.add_live(fs.layout.segment_of(addr), INODE_SIZE, inode.mtime)

    fs.imap.set_addr(inode.inum, addr)
    slot.version = inode.version
    fs._inodes[inode.inum] = inode
    fs._filemaps.pop(inode.inum, None)
    fs._dir_states.pop(inode.inum, None)
    # Drop any cached blocks (including dirty fix-up blocks written by
    # earlier directory-log replays): this inode instance was written
    # after them in the log, so its on-disk content supersedes them.
    fs.cache.drop_file(inode.inum)
    report.inodes_recovered += 1
    report.blocks_recovered += len(new_blocks)


def _replay_dirop(fs, record: DirOpRecord, report: RecoveryReport) -> None:
    """Restore directory/inode consistency for one logged operation."""
    inum = record.file_inum
    alive = fs.imap.is_allocated(inum)

    def dir_alive(dinum: int) -> bool:
        return fs.imap.is_allocated(dinum) and fs.get_inode(dinum).is_directory

    def entry_points_here(dinum: int, name: str) -> bool:
        return dir_alive(dinum) and fs._dir_state(dinum).lookup(name) == inum

    def ensure_entry(dinum: int, name: str) -> None:
        if dir_alive(dinum) and fs._dir_state(dinum).lookup(name) is None:
            fs._dir_insert(dinum, name, inum)

    def drop_entry(dinum: int, name: str) -> None:
        if entry_points_here(dinum, name):
            fs._dir_remove(dinum, name)

    applied = False
    if record.op in (DirOp.CREATE, DirOp.LINK):
        if alive:
            ensure_entry(record.dir1, record.name1)
            inode = fs.get_inode(inum)
            if inode.nlink != record.refcount:
                inode.nlink = record.refcount
                fs._mark_inode_dirty(inum)
            applied = True
        else:
            # The inode was never written: remove the orphaned entry.
            if entry_points_here(record.dir1, record.name1):
                fs._dir_remove(record.dir1, record.name1)
                report.orphan_entries_removed += 1
                applied = True
    elif record.op == DirOp.UNLINK:
        drop_entry(record.dir1, record.name1)
        if alive:
            if record.refcount <= 0:
                fs._free_inode(inum)
                report.files_freed += 1
            else:
                inode = fs.get_inode(inum)
                inode.nlink = record.refcount
                fs._mark_inode_dirty(inum)
        applied = True
    elif record.op == DirOp.RENAME:
        if alive:
            drop_entry(record.dir1, record.name1)
            ensure_entry(record.dir2, record.name2)
            inode = fs.get_inode(inum)
            if inode.nlink != record.refcount:
                inode.nlink = record.refcount
                fs._mark_inode_dirty(inum)
        else:
            drop_entry(record.dir1, record.name1)
            drop_entry(record.dir2, record.name2)
        applied = True
    if applied:
        report.dirops_applied += 1


def roll_forward(fs, cp: Checkpoint) -> RecoveryReport:
    """Recover everything durably written after the last checkpoint.

    Returns a report; the caller is responsible for writing a fresh
    checkpoint afterwards (``LFS.mount`` does).
    """
    report = RecoveryReport()
    start_time = fs.disk.clock.now
    with fs._span("recovery.rollforward", from_seq=cp.log_seq):
        writes = _collect_partial_writes(fs, cp, report)
        report.partial_writes_replayed = len(writes)

        # Replay strictly in log order, interleaving directory-log records
        # with inode updates. This is what the paper's ordering guarantee —
        # "each directory operation log entry appears in the log before the
        # corresponding directory block or inode" — buys: an UNLINK replays
        # against the inode-map state of its own moment in the log, so a
        # later re-creation of the same inode number is never clobbered.
        for pw in writes:
            base = fs.layout.segment_start(pw.segment) + pw.offset + 1
            for i, payload in sorted(pw.payloads.items()):
                entry = pw.summary.entries[i]
                if entry.kind == BlockKind.DIROP_LOG:
                    for record in unpack_block(payload):
                        _replay_dirop(fs, record, report)
                elif entry.kind == BlockKind.INODE:
                    for inode in unpack_inode_block(payload, fs.config.block_size):
                        _replay_inode(fs, inode, base + i, report)

        if writes:
            last = writes[-1]
            end_offset = last.offset + 1 + len(last.summary.entries)
            next_seg = (
                None
                if last.summary.next_segment == NO_SEGMENT
                else last.summary.next_segment
            )
            fs.writer.restore_cursor(
                last.segment, end_offset, last.summary.seq + 1, next_seg
            )
        report.elapsed = fs.disk.clock.now - start_time
    return report


# ======================================================================
# NVM staging-log replay (the second persistence domain)
#
# Staged records are *re-executed*, not fixed up: an NVM-staged CREATE
# whose inode never reached the on-disk log has nothing for
# :func:`_replay_dirop` to key on — that pass would treat the entry as an
# orphan and remove it, deleting an acknowledged file. Re-execution
# instead materializes the missing inode (the record carries its file
# type) and replays the operation through the live directory paths, which
# regenerate the directory blocks dirty in cache. Replay leaves state
# dirty and the records in place; the next flush (normally the
# post-recovery checkpoint) makes everything durable and truncates the
# staging log.
#
# Re-execution must also stay conservative when the durable disk state
# already reflects a *later, unacknowledged but flushed* operation (a
# threshold or destage flush that tore before its NVM truncate):
#  - content: a file whose durable inode mtime is strictly newer than the
#    record's staged META was covered completely by a later flush (data
#    blocks precede the inode within every flush), so its patches and
#    meta are skipped — the newer consistent state wins;
#  - namespace: an entry is inserted only into a vacant slot, removed
#    only while it still points at the staged inode, and a CREATE/LINK
#    whose link count is already satisfied is treated as superseded.
# Either way the recovered state lands inside the crash oracle's bounds:
# the staged (acknowledged) state or a later applied one.


def _nvm_materialize(fs, inum: int, ftype: FileType) -> Inode:
    """Bring to life an inode that never reached the on-disk log.

    Mirrors :meth:`LFS.create`'s allocation: the slot points at
    ``PENDING_ADDR`` until the next flush writes the inode. The mtime is
    zeroed so the staleness guard never mistakes a materialized inode for
    newer durable state; the record's META supplies the real values.
    """
    fs.imap.set_addr(inum, PENDING_ADDR)
    if inum >= fs.imap._next_inum:
        fs.imap._next_inum = inum + 1
    inode = Inode(
        inum=inum,
        version=fs.imap.version_of(inum),
        ftype=ftype,
        nlink=0,
        mtime=0.0,
        ctime=0.0,
    )
    fs._inodes[inum] = inode
    fs._mark_inode_dirty(inum)
    if ftype == FileType.DIRECTORY:
        from repro.core.filesystem import _DirState

        fs._dir_states[inum] = _DirState([])
    return inode


def _nvm_stale_files(fs, metas: list[NVMeta]) -> set[int]:
    """Files whose durable inode is strictly newer than this record.

    A newer durable mtime proves a later flush covered the file
    completely — within every flush the data items precede the inode
    item, so a durable inode implies durable data. Re-imposing the
    record's older acked content over it would manufacture a state that
    never existed; skipping leaves a later consistent state, which the
    crash bounds accept.
    """
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


def _nvm_apply_dirop(fs, op: NVDirOp, report: RecoveryReport | None) -> None:
    """Re-execute one staged directory operation (see module notes)."""
    rec = op.record
    inum = rec.file_inum

    def dir_alive(dinum: int) -> bool:
        return fs.imap.is_allocated(dinum) and fs.get_inode(dinum).is_directory

    def lookup(dinum: int, name: str) -> int | None:
        if not dir_alive(dinum):
            return None
        return fs._dir_state(dinum).lookup(name)

    def set_nlink(n: int) -> None:
        inode = fs.get_inode(inum)
        if inode.nlink != n:
            inode.nlink = n
            fs._mark_inode_dirty(inum)

    applied = False
    if rec.op in (DirOp.CREATE, DirOp.LINK):
        target = lookup(rec.dir1, rec.name1)
        if target == inum:
            set_nlink(rec.refcount)
            applied = True
        elif target is None and dir_alive(rec.dir1):
            if fs.imap.is_allocated(inum):
                if fs.get_inode(inum).nlink >= rec.refcount:
                    # The link count is satisfied without this entry: a
                    # later durable operation moved or removed it.
                    return
            else:
                _nvm_materialize(fs, inum, op.ftype)
            fs._dir_insert(rec.dir1, rec.name1, inum)
            set_nlink(rec.refcount)
            applied = True
        # else: another inode owns the name — a later durable operation
        # claimed it; the staged op is superseded.
    elif rec.op == DirOp.UNLINK:
        if lookup(rec.dir1, rec.name1) == inum:
            fs._dir_remove(rec.dir1, rec.name1)
        if fs.imap.is_allocated(inum):
            if rec.refcount <= 0:
                fs._free_inode(inum)
                if report is not None:
                    report.files_freed += 1
            else:
                set_nlink(rec.refcount)
        applied = True
    elif rec.op == DirOp.RENAME:
        src = lookup(rec.dir1, rec.name1)
        dst = lookup(rec.dir2, rec.name2)
        if dst == inum:
            if src == inum:
                fs._dir_remove(rec.dir1, rec.name1)  # half-applied move
            applied = True
        elif src == inum and dst is None and dir_alive(rec.dir2):
            fs._dir_remove(rec.dir1, rec.name1)
            fs._dir_insert(rec.dir2, rec.name2, inum)
            set_nlink(rec.refcount)
            applied = True
        elif (
            not fs.imap.is_allocated(inum)
            and src is None
            and dst is None
            and dir_alive(rec.dir2)
        ):
            # The renamed inode never reached any domain's durable state
            # (both its CREATE and this RENAME were staged only, and an
            # earlier record should have materialized it — defensive).
            _nvm_materialize(fs, inum, op.ftype)
            fs._dir_insert(rec.dir2, rec.name2, inum)
            set_nlink(rec.refcount)
            applied = True
    if applied and report is not None:
        report.nvm_dirops_applied += 1


def _nvm_apply_patch(fs, patch: NVPatch, report: RecoveryReport | None) -> None:
    """Apply one staged byte-range delta through the cache."""
    if not fs.imap.is_allocated(patch.inum):
        return
    inode = fs.get_inode(patch.inum)
    if inode.is_directory:
        return
    bs = fs.config.block_size
    fbn = patch.offset // bs
    block_off = patch.offset % bs
    base = bytearray(fs._read_data_block(patch.inum, fbn))
    base[block_off : block_off + len(patch.data)] = patch.data
    fs.cache.write(patch.inum, fbn, bytes(base), inode.mtime)
    if patch.offset + len(patch.data) > inode.size:
        inode.size = patch.offset + len(patch.data)
    fs._mark_inode_dirty(patch.inum)
    if report is not None:
        report.nvm_patches_applied += 1


def _nvm_apply_meta(fs, meta: NVMeta, report: RecoveryReport | None) -> None:
    """Apply one staged (size, mtime); a shrink replays as a truncate."""
    if not fs.imap.is_allocated(meta.inum):
        return
    inode = fs.get_inode(meta.inum)
    if inode.is_directory:
        return
    bs = fs.config.block_size
    if meta.size < inode.size:
        first_dead_fbn = (meta.size + bs - 1) // bs
        fmap = fs.filemap(meta.inum)
        freed = fmap.clear_from(first_dead_fbn, inode.nblocks(bs))
        for _, addr in freed:
            fs.usage.remove_live(fs.layout.segment_of(addr), bs)
        fs.cache.drop_from(meta.inum, first_dead_fbn)
        if meta.size == 0:
            inode.version = fs.imap.bump_version(meta.inum)
    inode.size = meta.size
    inode.mtime = meta.mtime
    fs._mark_inode_dirty(meta.inum)
    if report is not None:
        report.nvm_metas_applied += 1


def replay_nvm(fs, report: RecoveryReport | None = None) -> None:
    """Replay surviving NVM staging records on top of roll-forward state.

    Records apply in append order; within a record, directory operations
    first (they may materialize the inodes the patches target), then
    patches, then metas. Damage confined to the final record is the
    expected torn tail of a mid-append power cut — that append was never
    acknowledged, so it is dropped (and, if it was the only content,
    truncated away). Damage earlier in the log means acknowledged records
    are gone: the valid prefix is still applied, then the mount degrades
    to read-only rather than silently continue from a hole in the acked
    history.
    """
    nvram = fs.nvram
    result = nvram.read_records()
    with fs._span("recovery.nvm", records=len(result.bodies), dropped=result.dropped):
        for body in result.bodies:
            dirops, patches, metas = unpack_body(body)
            stale = _nvm_stale_files(fs, metas)
            for op in dirops:
                _nvm_apply_dirop(fs, op, report)
            for patch in patches:
                if patch.inum in stale:
                    continue
                _nvm_apply_patch(fs, patch, report)
            for meta in metas:
                if meta.inum in stale:
                    continue
                _nvm_apply_meta(fs, meta, report)
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
        # acknowledged. Dropping it is the expected crash residue, not a
        # loss, so the log is simply reset.
        nvram.truncate_all(uncovered=0)


def _scan_all_segments(fs, report: RecoveryReport) -> list[_PartialWrite]:
    """Find every intact partial write on the device, segment by segment.

    Unlike roll-forward, the log threading cannot be trusted here (it
    starts from a checkpoint we no longer have), so each segment is walked
    independently from its first block under the epoch rule of
    :func:`~repro.core.summary.walk_segment` — with no ``seq_limit``,
    since there is no writer yet. Fully stale segments (cleaned but not
    yet rewritten) replay harmlessly: the global seq-ordered replay
    supersedes every block they describe.

    Each write is verified against its whole-write CRC; torn tails, rotted
    payloads, and writes hit by latent sector errors are dropped (counted
    in ``torn_writes_dropped``) rather than replayed wrong.
    """
    writes: list[_PartialWrite] = []
    seg_blocks = fs.config.segment_blocks
    bs = fs.config.block_size

    for seg in range(fs.layout.num_segments):
        report.segments_scanned += 1
        start = fs.layout.segment_start(seg)

        def read(addr: int) -> bytes | None:
            # A summary cannot start in a segment's last block (the writer
            # moves on with fewer than 2 blocks left): never pay for it.
            if addr >= start + seg_blocks - 1:
                return None
            try:
                return fs.disk.read_block(addr)
            except MediaError:
                return None

        # A damaged summary must not hide the intact writes after it.
        for step in walk_segment(read, fs.disk.peek, start, seg_blocks, bs):
            if isinstance(step, SegmentGap):
                if step.resume is not None:
                    report.torn_writes_dropped += 1
                continue
            offset, _, summary = step
            n = len(summary.entries)
            try:
                full = fs.disk.read_blocks(start + offset + 1, n) if n else []
            except MediaError:
                full = None
            if full is not None and summary.verify(full):
                payloads = {
                    i: full[i]
                    for i, entry in enumerate(summary.entries)
                    if entry.kind in _METADATA_KINDS
                }
                writes.append(
                    _PartialWrite(
                        summary=summary, segment=seg, offset=offset, payloads=payloads
                    )
                )
            else:
                report.torn_writes_dropped += 1
    return writes


def scavenge(fs) -> RecoveryReport:
    """Rebuild the file system from segment summaries alone (lfsck of last
    resort, for when *both* checkpoint regions are unreadable).

    The whole segment area is scanned for intact partial writes, which are
    then replayed in global sequence order against the empty in-memory
    state ``fs`` was constructed with — the same replay primitives as
    roll-forward, applied to the entire surviving history instead of a
    checkpoint's suffix. The inode map, segment usage table, directory
    consistency, allocation hint, and log cursor all come back out of the
    scan; quarantine verdicts recorded only in the lost usage table do
    not (a following scrub can re-establish them).

    The caller is responsible for writing a fresh checkpoint afterwards.
    Raises :class:`CorruptionError` when no intact partial write survives.
    """
    report = RecoveryReport(scavenged=True)
    start_time = fs.disk.clock.now
    with fs._span("recovery.scavenge"):
        writes = _scan_all_segments(fs, report)
        if not writes:
            raise CorruptionError(
                "scavenge failed: no intact partial write found in the segment area"
            )
        writes.sort(key=lambda pw: pw.summary.seq)
        report.partial_writes_replayed = len(writes)
        # Catch the clock up to the newest surviving write so recovered
        # mtimes and usage-table age stamps stay in the past.
        fs.disk.clock.advance_to(max(pw.summary.write_time for pw in writes))

        for pw in writes:
            base = fs.layout.segment_start(pw.segment) + pw.offset + 1
            for i, payload in sorted(pw.payloads.items()):
                entry = pw.summary.entries[i]
                if entry.kind == BlockKind.DIROP_LOG:
                    for record in unpack_block(payload):
                        _replay_dirop(fs, record, report)
                elif entry.kind == BlockKind.INODE:
                    for inode in unpack_inode_block(payload, fs.config.block_size):
                        try:
                            _replay_inode(fs, inode, base + i, report)
                        except (CorruptionError, MediaError):
                            # This instance's block tree is unreadable; an
                            # earlier intact instance (if any) stays current.
                            continue

        last = writes[-1]
        end_offset = last.offset + 1 + len(last.summary.entries)
        next_seg = (
            None if last.summary.next_segment == NO_SEGMENT else last.summary.next_segment
        )
        if next_seg is not None and not (
            0 <= next_seg < fs.layout.num_segments and fs.usage.get(next_seg).clean
        ):
            next_seg = None  # the recorded successor is gone; reserve afresh
        fs.writer.restore_cursor(last.segment, end_offset, last.summary.seq + 1, next_seg)

        allocated = fs.imap.allocated_inums()
        fs.imap._next_inum = (max(allocated) + 1) if allocated else ROOT_INUM + 1
        # Every map/usage block must make it into the fresh checkpoint: the
        # old on-disk copies are unreachable without the lost regions.
        fs.imap.mark_all_dirty()
        fs.usage.mark_all_dirty()

        report.elapsed = fs.disk.clock.now - start_time
        if fs.obs is not None:
            fs.obs.emit(
                RECOVER_SCAVENGE,
                segments=report.segments_scanned,
                inodes=report.inodes_recovered,
                partial_writes=report.partial_writes_replayed,
            )
    return report
