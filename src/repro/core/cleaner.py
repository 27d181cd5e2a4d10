"""The segment cleaner (Sections 3.3-3.5).

Mechanism: read segments, identify live blocks from segment summaries
(using the inode-map version for the fast uid check), and rewrite the live
blocks through the normal log write path. Policy: segments are selected
greedily (least utilized) or by cost-benefit, ``(1-u) * age / (1+u)``, the
rules the simulator uses (:mod:`repro.core.policy`); live blocks are
age-sorted before rewriting, which segregates cold data from hot.

A cleaning pass checkpoints before reusing the source segments so that
cleaned segments are never overwritten while an inode on disk still points
into them.
"""

from __future__ import annotations

import weakref
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.core.blocks import checksum
from repro.core.constants import INODE_SIZE, NULL_ADDR, BlockKind
from repro.core.errors import MediaError, TrimmedBlockError
from repro.core.inode import Inode, inode_slot_ids
from repro.core.mapping import node_of
from repro.core.policy import CleaningPolicy, choose
from repro.core.summary import SegmentGap, walk_segment
from repro.obs.attribution import CLEANING_READ
from repro.obs.events import CLEAN_PASS, CLEAN_QUARANTINE, CLEAN_SEGMENT


class _UnreadablePayload(Exception):
    """Internal sentinel: a rescue declined to supply a damaged payload."""


def _refuse_payload(addr: int, entry) -> bytes:
    raise _UnreadablePayload()


@dataclass
class CleanerStats:
    """Counters matching the paper's Table 2.

    ``live_blocks_seen`` counts every block the cleaner *identified* as
    live while walking segment summaries (gather or salvage); each such
    block must end up moved, rescued, or lost — the conservation law the
    obs-layer watchdog holds continuously. All four counters update at
    the exact identification/outcome sites, never batched at pass end,
    so the equality holds at every observable instant.
    """

    passes: int = 0
    segments_cleaned: int = 0
    empty_segments_cleaned: int = 0
    blocks_read: int = 0
    live_blocks_seen: int = 0
    live_blocks_moved: int = 0
    selective_segments: int = 0
    cleaned_utilizations: list[float] = field(default_factory=list)
    segments_quarantined: int = 0
    blocks_rescued: int = 0
    blocks_lost: int = 0

    def table2(self, since: int = 0) -> dict[str, float | int]:
        """Table 2's cleaning numbers over ``cleaned_utilizations[since:]``.

        ``since`` windows the summary to the cleanings after a baseline
        count (``run_production`` measures only after its aging phase).
        The average u is over the non-empty segments, as in the paper.
        """
        utils = self.cleaned_utilizations[since:]
        empty = sum(1 for u in utils if u == 0.0)
        nonempty = [u for u in utils if u > 0.0]
        return {
            "segments_cleaned": len(utils),
            "empty_segments_cleaned": empty,
            "fraction_empty": (empty / len(utils)) if utils else 0.0,
            "avg_nonempty_utilization": (sum(nonempty) / len(nonempty)) if nonempty else 0.0,
        }

    def figure6(self, bins: int = 20) -> list[int]:
        """Figure 6: how many cleaned segments fell in each u bin."""
        counts = [0] * bins
        for u in self.cleaned_utilizations:
            counts[min(bins - 1, int(u * bins))] += 1
        return counts


class Cleaner:
    """Regenerates clean segments for one :class:`~repro.core.filesystem.LFS`."""

    def __init__(self, fs) -> None:
        # The file system owns its cleaner; a strong back-pointer would
        # make every LFS a cycle only the collector can free.
        self.fs = weakref.proxy(fs)
        self.stats = CleanerStats()

    # ------------------------------------------------------------------
    # policy

    def _candidates(self) -> list[int]:
        fs = self.fs
        held = fs.writer.open_segments()
        return [seg for seg in fs.usage.dirty_segments() if seg not in held]

    def select_segments(self, count: int) -> list[int]:
        """Choose up to ``count`` segments to clean under the active policy.

        Totally empty segments are always taken first: reclaiming them
        costs no I/O at all (Section 3.4's u = 0 case), which is why the
        production systems in Table 2 show most cleaned segments empty.

        Otherwise the candidates are ranked the way the paper ranks the
        segment usage table, through the chooser the simulator uses
        (:func:`~repro.core.policy.choose`): least utilized first, or
        highest benefit-to-cost first, with u from the usage table and
        age from the segment's last write time. Ties break by ascending
        segment number (candidate order); every pinned digest depends on
        that. A selector that avoids the rescan (Lomet & Luo,
        PAPERS.md) starts to pay at several hundred segments — a heap
        measured 2.4x on a 400-segment simulated disk, ~5 % at 100.
        """
        fs = self.fs
        usage = fs.usage
        candidates = self._candidates()
        empty = [s for s in candidates if usage.get(s).live_bytes == 0]
        if empty:
            return empty[:count]
        return choose(
            fs.config.cleaning_policy, candidates, count, usage.utilization,
            lambda seg: usage.get(seg).last_write, fs.disk.clock.now,
            weight=self._wear_factor() if fs.config.wear_leveling else None,
        )

    def _wear_factor(self):
        """The wear nudge as ``seg -> multiplier``, or None off flash.

        Above 1 (at most 1.1) when the segment's most worn erase block is
        below the mean wear, below 1 above it: cleaning a segment soon
        re-erases its erase blocks, so preferring cold-wear victims
        spreads erases. Only the cost-benefit ranking applies it.
        """
        fs = self.fs
        fl = fs.disk.flash
        if fl is None:
            return None
        geom = fs.disk.geometry
        mean = sum(fl.erase_counts) / len(fl.erase_counts)  # once per ranking

        def factor(seg_no: int) -> float:
            start = fs.layout.segment_start(seg_no)
            first = geom.erase_block_of(start)
            last = geom.erase_block_of(start + fs.config.segment_blocks - 1)
            wear = max(fl.erase_counts[eb] for eb in range(first, last + 1))
            return 1.0 + 0.1 * (mean - wear) / (mean + 1.0)

        return factor

    # ------------------------------------------------------------------
    # mechanism

    def clean(self, target_clean: int) -> int:
        """Clean until ``target_clean`` segments are clean; returns count cleaned."""
        fs = self.fs
        if fs._in_cleaner:
            return 0
        fs._in_cleaner = True
        fs.writer.exempt = True  # cleaning may use the reserved segments
        try:
            cleaned = 0
            checkpointed = False
            while fs.usage.clean_count < target_clean:
                victims = self.select_segments(fs.config.segments_per_pass)
                if not victims:
                    break
                empties = [v for v in victims if fs.usage.get(v).live_bytes == 0]
                if empties:
                    # Pure gain: "need not be read at all" (Section 3.4).
                    obs = fs.disk.obs
                    for seg_no in empties:
                        self.stats.cleaned_utilizations.append(0.0)
                        fs.usage.mark_clean(seg_no)
                        # TRIM only after a checkpoint persists the death:
                        # the drain at checkpoint time handles these.
                        fs._pending_trims.add(seg_no)
                        self.stats.empty_segments_cleaned += 1
                        self.stats.segments_cleaned += 1
                        if obs is not None:
                            obs.emit(
                                CLEAN_SEGMENT, segment=seg_no, utilization=0.0, empty=True
                            )
                    cleaned += len(empties)
                    continue
                if not checkpointed:
                    # Retire pending directory-op records so every block in
                    # the victims is judged against durable state.
                    fs.checkpoint()
                    checkpointed = True
                    continue  # re-select: the checkpoint changed liveness
                chosen = self._fit_to_headroom(victims)
                if not chosen:
                    break
                before = self._free_blocks()
                recorded = len(self.stats.cleaned_utilizations)
                try:
                    cleaned += self._clean_pass(chosen)
                except MediaError as exc:
                    # The pass cleaned none of its victims: forget the
                    # utilizations it recorded, or Table 2 would average
                    # over segments that were never cleaned.
                    del self.stats.cleaned_utilizations[recorded:]
                    # A victim turned out to sit on failing media. Salvage
                    # what still verifies and retire the segment; the next
                    # iteration re-selects without it.
                    if exc.addr is None:
                        raise
                    sick = fs.layout.segment_of(exc.addr)
                    rec = fs.usage.get(sick)
                    if sick in fs.writer.open_segments() or rec.clean or rec.quarantined:
                        raise  # not a victim read — nothing to salvage here
                    self.rescue_segment(sick)
                    continue
                self.stats.passes += 1
                if self._free_blocks() <= before:
                    break  # no net gain: the disk is effectively full
            return cleaned
        finally:
            fs._in_cleaner = False
            fs.writer.exempt = False
            if fs.obs is not None:
                fs.obs.timeline_tick()

    def _free_blocks(self) -> int:
        """Writable blocks: clean segments plus the unused log tail."""
        fs = self.fs
        free = fs.usage.clean_count * fs.config.segment_blocks
        if fs.writer.current_segment is not None:
            free += fs.config.segment_blocks - fs.writer.offset
        if fs.writer.next_segment is not None:
            free += fs.config.segment_blocks
        if fs.writer.cold_segment is not None:
            free += fs.config.segment_blocks - fs.writer.cold_offset
        return free

    @staticmethod
    def _blocks_needed(live: int) -> int:
        """Log blocks one victim's move consumes: the live blocks
        themselves, summary slack, and the inode/map blocks the moves
        dirty. Both the main fit loop and the single-victim fallback
        must use this same margin — a fallback without the ``live // 8``
        term can overflow headroom on a nearly-full disk.
        """
        return live + 4 + live // 8

    def _fit_to_headroom(self, victims: list[int]) -> list[int]:
        """Trim a victim list so its moved data fits the clean segments.

        A cleaning pass consumes log space (the moved live blocks plus a
        checkpoint) *before* the sources are marked clean, so the pass
        must fit in what is currently free.
        """
        fs = self.fs
        seg_blocks = fs.config.segment_blocks
        # Slack for the pass-closing checkpoint: dirty map blocks plus a
        # margin for summaries and map blocks dirtied by the moves.
        slack = (
            16
            + len(fs.imap.dirty_block_indexes())
            + len(fs.usage.dirty_block_indexes())
            + fs.cache.dirty_count
        )
        headroom = self._free_blocks() - slack
        chosen: list[int] = []
        acc = 0
        for seg_no in victims:
            u = fs.usage.utilization(seg_no)
            need = self._blocks_needed(int(u * seg_blocks))
            if chosen and acc + need > headroom:
                break
            if not chosen and need > headroom:
                # Not even one victim fits: try the emptiest candidate
                # instead (maximum net gain per block of headroom).
                [fallback] = choose(
                    CleaningPolicy.GREEDY, self._candidates(), 1, fs.usage.utilization
                )
                fb_live = int(fs.usage.utilization(fallback) * seg_blocks)
                return [fallback] if self._blocks_needed(fb_live) <= headroom else []
            chosen.append(seg_no)
            acc += need
        return chosen

    def _clean_pass(self, victims: list[int]) -> int:
        """Read victims, move their live blocks, and mark them clean."""
        fs = self.fs
        obs = fs.disk.obs
        scope = (
            obs.span("clean.pass", victims=list(victims))
            if obs is not None
            else nullcontext()
        )
        with scope:
            moved = 0
            utilizations = self.stats.cleaned_utilizations
            first = len(utilizations)
            for seg_no in victims:
                utilizations.append(fs.usage.utilization(seg_no))
                moved += self._gather_live(seg_no)
            if obs is not None:
                # Every victim read back, so the pass cleans them all. A
                # media error above aborts it into a rescue before any
                # victim's death reaches the trace (``clean`` drops the
                # utilizations it appended).
                for seg_no, u in zip(victims, utilizations[first:]):
                    obs.emit(CLEAN_SEGMENT, segment=seg_no, utilization=u, empty=False)
                obs.emit(CLEAN_PASS, victims=list(victims), moved=moved)
            fs.flush(cleaning=True)
            # Persist the moved inodes/pointers before the sources are reused.
            fs.checkpoint()
            for seg_no in victims:
                fs.usage.mark_clean(seg_no)
                # The moved blocks are durable (checkpoint above), but the
                # clean verdict itself is not yet — defer the TRIM to the
                # next checkpoint's drain so a crash can never recover a
                # trimmed segment that the durable usage table still
                # calls dirty.
                fs._pending_trims.add(seg_no)
                self.stats.segments_cleaned += 1
            return len(victims)

    def _gather_live(self, seg_no: int) -> int:
        """Mark every live block of one segment dirty so a flush moves it.

        Normally the whole segment is read in one streamed request (the
        paper's conservative assumption). When the segment's utilization
        is below ``selective_read_utilization``, only the summary blocks
        and the blocks that prove live are read — the paper's "it may be
        faster to read just the live blocks" optimization.
        """
        fs = self.fs
        seg_blocks = fs.config.segment_blocks
        start = fs.layout.segment_start(seg_no)
        with fs._cause(CLEANING_READ):
            selective = (
                fs.config.selective_read_utilization > 0.0
                and fs.usage.utilization(seg_no) < fs.config.selective_read_utilization
            )
            if fs.disk.flash is not None:
                # On flash there is no seek to amortize, and the unused
                # tail of a trimmed-then-reused segment is unreadable by
                # contract — a streamed whole-segment read would trip on
                # it. Always walk block by block instead.
                selective = True
            if selective:
                blocks = None
                self.stats.selective_segments += 1
            else:
                blocks = fs.disk.read_blocks(start, seg_blocks)
                self.stats.blocks_read += seg_blocks

            def block_at(addr: int) -> bytes:
                if blocks is not None:
                    return blocks[addr - start]
                self.stats.blocks_read += 1
                return fs.disk.read_block(addr)

            def payload_at(addr: int, entry) -> bytes:
                payload = block_at(addr)
                # Selective reads skip the whole-write CRC, so verify
                # each lazily fetched payload individually.
                if blocks is None and zlib.crc32(payload) != entry.block_crc:
                    raise MediaError(
                        "block failed CRC during selective cleaning", addr=addr, op="read"
                    )
                return payload

            trimmed = False

            def read_summary(addr: int) -> bytes | None:
                nonlocal trimmed
                try:
                    return block_at(addr)
                except TrimmedBlockError:
                    # Trimmed and never reprogrammed: nothing was written
                    # here this epoch, so the segment's log ends.
                    trimmed = True
                    return None

            # DATA entries, most of any victim, take the requeue rule
            # directly, with bound locals; other kinds go through ``_revive``.
            stats = self.stats
            write = fs.cache.write
            data_survivor = self._data_survivor
            revive = self._revive
            data = BlockKind.DATA
            moved = 0
            bs = fs.config.block_size
            for step in walk_segment(
                read_summary, fs.disk.peek, start, seg_blocks, bs, seq_limit=fs.writer.seq
            ):
                if isinstance(step, SegmentGap):
                    if step.resume is not None and not trimmed:
                        # Not the end of the segment's log: the walk broke
                        # on a *rotted* summary, and ending here would
                        # strand every live block after it. Escalate to a
                        # rescue instead.
                        raise MediaError(
                            "summary block failed to parse mid-segment during cleaning",
                            addr=start + step.offset,
                            op="read",
                        )
                    break
                offset, _, summary = step
                n = len(summary.entries)
                if blocks is not None and not summary.verify(blocks[offset + 1 : offset + 1 + n]):
                    # A valid current-epoch summary whose payloads fail the
                    # whole-write CRC is bit-rot, not a torn tail (the
                    # active tail segment is never a victim). Ending the
                    # walk here would silently strand every live block
                    # after this point — escalate to a rescue instead.
                    raise MediaError(
                        "segment failed whole-write CRC during cleaning",
                        addr=start + offset,
                        op="read",
                    )
                addr = start + offset
                for entry in summary.entries:
                    addr += 1
                    if entry.kind == data:
                        survivor = data_survivor(entry, addr, payload_at)
                        if survivor is None:
                            continue
                        write(*survivor)
                    elif not revive(entry, addr, payload_at):
                        continue
                    stats.live_blocks_seen += 1
                    stats.live_blocks_moved += 1
                    moved += 1
            return moved

    # ------------------------------------------------------------------
    # sick-segment rescue

    def rescue_segment(self, seg_no: int) -> tuple[int, int]:
        """Salvage a sick segment's verifiable live blocks, then quarantine.

        Reads the segment block by block (one latent sector must not kill
        the whole walk), verifies every payload against its summary's
        per-block CRC, and re-queues the live survivors through the normal
        log write path. The segment is then quarantined — permanently out
        of both the clean pool and the cleaner's candidate set — and a
        checkpoint persists the verdict and the moved blocks.

        Returns ``(rescued, lost)``: live blocks moved vs. live blocks
        that were unreadable or failed verification with no in-memory
        copy to fall back on.
        """
        fs = self.fs
        rec = fs.usage.get(seg_no)
        if rec.quarantined:
            return (0, 0)
        was_in_cleaner = fs._in_cleaner
        was_exempt = fs.writer.exempt
        fs._in_cleaner = True  # no reentrant cleaning under the rescue
        fs.writer.exempt = True  # the rescue may dip into the reserve
        obs = fs.disk.obs
        scope = (
            obs.span("clean.rescue", segment=seg_no)
            if obs is not None
            else nullcontext()
        )
        try:
            with scope:
                rescued, lost = self._salvage(seg_no)
                fs.flush(cleaning=True)
                fs.usage.quarantine(seg_no)
                self.stats.segments_quarantined += 1
                if obs is not None:
                    obs.emit(
                        CLEAN_QUARANTINE, segment=seg_no, rescued=rescued, lost=lost
                    )
        finally:
            fs._in_cleaner = was_in_cleaner
            fs.writer.exempt = was_exempt
        # Persist outside the exempt scope: an ordinary checkpoint must
        # still fit, or the quarantine has eaten into the hard reserve.
        fs.checkpoint()
        return (rescued, lost)

    def _salvage(self, seg_no: int) -> tuple[int, int]:
        """Walk one sick segment, reviving verifiable live blocks."""
        fs = self.fs
        bs = fs.config.block_size
        seg_blocks = fs.config.segment_blocks
        start = fs.layout.segment_start(seg_no)
        rescued = lost = 0
        with fs._cause(CLEANING_READ):

            def safe_read(addr: int) -> bytes | None:
                try:
                    self.stats.blocks_read += 1
                    return fs.disk.read_block(addr)
                except MediaError:
                    return None

            # An unreadable or invalid summary is a gap: the blocks it
            # described can no longer be identified, but the walker resumes
            # at the next current-epoch write, which may still be salvageable.
            for step in walk_segment(
                safe_read, fs.disk.peek, start, seg_blocks, bs, seq_limit=fs.writer.seq
            ):
                if isinstance(step, SegmentGap):
                    continue
                offset, _, summary = step
                for i, entry in enumerate(summary.entries):
                    addr = start + offset + 1 + i
                    payload = safe_read(addr)
                    ok = payload is not None and checksum([payload]) == entry.block_crc
                    if not ok and entry.kind == BlockKind.DATA:
                        cached = fs.cache.peek(entry.inum, entry.offset)
                        if cached is not None and cached.dirty:
                            continue  # a newer copy is already queued
                    # Without a verified payload, only map and usage blocks
                    # (regenerated from the in-memory tables) and data blocks
                    # with a clean cached copy can still be requeued.
                    tryable = ok or entry.kind in (
                        BlockKind.DATA, BlockKind.INODE_MAP, BlockKind.SEG_USAGE
                    )
                    source = (lambda a, e, p=payload: p) if ok else _refuse_payload
                    try:
                        revived = tryable and self._revive(entry, addr, source)
                    except _UnreadablePayload:
                        revived = False
                    if revived:
                        self.stats.live_blocks_seen += 1
                        self.stats.blocks_rescued += 1
                        rescued += 1
                    elif not ok and self._entry_live(entry, addr):
                        self.stats.live_blocks_seen += 1
                        self.stats.blocks_lost += 1
                        lost += 1
        return rescued, lost

    def _entry_live(self, entry, addr: int) -> bool:
        """The liveness rule: is ``addr`` still the current home of the
        block ``entry`` describes? No side effects beyond loading maps."""
        fs = self.fs
        kind = entry.kind
        if kind == BlockKind.DATA:
            return self._data_live(entry, addr)
        if kind in (BlockKind.INDIRECT, BlockKind.DINDIRECT):
            fmap = self._current_map(entry)
            return fmap is not None and fmap.node_addr(node_of(kind, entry.offset)) == addr
        if kind == BlockKind.INODE:
            return fs.imap.points_at(addr)
        if kind == BlockKind.INODE_MAP:
            return fs.imap.block_addrs[entry.offset] == addr
        if kind == BlockKind.SEG_USAGE:
            return fs.usage.block_addrs[entry.offset] == addr
        # DIROP blocks are dead once the pass's opening checkpoint ran;
        # SUMMARY entries never appear inside summaries.
        return False

    def _current_map(self, entry):
        """The paper's fast uid check: the owning file's map when
        ``entry``'s (inum, version) is still current, else None. One
        inode-map probe; a stale version never reads the inode."""
        fs = self.fs
        slot = fs.imap.peek(entry.inum)
        if slot is None or slot.addr == NULL_ADDR or slot.version != entry.version:
            return None
        return fs.filemap(entry.inum)

    def _data_live(self, entry, addr: int) -> bool:
        """The DATA liveness rule: the file map still points the block
        at ``addr``."""
        fmap = self._current_map(entry)
        return fmap is not None and fmap.get(entry.offset) == addr

    def _data_survivor(self, entry, addr: int, payload_at):
        """The DATA requeue rule: ``(inum, fbn, payload, mtime)`` to write
        back dirty when the block at ``addr`` is live and no newer copy is
        queued, else None. A clean cached copy supplies the bytes;
        otherwise ``payload_at(addr, entry)`` fetches them."""
        if not self._data_live(entry, addr):
            return None
        fs = self.fs
        inum, fbn = entry.inum, entry.offset
        # peek, not lookup: the cleaner's liveness probe must not count
        # as a cache hit/miss or refresh LRU order.
        cached = fs.cache.peek(inum, fbn)
        if cached is None:
            payload = payload_at(addr, entry)
        elif cached.dirty:
            return None  # a newer copy is already queued
        else:
            payload = cached.payload
        return inum, fbn, payload, fs.get_inode(inum).mtime

    def _revive(self, entry, addr: int, payload_at) -> bool:
        """If the block at ``addr`` is live, queue it for rewriting.

        ``payload_at(addr, entry)`` fetches the block's bytes; it is
        called only when the verdict needs them (inode blocks) or the
        move does (data blocks not in the cache).
        """
        fs = self.fs
        kind = entry.kind
        if kind == BlockKind.INODE:
            # Judged per inode, from the payload: a block mixes live and
            # superseded inodes, and only the live ones are requeued. A
            # slot's (inum, version) is enough to judge it, so only the
            # slots the inode map still points at are parsed.
            payload = payload_at(addr, entry)
            imap, inodes, dirty = fs.imap, fs._inodes, fs._dirty_inodes
            revived = False
            for slot, (inum, version) in enumerate(inode_slot_ids(payload)):
                if inum == 0:
                    break  # zero padding ends the block
                current = imap.peek(inum)
                if current is None or current.addr != addr or current.version != version:
                    continue  # ``addr`` is never NULL, so a match is allocated
                inode = Inode.from_bytes(payload[slot * INODE_SIZE : (slot + 1) * INODE_SIZE])
                if inum not in inodes:
                    inodes[inum] = inode
                dirty.add(inum)
                revived = True
            return revived
        if kind == BlockKind.DATA:
            survivor = self._data_survivor(entry, addr, payload_at)
            if survivor is None:
                return False
            fs.cache.write(*survivor)
            return True
        if not self._entry_live(entry, addr):
            return False
        if kind == BlockKind.INODE_MAP:
            fs.imap._dirty_blocks.add(entry.offset)
        elif kind == BlockKind.SEG_USAGE:
            fs.usage._dirty_blocks.add(entry.offset)
        else:  # INDIRECT / DINDIRECT
            fs.filemap(entry.inum).mark_dirty(node_of(kind, entry.offset))
        return True
