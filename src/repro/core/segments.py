"""The log writer: partial-segment writes (Section 3.2).

``LogWriter`` turns an ordered list of :class:`LogItem` into one or more
partial-segment writes, each a single streamed disk request of
``[summary block][described blocks...]``. Items are placed (addresses
assigned, pointer/accounting callbacks run) before their payloads are
serialized, so blocks whose contents depend on the addresses of earlier
blocks in the same flush — inodes after data, the inode map after inodes —
come out consistent.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable

from repro.core.config import DiskLayout, LFSConfig
from repro.core.constants import NO_SEGMENT, BlockKind
from repro.core.errors import InvalidOperationError, NoSpaceError
from repro.core.seg_usage import SegmentUsageTable
from repro.core.summary import SegmentSummary, SummaryEntry, summary_capacity
from repro.disk.device import Disk
from repro.obs.events import LOG_SEGMENT_OPEN, LOG_WRITE


@dataclass(slots=True)
class LogItem:
    """One block queued for the log.

    Attributes:
        kind: what the block is (drives the summary entry).
        inum: owning inode number, if any.
        offset: position within the owning structure (file block number,
            indirect index, map block index).
        version: owning file's uid version at write time.
        mtime: the block's modification time; the summary's
            ``youngest_mtime`` is the max over its items, and age-sorting
            orders by this.
        payload: the block's bytes, when they are known at queueing time
            (data blocks, directory-op records).
        get_payload: produces the payload of a block whose contents
            depend on where other blocks land (indirect, inode and map
            blocks); called only after every item in the same partial
            write has been placed, and only when ``payload`` is None.
            ``append`` refuses an item with neither.
        on_placed: called as ``on_placed(item, addr)`` with the assigned
            disk address; updates in-memory pointers (inode/indirect/map)
            and segment usage accounting. The item says which block it
            is, so every data item shares one bound method.
    """

    kind: BlockKind
    inum: int = 0
    offset: int = 0
    version: int = 0
    mtime: float = 0.0
    payload: bytes | None = None
    get_payload: Callable[[], bytes] | None = None
    on_placed: Callable[[LogItem, int], None] | None = None


@dataclass
class LogWriteStats:
    """Counters over everything the log writer has emitted."""

    partial_writes: int = 0
    blocks_by_kind: dict[BlockKind, int] = field(default_factory=dict)
    cleaner_blocks: int = 0
    total_blocks: int = 0
    segments_opened: int = 0
    # Hot/cold segregation: blocks routed through the cold cursor and
    # segments it opened (both zero unless the config enables it).
    cold_blocks: int = 0
    cold_segments_opened: int = 0

    def count(self, kind: BlockKind, n: int = 1) -> None:
        self.blocks_by_kind[kind] = self.blocks_by_kind.get(kind, 0) + n
        self.total_blocks += n


class LogWriter:
    """Appends partial-segment writes to the log.

    The writer owns the log cursor (current segment and block offset
    within it) and the global partial-write sequence number, both of which
    are persisted by checkpoints. It takes clean segments from the usage
    table as the log advances; running dry raises :class:`NoSpaceError`
    (the file system is responsible for cleaning *before* flushing).
    """

    def __init__(
        self,
        disk: Disk,
        config: LFSConfig,
        layout: DiskLayout,
        usage: SegmentUsageTable,
    ) -> None:
        self.disk = disk
        self.config = config
        self.layout = layout
        self.usage = usage
        self.stats = LogWriteStats()
        self.current_segment: int | None = None
        self.next_segment: int | None = None  # reserved successor (threading)
        self.offset = 0  # blocks already used in the current segment
        # Second open segment for cold data (``hot_cold_segregation``):
        # cleaner-rewritten blocks — proven survivors, hence cold — land
        # here so they never dilute segments of fresh hot writes. The
        # cold cursor is not persisted by checkpoints: its writes are
        # cleaner output, which recovery ignores until the following
        # checkpoint publishes it, so losing the cursor at worst wastes
        # the open segment's tail until the cleaner reclaims it.
        self.cold_segment: int | None = None
        self.cold_offset = 0
        self.seq = 1  # next partial-write sequence number
        # Write-through CRC index: addr -> CRC-32 of the payload written
        # there (summary blocks included). The read path verifies against
        # this in memory — no extra I/O, so log timing is unchanged — and
        # the file system lazily back-fills it from on-disk summaries for
        # segments written before this mount.
        self.block_crcs: dict[int, int] = {}
        self._capacity = summary_capacity(config.block_size)
        # Segments held back from normal traffic so the cleaner always has
        # workspace; the file system sets ``exempt`` while cleaning.
        self.reserve = config.reserved_segments
        self.exempt = False

    # ------------------------------------------------------------------
    # cursor management

    def restore_cursor(
        self, segment: int, offset: int, seq: int, next_segment: int | None = None
    ) -> None:
        """Resume the log where a checkpoint (or roll-forward) left it."""
        self.current_segment = segment
        self.offset = offset
        self.seq = seq
        self.next_segment = next_segment
        if segment is not None:
            self.usage.mark_in_use(segment)
        if next_segment is not None:
            self.usage.mark_in_use(next_segment)

    def open_segments(self) -> tuple[int, ...]:
        """Segments the writer holds open or reserved (hot, next, cold)."""
        return tuple(
            s
            for s in (self.current_segment, self.next_segment, self.cold_segment)
            if s is not None
        )

    def _remaining_in_segment(self) -> int:
        if self.current_segment is None:
            return 0
        return self.config.segment_blocks - self.offset

    def _remaining_in_cold_segment(self) -> int:
        if self.cold_segment is None:
            return 0
        return self.config.segment_blocks - self.cold_offset

    def _reserve_next(self) -> None:
        """Reserve the segment the log will continue into.

        The successor is chosen *before* the current segment fills so
        every summary written into the current segment can record it —
        this is what threads the log for roll-forward. Normal traffic may
        not dip into the cleaner's reserve.
        """
        if self.next_segment is not None:
            return
        clean = [
            s
            for s in self.usage.clean_segments()
            if s != self.current_segment and s != self.cold_segment
        ]
        if not clean:
            return
        if not self.exempt and len(clean) <= self.reserve:
            raise NoSpaceError(
                f"log reserve reached: {len(clean)} clean segments <= "
                f"reserve of {self.reserve} (the cleaner could not keep up)"
            )
        self.next_segment = clean[0]
        self.usage.mark_in_use(clean[0])

    def _advance_segment(self) -> None:
        """Move the cursor to the reserved (or a fresh) clean segment."""
        if self.next_segment is not None:
            seg = self.next_segment
            self.next_segment = None
            self.usage.mark_in_use(seg)
        else:
            clean = self.usage.clean_segments()
            if not clean:
                raise NoSpaceError("no clean segments left for the log")
            seg = clean[0]
            self.usage.mark_in_use(seg)
        self.current_segment = seg
        self.offset = 0
        self.stats.segments_opened += 1
        if self.disk.obs is not None:
            self.disk.obs.emit(LOG_SEGMENT_OPEN, segment=seg)
        self._reserve_next()

    def _advance_cold_segment(self) -> None:
        """Open a fresh clean segment for the cold (cleaner-output) cursor.

        The cold cursor has no reserved successor and its summaries do
        not thread the log (``next_segment = NO_SEGMENT``): roll-forward
        never needs to walk a cold segment because every cleaning flush
        is followed by a checkpoint before its sources are reclaimed.
        The cleaner runs with the reserve exempt, so this draws straight
        from the clean list.
        """
        exclude = {self.current_segment, self.next_segment, self.cold_segment}
        clean = [s for s in self.usage.clean_segments() if s not in exclude]
        if not clean:
            raise NoSpaceError("no clean segments left for the cold log cursor")
        seg = clean[0]
        self.usage.mark_in_use(seg)
        self.cold_segment = seg
        self.cold_offset = 0
        self.stats.segments_opened += 1
        self.stats.cold_segments_opened += 1
        if self.disk.obs is not None:
            self.disk.obs.emit(LOG_SEGMENT_OPEN, segment=seg, cold=True)

    # ------------------------------------------------------------------
    # writing

    def append(
        self,
        items: list[LogItem],
        *,
        cleaning: bool = False,
        barrier: bool = False,
    ) -> int:
        """Write ``items`` to the log in order; returns partial writes issued.

        ``barrier`` charges the *first* partial write's request half a
        rotation of positioning latency even when it lands sequentially:
        a synchronous flush (fsync with no NVM staging) was issued in
        isolation, so the platter has turned past the head since the
        previous request. Subsequent partial writes of the same flush
        stream back-to-back as usual.

        Items are chunked into partial writes bounded by the space left in
        the current segment and by summary capacity. For each partial
        write: place every item (assign addresses, run callbacks), then
        serialize payloads, then issue one streamed disk write of
        summary + payloads.

        With ``hot_cold_segregation`` enabled, cleaning writes go through
        the *cold* cursor instead of the hot one: cleaner survivors and
        fresh data never share a segment, so survivor segments stay dense
        while hot segments decay toward empty.
        """
        if not items:
            return 0
        for item in items:
            if item.payload is None and item.get_payload is None:
                raise InvalidOperationError(
                    f"{item.kind.name} item (inum {item.inum}, offset {item.offset}) "
                    "has neither a payload nor a way to produce one"
                )
        cold = cleaning and self.config.hot_cold_segregation
        writes = 0
        pos = 0
        now = self.disk.clock.now
        stats = self.stats
        block_crcs = self.block_crcs
        while pos < len(items):
            if cold:
                if self.cold_segment is None or self._remaining_in_cold_segment() < 2:
                    self._advance_cold_segment()
                segment, offset = self.cold_segment, self.cold_offset
                chain = NO_SEGMENT
            else:
                if self.current_segment is None or self._remaining_in_segment() < 2:
                    self._advance_segment()
                if self.next_segment is None:
                    self._reserve_next()
                segment, offset = self.current_segment, self.offset
                chain = (
                    self.next_segment if self.next_segment is not None else NO_SEGMENT
                )
            room = self.config.segment_blocks - offset - 1  # minus the summary block
            batch = items[pos : pos + min(room, self._capacity)]
            pos += len(batch)

            start_addr = self.layout.segment_start(segment) + offset
            entries = []
            kinds: dict[BlockKind, int] = {}
            youngest = 0.0
            for addr, item in enumerate(batch, start_addr + 1):
                if item.on_placed is not None:
                    item.on_placed(item, addr)
                kind = item.kind
                entries.append(SummaryEntry(kind, item.inum, item.offset, item.version))
                kinds[kind] = kinds.get(kind, 0) + 1
                if item.mtime > youngest:
                    youngest = item.mtime

            payloads = []
            for item in batch:
                payload = item.payload
                payloads.append(payload if payload is not None else item.get_payload())
            summary = SegmentSummary(
                seq=self.seq,
                write_time=now,
                youngest_mtime=youngest,
                entries=entries,
                next_segment=chain,
            )
            summary_block = summary.pack(payloads, self.config.block_size)
            block_crcs[start_addr] = zlib.crc32(summary_block)
            for addr, entry in enumerate(summary.entries, start_addr + 1):
                block_crcs[addr] = entry.block_crc

            payloads.insert(0, summary_block)
            self.disk.write_blocks(
                start_addr,
                payloads,
                force_latency=barrier and writes == 0,
            )
            self.usage.add_live(segment, 0, now)  # stamp write time
            obs = self.disk.obs
            if obs is not None:
                # Mirrors the stats.count() calls below exactly, so the
                # summed trace kinds equal blocks_by_kind bit-for-bit.
                evt = dict(
                    segment=segment,
                    seq=self.seq,
                    offset=offset,
                    blocks=1 + len(batch),
                    cleaning=cleaning,
                    kinds={BlockKind.SUMMARY.name: 1, **{k.name: n for k, n in kinds.items()}},
                )
                if cold:
                    evt["cold"] = True
                obs.emit(LOG_WRITE, **evt)
            if cold:
                self.cold_offset += 1 + len(batch)
                stats.cold_blocks += 1 + len(batch)
            else:
                self.offset += 1 + len(batch)
            self.seq += 1
            writes += 1
            stats.partial_writes += 1
            stats.count(BlockKind.SUMMARY)
            for kind, n in kinds.items():
                stats.count(kind, n)
            if cleaning:
                stats.cleaner_blocks += 1 + len(batch)
        return writes

    def blocks_needed(self, item_count: int) -> int:
        """Upper bound on log blocks (items + summaries) for a flush."""
        if item_count == 0:
            return 0
        per_write = min(self._capacity, self.config.segment_blocks - 1)
        writes = (item_count + per_write - 1) // per_write
        return item_count + writes
