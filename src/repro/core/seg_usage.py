"""The segment usage table (Section 3.6, Table 1).

For every segment the table records the number of live bytes and the most
recent modified time of any block in it. The cleaner's cost-benefit policy
reads both; a count that falls to zero lets a segment be reused without
cleaning. Like the inode map, the table's blocks are written to the log
and located via the checkpoint region.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.blocks import require, table_block
from repro.core.constants import NULL_ADDR, SEG_USAGE_ENTRY_SIZE
from repro.core.errors import InvalidOperationError

# live_bytes, last_write_time, flags, pad — the quarantine flag lives in a
# former pad byte, so the entry keeps its on-disk size.
_ENTRY_FORMAT = "QdB7x"
_ENTRY = struct.Struct("<" + _ENTRY_FORMAT)
assert _ENTRY.size == SEG_USAGE_ENTRY_SIZE
_UNUSED = (0, 0.0, 0)  # past the last segment: all zero bytes

_FLAG_QUARANTINED = 0x01


@dataclass
class SegmentUsage:
    """One segment's bookkeeping.

    ``clean`` and ``in_log`` are in-memory state: a clean segment holds no
    live data and is available for writing; a segment "in the log" has been
    (partially) written since it was last clean. ``quarantined`` is
    persistent: the segment suffered an unrecoverable media error and must
    never be allocated or cleaned again.
    """

    live_bytes: int = 0
    last_write: float = 0.0
    clean: bool = True
    quarantined: bool = False

    @property
    def empty(self) -> bool:
        """True when no live bytes remain."""
        return self.live_bytes == 0


class SegmentUsageTable:
    """In-memory segment usage table with per-block dirty tracking."""

    def __init__(self, num_segments: int, segment_bytes: int, entries_per_block: int) -> None:
        if num_segments < 1:
            raise InvalidOperationError("need at least one segment")
        self.num_segments = num_segments
        self.segment_bytes = segment_bytes
        self.entries_per_block = entries_per_block
        self.num_blocks = (num_segments + entries_per_block - 1) // entries_per_block
        self._segments = [SegmentUsage() for _ in range(num_segments)]
        #: How many segments are clean — the number Section 3.4's threshold
        #: policy compares on every operation. Kept current by
        #: :meth:`_set_clean`, the only writer of ``SegmentUsage.clean``.
        self.clean_count = num_segments
        self._dirty_blocks: set[int] = set()
        self.block_addrs: list[int] = [NULL_ADDR] * self.num_blocks

    def _set_clean(self, seg: SegmentUsage, clean: bool) -> None:
        if seg.clean != clean:
            seg.clean = clean
            self.clean_count += 1 if clean else -1

    # ------------------------------------------------------------------

    def _check(self, seg_no: int) -> None:
        if seg_no < 0 or seg_no >= self.num_segments:
            raise InvalidOperationError(f"segment {seg_no} out of range")

    def block_of(self, seg_no: int) -> int:
        """Usage-table block index covering ``seg_no``."""
        self._check(seg_no)
        return seg_no // self.entries_per_block

    def get(self, seg_no: int) -> SegmentUsage:
        """The record for one segment."""
        self._check(seg_no)
        return self._segments[seg_no]

    def utilization(self, seg_no: int) -> float:
        """Fraction of the segment occupied by live bytes (0..1)."""
        return min(1.0, self.get(seg_no).live_bytes / self.segment_bytes)

    # add_live and remove_live run for every block the log places or
    # kills, so they spell out get/_check/block_of inline: one range
    # check, then the same updates in the same order.

    def add_live(self, seg_no: int, nbytes: int, when: float) -> None:
        """Account newly written live bytes in a segment."""
        if seg_no < 0 or seg_no >= self.num_segments:
            raise InvalidOperationError(f"segment {seg_no} out of range")
        seg = self._segments[seg_no]
        seg.live_bytes += nbytes
        if seg.clean:
            self._set_clean(seg, False)
        if when > seg.last_write:
            seg.last_write = when
        self._dirty_blocks.add(seg_no // self.entries_per_block)

    def remove_live(self, seg_no: int, nbytes: int) -> None:
        """Account bytes that just died (overwrite, delete, truncate)."""
        if seg_no < 0 or seg_no >= self.num_segments:
            raise InvalidOperationError(f"segment {seg_no} out of range")
        seg = self._segments[seg_no]
        live = seg.live_bytes - nbytes
        # Clamped at zero for a quarantined segment: quarantine zeroes its
        # count, but a live block the rescue lost (an inode block that
        # failed verification) is still mapped there, and its death when
        # the inode is next written arrives at that zero. Anywhere else a
        # death below zero is an accounting bug, which lfsck's exact
        # recount names.
        seg.live_bytes = live if live > 0 else 0
        self._dirty_blocks.add(seg_no // self.entries_per_block)

    def mark_clean(self, seg_no: int) -> None:
        """Return a segment to the clean pool (after cleaning)."""
        seg = self.get(seg_no)
        if seg.quarantined:
            raise InvalidOperationError(
                f"segment {seg_no} is quarantined and cannot rejoin the clean pool"
            )
        seg.live_bytes = 0
        self._set_clean(seg, True)
        self._dirty_blocks.add(self.block_of(seg_no))

    def mark_in_use(self, seg_no: int) -> None:
        """Take a clean segment as the current log tail."""
        seg = self.get(seg_no)
        if seg.quarantined:
            raise InvalidOperationError(
                f"segment {seg_no} is quarantined and cannot take log traffic"
            )
        self._set_clean(seg, False)
        self._dirty_blocks.add(self.block_of(seg_no))

    def quarantine(self, seg_no: int) -> None:
        """Permanently retire a segment after an unrecoverable media error.

        The segment leaves both the clean pool and the cleaner's candidate
        set; whatever live bytes it still claimed are gone (the rescuer
        re-appends surviving blocks before calling this). Persisted in the
        on-disk entry, so the verdict survives checkpoints and remounts.
        """
        seg = self.get(seg_no)
        seg.live_bytes = 0
        self._set_clean(seg, False)
        seg.quarantined = True
        self._dirty_blocks.add(self.block_of(seg_no))

    # ------------------------------------------------------------------
    # queries used by the allocator and cleaner

    def clean_segments(self) -> list[int]:
        """Segment numbers currently clean, ascending."""
        return [i for i, s in enumerate(self._segments) if s.clean]

    def dirty_segments(self) -> list[int]:
        """Segments holding (possibly zero) live data from the log.

        Quarantined segments are excluded: they are neither clean nor
        cleanable, and nothing should ever schedule work against them.
        """
        return [
            i for i, s in enumerate(self._segments) if not s.clean and not s.quarantined
        ]

    def quarantined_segments(self) -> list[int]:
        """Segments retired by media errors, ascending."""
        return [i for i, s in enumerate(self._segments) if s.quarantined]

    def total_live_bytes(self) -> int:
        """Live bytes across the whole segment area."""
        return sum(s.live_bytes for s in self._segments)

    def utilization_histogram(self, bins: int = 20) -> list[int]:
        """Histogram of per-segment utilization over non-clean segments."""
        if bins < 1:
            raise InvalidOperationError("bins must be >= 1")
        counts = [0] * bins
        for i, seg in enumerate(self._segments):
            if seg.clean or seg.quarantined:
                continue
            u = self.utilization(i)
            idx = min(bins - 1, int(u * bins))
            counts[idx] += 1
        return counts

    # ------------------------------------------------------------------
    # block (de)serialization

    def dirty_block_indexes(self) -> list[int]:
        """Usage-table blocks modified since last written, ascending."""
        return sorted(self._dirty_blocks)

    def clear_dirty(self, block_index: int) -> None:
        """Mark one table block clean."""
        self._dirty_blocks.discard(block_index)

    def mark_dirty(self, block_index: int) -> None:
        """Queue one block for the next checkpoint again."""
        self._dirty_blocks.add(block_index)

    def mark_all_dirty(self) -> None:
        """Force every table block dirty (used by recovery)."""
        self._dirty_blocks.update(range(self.num_blocks))

    def pack_block(self, block_index: int, block_size: int) -> bytes:
        """Serialize usage-table block ``block_index``."""
        if block_index < 0 or block_index >= self.num_blocks:
            raise InvalidOperationError(f"usage block {block_index} out of range")
        count = self.entries_per_block
        first = block_index * count
        fields: list = []
        for seg in self._segments[first : first + count]:
            flags = _FLAG_QUARANTINED if seg.quarantined else 0
            fields += (seg.live_bytes, seg.last_write, flags)
        fields += _UNUSED * (count - len(fields) // 3)
        return table_block(_ENTRY_FORMAT, count, block_size).pack(*fields)

    def load_block(self, block_index: int, payload: bytes) -> None:
        """Replace usage-table block ``block_index`` from on-disk bytes.

        A segment with zero live bytes on disk is *not* necessarily clean:
        the mount path decides cleanliness after roll-forward. Here we mark
        any segment with live bytes as in-log and leave empties clean.
        """
        if block_index < 0 or block_index >= self.num_blocks:
            raise InvalidOperationError(f"usage block {block_index} out of range")
        first = block_index * self.entries_per_block
        count = min(self.entries_per_block, self.num_segments - first)
        require(
            len(payload) >= count * SEG_USAGE_ENTRY_SIZE,
            "segment usage block truncated",
        )
        for i in range(count):
            live, last, flags = _ENTRY.unpack_from(payload, i * SEG_USAGE_ENTRY_SIZE)
            seg = self._segments[first + i]
            seg.live_bytes = live
            seg.last_write = last
            seg.quarantined = bool(flags & _FLAG_QUARANTINED)
            self._set_clean(seg, live == 0 and not seg.quarantined)
