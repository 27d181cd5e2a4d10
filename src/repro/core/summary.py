"""Segment summary blocks (Section 3.2).

Each partial-segment write is led by a summary block identifying every
block in the write: its kind, owning file, position within the file, and
the file's uid version. Summaries serve the cleaner (liveness without a
bitmap) and roll-forward (finding recently written inodes). A CRC over the
described payloads makes a torn partial write self-invalidating.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple

from repro.core.blocks import checksum, require
from repro.core.constants import (
    SUMMARY_ENTRY_SIZE,
    SUMMARY_HEADER_SIZE,
    SUMMARY_MAGIC,
    BlockKind,
)
from repro.core.errors import CorruptionError, InvalidOperationError

# magic, self_crc, seq, write_time, nentries, crc, youngest_mtime,
# next_segment — ``self_crc`` covers the whole summary block (with the
# field itself zeroed) and lives in former pad bytes, so the header keeps
# its size. It makes rot *inside* the summary — entry identities, the
# payload CRC, the threading pointer — detectable, which payload CRCs
# alone cannot see. Zero means "unwritten" (pre-CRC images), and such
# summaries are accepted unchecked for backward compatibility.
_HEADER = struct.Struct("<IIQdIIdQ")
assert _HEADER.size == SUMMARY_HEADER_SIZE

# kind, pad, block_crc, inum, offset, version — the per-block CRC lives in
# what used to be pad bytes, so the entry (and the whole summary) keeps its
# size and the log's timing is untouched by read-path integrity checking.
_ENTRY = struct.Struct("<B3xIQQQ")
assert _ENTRY.size == SUMMARY_ENTRY_SIZE


def summary_capacity(block_size: int) -> int:
    """Maximum blocks one summary block can describe."""
    return (block_size - SUMMARY_HEADER_SIZE) // SUMMARY_ENTRY_SIZE


@dataclass(frozen=True)
class SummaryEntry:
    """Identity of one block within a partial-segment write.

    ``offset`` is the block's position within its owning structure: the
    file block number for data, the logical index for indirect blocks, the
    map/table block index for inode-map and usage blocks, zero otherwise.
    ``version`` is the owning file's uid version at write time (zero for
    structures without one). ``block_crc`` is the CRC-32 of the described
    block's payload, letting reads and the scrubber verify each block
    individually (silent bit-rot becomes a detected error).
    """

    kind: BlockKind
    inum: int = 0
    offset: int = 0
    version: int = 0
    block_crc: int = 0

    def pack(self) -> bytes:
        return _ENTRY.pack(
            int(self.kind), self.block_crc, self.inum, self.offset, self.version
        )

    @classmethod
    def unpack(cls, raw: bytes, pos: int) -> "SummaryEntry":
        kind_raw, block_crc, inum, offset, version = _ENTRY.unpack_from(raw, pos)
        try:
            kind = BlockKind(kind_raw)
        except ValueError as exc:
            raise CorruptionError(f"bad block kind {kind_raw} in summary") from exc
        return cls(
            kind=kind, inum=inum, offset=offset, version=version, block_crc=block_crc
        )


@dataclass
class SegmentSummary:
    """A parsed (or to-be-written) segment summary.

    Attributes:
        seq: globally monotonic partial-write sequence number; recovery
            orders partial writes by it.
        write_time: simulated time of the write.
        youngest_mtime: modification time of the youngest block in the
            write (Section 3.6's age estimate for cost-benefit cleaning).
        entries: one per described block, in on-disk order; the described
            blocks immediately follow the summary block.
        crc: CRC-32 over the described payloads (filled by ``pack``).
        next_segment: the segment the log continues into after the current
            one fills — the paper's segment-by-segment threading, which
            lets roll-forward follow the log without scanning the disk.
            ``NO_SEGMENT`` when the writer has no reserved successor.
    """

    seq: int
    write_time: float
    youngest_mtime: float = 0.0
    entries: list[SummaryEntry] = field(default_factory=list)
    crc: int = 0
    next_segment: int = 0xFFFFFFFFFFFFFFFF

    def pack(self, payloads: list[bytes], block_size: int) -> bytes:
        """Serialize the summary, computing the CRC over ``payloads``."""
        if len(payloads) != len(self.entries):
            raise InvalidOperationError(
                f"{len(self.entries)} entries describe {len(payloads)} payloads"
            )
        if len(self.entries) > summary_capacity(block_size):
            raise InvalidOperationError(
                f"{len(self.entries)} entries exceed summary capacity "
                f"{summary_capacity(block_size)}"
            )
        self.crc = checksum(payloads)
        self.entries = [
            replace(e, block_crc=checksum([p]))
            for e, p in zip(self.entries, payloads)
        ]
        body = b"".join(e.pack() for e in self.entries)

        def header(self_crc: int) -> bytes:
            return _HEADER.pack(
                SUMMARY_MAGIC,
                self_crc,
                self.seq,
                self.write_time,
                len(self.entries),
                self.crc,
                self.youngest_mtime,
                self.next_segment,
            )

        # Self-CRC over the final block contents with the field zeroed.
        block = (header(0) + body).ljust(block_size, b"\0")
        return header(checksum([block])) + block[_HEADER.size :]

    @classmethod
    def unpack(cls, payload: bytes, block_size: int) -> "SegmentSummary":
        """Parse a summary block; raises :class:`CorruptionError` if invalid."""
        require(len(payload) >= SUMMARY_HEADER_SIZE, "summary block truncated")
        (
            magic,
            self_crc,
            seq,
            write_time,
            nentries,
            crc,
            youngest,
            next_segment,
        ) = _HEADER.unpack_from(payload, 0)
        require(magic == SUMMARY_MAGIC, "bad summary magic")
        if self_crc:
            zeroed = payload[:4] + b"\0\0\0\0" + payload[8:]
            require(
                checksum([zeroed]) == self_crc,
                "summary block fails its self-CRC (bit-rot inside the summary)",
            )
        require(0 <= nentries <= summary_capacity(block_size), "summary entry count out of range")
        entries = []
        pos = SUMMARY_HEADER_SIZE
        require(
            len(payload) >= SUMMARY_HEADER_SIZE + nentries * SUMMARY_ENTRY_SIZE,
            "summary entries truncated",
        )
        for _ in range(nentries):
            entries.append(SummaryEntry.unpack(payload, pos))
            pos += SUMMARY_ENTRY_SIZE
        return cls(
            seq=seq,
            write_time=write_time,
            youngest_mtime=youngest,
            entries=entries,
            crc=crc,
            next_segment=next_segment,
        )

    def verify(self, payloads: list[bytes]) -> bool:
        """True if ``payloads`` match the recorded CRC (torn-write check)."""
        return len(payloads) == len(self.entries) and checksum(payloads) == self.crc


def try_parse_summary(payload: bytes, block_size: int) -> SegmentSummary | None:
    """Parse a block as a summary, returning None when it is not one."""
    try:
        return SegmentSummary.unpack(payload, block_size)
    except CorruptionError:
        return None


class SegmentWrite(NamedTuple):
    """One current-epoch partial write found by :func:`walk_segment`."""

    offset: int  # of the summary block, in blocks from the segment start
    raw: bytes  # the summary block exactly as ``read`` returned it
    summary: SegmentSummary


class SegmentGap(NamedTuple):
    """A position where :func:`walk_segment` found no current-epoch write."""

    offset: int
    resume: int | None  # next current-epoch summary; None = the log ends here
    stale: SegmentSummary | None  # a well-formed summary of an earlier epoch
    beyond: SegmentSummary | None  # a well-formed one at or past ``seq_limit``


def walk_segment(
    read, peek, start: int, seg_blocks: int, block_size: int, *, seq_limit: int | None = None
) -> Iterator[SegmentWrite | SegmentGap]:
    """Walk the current-epoch partial writes of the segment at block
    address ``start``, in log order.

    The epoch rule, written here and nowhere else: starting at offset 0,
    a summary is accepted only if its ``seq`` is strictly above the
    previous write's (sequence numbers are global and never reused, so
    residue from an earlier life of a reused segment always carries a
    lower one), below ``seq_limit`` (mounted callers pass ``writer.seq``;
    the scavenger has no writer and passes nothing), and its extent fits
    the segment. Anything else is a gap. To tell a rotted summary from
    the end of the log, the blocks after a gap are scanned for a summary
    passing the same rule: the walk continues at that ``resume`` offset,
    or is over when there is none.

    ``read(addr) -> bytes | None`` fetches a summary position (None =
    unreadable), once per position, in order, only when the next step is
    asked for; ``peek(addr)`` serves the look-ahead and must be free.
    What a read costs and what a gap means stay with the caller.

    Callers: ``Cleaner._gather_live`` and ``_salvage``,
    ``LFS._index_segment_crcs``, ``recovery._scan_all_segments``,
    ``scrub._scrub_segment``, ``dumplog.dump_segment``. Deliberately not
    among them: ``recovery._collect_partial_writes`` follows a different
    rule (consecutive ``seq`` from the checkpoint, threaded across
    segments by ``next_segment``), and ``tools/lfsck.py`` is the oracle
    the file system is checked against — a checker that shares the
    walker it checks can no longer catch a bug in it.
    """
    offset = 0
    prev_seq = 0

    def current(s: SegmentSummary | None, off: int) -> bool:
        return (
            s is not None
            and s.seq > prev_seq
            and (seq_limit is None or s.seq < seq_limit)
            and off + 1 + len(s.entries) <= seg_blocks
        )

    while offset < seg_blocks:
        raw = read(start + offset)
        summary = try_parse_summary(raw, block_size) if raw is not None else None
        if current(summary, offset):
            yield SegmentWrite(offset, raw, summary)
            prev_seq = summary.seq
            offset += 1 + len(summary.entries)
            continue
        ahead = range(offset + 1, seg_blocks)
        resume = next(
            (o for o in ahead if current(try_parse_summary(peek(start + o), block_size), o)), None
        )
        fits = summary is not None and offset + 1 + len(summary.entries) <= seg_blocks
        stale = summary if fits and summary.seq <= prev_seq else None
        # in extent and above prev_seq: only seq_limit can have rejected it
        beyond = summary if fits and stale is None else None
        yield SegmentGap(offset, resume, stale, beyond)
        if resume is None:
            return
        offset = resume
