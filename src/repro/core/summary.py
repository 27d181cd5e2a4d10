"""Segment summary blocks (Section 3.2).

Each partial-segment write is led by a summary block identifying every
block in the write: its kind, owning file, position within the file, and
the file's uid version. Summaries serve the cleaner (liveness without a
bitmap) and roll-forward (finding recently written inodes). A CRC over the
described payloads makes a torn partial write self-invalidating.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
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
# alone cannot see. Every summary is checked against it, whatever it reads.
_HEADER = struct.Struct("<IIQdIIdQ")
assert _HEADER.size == SUMMARY_HEADER_SIZE
_SELF_CRC = struct.Struct("<I")
_SELF_CRC_AT = 4
_NO_CRC = bytes(_SELF_CRC.size)

# kind, pad, block_crc, inum, offset, version — the per-block CRC lives in
# what used to be pad bytes, so the entry (and the whole summary) keeps its
# size and the log's timing is untouched by read-path integrity checking.
_ENTRY = struct.Struct("<B3xIQQQ")
assert _ENTRY.size == SUMMARY_ENTRY_SIZE


def summary_capacity(block_size: int) -> int:
    """Maximum blocks one summary block can describe."""
    return (block_size - SUMMARY_HEADER_SIZE) // SUMMARY_ENTRY_SIZE


class SummaryEntry(NamedTuple):
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


# ``pack`` and ``unpack`` build their entries with
# ``tuple.__new__(SummaryEntry, fields)``: the same tuple as the
# constructor's, without its Python-level call (once per block moved).

#: on-disk kind byte -> kind; a byte missing here is corruption
_KINDS = {int(k): k for k in BlockKind}


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
        """Serialize the summary, computing the CRC over ``payloads``.

        Fills ``crc`` and replaces ``entries`` with copies carrying each
        payload's ``block_crc``. One buffer, written in place: entries,
        then the header, then the self-CRC over the finished block with
        its own field still zero. The whole-write CRC is one ``crc32``
        over the joined payloads, the value a chain of per-payload calls
        gives.
        """
        entries = self.entries
        n = len(entries)
        if len(payloads) != n:
            raise InvalidOperationError(f"{n} entries describe {len(payloads)} payloads")
        if n > summary_capacity(block_size):
            raise InvalidOperationError(
                f"{n} entries exceed summary capacity {summary_capacity(block_size)}"
            )
        crc32 = zlib.crc32
        pack_entry = _ENTRY.pack_into
        new = tuple.__new__
        block = bytearray(block_size)
        stamped = []
        pos = SUMMARY_HEADER_SIZE
        for (kind, inum, offset, version, _), payload in zip(entries, payloads):
            block_crc = crc32(payload)
            pack_entry(block, pos, kind, block_crc, inum, offset, version)
            stamped.append(new(SummaryEntry, (kind, inum, offset, version, block_crc)))
            pos += SUMMARY_ENTRY_SIZE
        total = crc32(b"".join(payloads))
        self.crc = total
        self.entries = stamped
        _HEADER.pack_into(
            block,
            0,
            SUMMARY_MAGIC,
            0,
            self.seq,
            self.write_time,
            n,
            total,
            self.youngest_mtime,
            self.next_segment,
        )
        _SELF_CRC.pack_into(block, _SELF_CRC_AT, crc32(block))
        return bytes(block)

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
        view = memoryview(payload)
        # the CRC of the block with its own field zeroed, chained so the
        # block is never copied
        zeroed = zlib.crc32(view[:_SELF_CRC_AT])
        zeroed = zlib.crc32(_NO_CRC, zeroed)
        zeroed = zlib.crc32(view[_SELF_CRC_AT + _SELF_CRC.size :], zeroed)
        require(
            zeroed == self_crc,
            "summary block fails its self-CRC (bit-rot inside the summary)",
        )
        require(0 <= nentries <= summary_capacity(block_size), "summary entry count out of range")
        end = SUMMARY_HEADER_SIZE + nentries * SUMMARY_ENTRY_SIZE
        require(len(payload) >= end, "summary entries truncated")
        kinds = _KINDS
        new = tuple.__new__
        try:
            entries = [
                new(SummaryEntry, (kinds[kind], inum, offset, version, block_crc))
                for kind, block_crc, inum, offset, version in _ENTRY.iter_unpack(
                    view[SUMMARY_HEADER_SIZE:end]
                )
            ]
        except KeyError as exc:
            raise CorruptionError(f"bad block kind {exc.args[0]} in summary") from None
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
