"""Online media scrubber: patrol-read the log and verify checksums.

Real disks run periodic "patrol reads" so latent sector errors and silent
bit-rot are found while the redundancy to repair them still exists, not at
the moment the data is needed. This is the LFS equivalent: walk every
in-log segment of a *mounted* file system, re-read each partial write, and
verify it against both the summary's whole-write CRC and the per-block
CRCs carried in the summary entries.

Two kinds of damage are distinguished:

* **unreadable** blocks — the device itself failed the read (a latent
  sector error, surfacing as :class:`~repro.core.errors.MediaError` after
  the device's own retries are exhausted);
* **corrupt** blocks — the read succeeded but the payload no longer
  matches its recorded CRC (silent bit-rot).

Scrub probes the disk directly, *not* through the file system's read
path, so a scrub never burns the mount's media-error budget: finding ten
rotted blocks must not flip a healthy-looking file system read-only. With
``rescue=True`` every damaged segment is handed to the cleaner's
:meth:`~repro.core.cleaner.Cleaner.rescue_segment`, which re-writes the
still-verifiable live blocks to the log head and quarantines the segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.blocks import checksum
from repro.core.errors import MediaError
from repro.core.summary import SegmentGap, walk_segment
from repro.obs.events import SCRUB_SEGMENT


@dataclass
class ScrubReport:
    """Outcome of one scrub pass."""

    segments_scanned: int = 0
    writes_checked: int = 0
    blocks_checked: int = 0
    corrupt_blocks: list[int] = field(default_factory=list)
    corrupt_summaries: list[int] = field(default_factory=list)
    unreadable_blocks: list[int] = field(default_factory=list)
    sick_segments: list[int] = field(default_factory=list)
    segments_quarantined: list[int] = field(default_factory=list)
    blocks_rescued: int = 0
    blocks_lost: int = 0

    @property
    def clean(self) -> bool:
        """True when the scrub found no damage at all."""
        return not (
            self.corrupt_blocks or self.corrupt_summaries or self.unreadable_blocks
        )

    def to_dict(self) -> dict:
        return {
            "clean": self.clean,
            "segments_scanned": self.segments_scanned,
            "writes_checked": self.writes_checked,
            "blocks_checked": self.blocks_checked,
            "corrupt_blocks": list(self.corrupt_blocks),
            "corrupt_summaries": list(self.corrupt_summaries),
            "unreadable_blocks": list(self.unreadable_blocks),
            "sick_segments": list(self.sick_segments),
            "segments_quarantined": list(self.segments_quarantined),
            "blocks_rescued": self.blocks_rescued,
            "blocks_lost": self.blocks_lost,
        }

    def render(self) -> str:
        lines = [
            f"scrub: {'clean' if self.clean else 'DAMAGED'} "
            f"({self.segments_scanned} segments, {self.writes_checked} writes, "
            f"{self.blocks_checked} blocks checked)"
        ]
        for addr in self.unreadable_blocks:
            lines.append(f"  unreadable: block {addr} (latent sector error)")
        for addr in self.corrupt_blocks:
            lines.append(f"  corrupt: block {addr} fails its recorded CRC")
        for addr in self.corrupt_summaries:
            lines.append(f"  corrupt: summary at {addr} disowns its write")
        if self.segments_quarantined:
            lines.append(
                f"  rescue: quarantined segments {self.segments_quarantined}, "
                f"{self.blocks_rescued} live blocks rescued, "
                f"{self.blocks_lost} lost"
            )
        elif self.sick_segments:
            lines.append(
                f"  sick segments: {self.sick_segments} (re-run with rescue "
                f"to salvage and quarantine)"
            )
        return "\n".join(lines)


def _scrub_segment(fs, seg_no: int, report: ScrubReport) -> bool:
    """Check one segment's partial writes; returns True if damage was found."""
    bs = fs.config.block_size
    seg_blocks = fs.config.segment_blocks
    start = fs.layout.segment_start(seg_no)
    damaged = False
    blocks_here = 0
    bad_before = len(report.corrupt_blocks) + len(report.unreadable_blocks) + len(
        report.corrupt_summaries
    )

    def probe(addr: int) -> bytes | None:
        """Real device read (so latent sectors surface), None on failure."""
        nonlocal damaged
        try:
            return fs.disk.read_block(addr)
        except MediaError:
            report.unreadable_blocks.append(addr)
            damaged = True
            return None

    def sink_sweep(lo_off: int, hi_off: int) -> None:
        """Per-block verification against the writer's in-memory CRC index,
        for regions whose on-disk summary (and with it the recorded CRCs)
        was lost. The index is authoritative for anything written this
        mount; blocks without an entry stay unverifiable."""
        nonlocal damaged
        for off in range(lo_off, hi_off):
            addr = start + off
            expected = fs.writer.block_crcs.get(addr)
            if (
                expected
                and checksum([fs.disk.peek(addr)]) != expected
                and addr not in report.corrupt_blocks
                and addr not in report.corrupt_summaries
            ):
                report.corrupt_blocks.append(addr)
                damaged = True

    peek = fs.disk.peek
    # Discover the walk via peek: parsing must work even when the summary's
    # sector is unreadable, and discovery itself is free.
    for step in walk_segment(peek, peek, start, seg_blocks, bs, seq_limit=fs.writer.seq):
        if isinstance(step, SegmentGap):
            offset, resume = step.offset, step.resume
            # A resume point proves rot ate this summary block. Without
            # one the log ends here — unless the in-memory CRC index says
            # a summary was written here, in which case rot ate the *last*
            # write's summary (only this check can tell). Either way the
            # index can still vouch for the payloads no summary covers.
            expected = fs.writer.block_crcs.get(start + offset)
            if resume is not None or (expected and checksum([peek(start + offset)]) != expected):
                report.corrupt_summaries.append(start + offset)
                damaged = True
            sink_sweep(offset + 1, resume if resume is not None else seg_blocks)
            continue
        offset, _, summary = step
        report.writes_checked += 1
        blocks_here += 1 + len(summary.entries)
        raw = probe(start + offset)
        expected = fs.writer.block_crcs.get(start + offset)
        summary_bad = bool(
            raw is not None and expected and checksum([raw]) != expected
        )
        if summary_bad:
            # The summary still parses but is not the one the log wrote
            # (rot in the header/entry area that spared the magic).
            report.corrupt_summaries.append(start + offset)
            damaged = True
        payloads = []
        entry_damage = False
        for i, entry in enumerate(summary.entries):
            addr = start + offset + 1 + i
            payload = probe(addr)
            if payload is None:
                payload = fs.disk.peek(addr)  # still needed for the walk
                entry_damage = True
            elif entry.block_crc and checksum([payload]) != entry.block_crc:
                report.corrupt_blocks.append(addr)
                damaged = entry_damage = True
            payloads.append(payload)
        if not entry_damage and not summary_bad and not summary.verify(payloads):
            # Every payload matches its own CRC but the write as a whole
            # does not: the summary block itself is the rotted one.
            report.corrupt_summaries.append(start + offset)
            damaged = True

    report.blocks_checked += blocks_here
    if fs.obs is not None:
        bad_now = len(report.corrupt_blocks) + len(report.unreadable_blocks) + len(
            report.corrupt_summaries
        )
        fs.obs.emit(
            SCRUB_SEGMENT, segment=seg_no, blocks=blocks_here, bad=bad_now - bad_before
        )
    return damaged


def scrub_filesystem(fs, *, rescue: bool = False) -> ScrubReport:
    """Scrub every in-log segment of a mounted file system.

    Clean and quarantined segments are skipped: the former hold no
    current-epoch writes (stale bytes there are dead by definition) and
    the latter are already retired. With ``rescue=True`` each damaged
    segment is salvaged and quarantined on the spot — except the writer's
    active tail and its reserved successor, which cannot be retired while
    the log is running through them (they are reported and left in place).
    """
    fs._require_mounted()
    report = ScrubReport()
    with fs._span("scrub", rescue=rescue):
        for seg_no in fs.usage.dirty_segments():
            report.segments_scanned += 1
            if not _scrub_segment(fs, seg_no, report):
                continue
            report.sick_segments.append(seg_no)
            if rescue and not (
                seg_no == fs.writer.current_segment or seg_no == fs.writer.next_segment
            ):
                rescued, lost = fs.cleaner.rescue_segment(seg_no)
                report.segments_quarantined.append(seg_no)
                report.blocks_rescued += rescued
                report.blocks_lost += lost
    return report
