"""Tests for segment summary blocks."""

import pytest

from repro.core.constants import BlockKind
from repro.core.errors import CorruptionError, InvalidOperationError
from repro.core.filesystem import LFS
from repro.core.summary import (
    SegmentGap,
    SegmentSummary,
    SegmentWrite,
    SummaryEntry,
    summary_capacity,
    try_parse_summary,
    walk_segment,
)
from repro.tools import lfsck

from tests.conftest import lay_write, small_config


def make_summary(n=3, seq=10):
    entries = [SummaryEntry(kind=BlockKind.DATA, inum=i + 1, offset=i, version=2) for i in range(n)]
    return SegmentSummary(seq=seq, write_time=1.0, youngest_mtime=0.5, entries=entries,
                          next_segment=7)


class TestPackUnpack:
    def test_roundtrip(self):
        s = make_summary()
        payloads = [b"a" * 4096, b"b" * 4096, b"c" * 4096]
        raw = s.pack(payloads, 4096)
        got = SegmentSummary.unpack(raw, 4096)
        assert got.seq == 10
        assert got.next_segment == 7
        assert got.youngest_mtime == 0.5
        assert [e.inum for e in got.entries] == [1, 2, 3]
        assert got.verify(payloads)

    def test_crc_detects_payload_change(self):
        s = make_summary(1)
        raw = s.pack([b"a" * 4096], 4096)
        got = SegmentSummary.unpack(raw, 4096)
        assert not got.verify([b"b" * 4096])

    def test_crc_detects_missing_payload(self):
        s = make_summary(2)
        raw = s.pack([b"a" * 4096, b"b" * 4096], 4096)
        got = SegmentSummary.unpack(raw, 4096)
        assert not got.verify([b"a" * 4096])

    def test_mismatched_entry_count_rejected(self):
        with pytest.raises(InvalidOperationError):
            make_summary(2).pack([b"a"], 4096)

    def test_capacity_enforced(self):
        cap = summary_capacity(4096)
        s = make_summary(cap + 1)
        with pytest.raises(InvalidOperationError):
            s.pack([b"x"] * (cap + 1), 4096)

    def test_bad_magic_rejected(self):
        raw = bytearray(make_summary().pack([b"", b"", b""], 4096))
        raw[0] = 0
        with pytest.raises(CorruptionError):
            SegmentSummary.unpack(bytes(raw), 4096)

    def test_bad_kind_rejected(self):
        s = make_summary(1)
        raw = bytearray(s.pack([b""], 4096))
        raw[48] = 200  # first entry's kind byte
        with pytest.raises(CorruptionError):
            SegmentSummary.unpack(bytes(raw), 4096)

    def test_zero_entries(self):
        s = SegmentSummary(seq=1, write_time=0.0)
        raw = s.pack([], 4096)
        got = SegmentSummary.unpack(raw, 4096)
        assert got.entries == []

    def test_capacity_value(self):
        assert summary_capacity(4096) == (4096 - 48) // 32
        assert summary_capacity(1024) == (1024 - 48) // 32


class TestTryParse:
    def test_garbage_returns_none(self):
        assert try_parse_summary(b"\x00" * 4096, 4096) is None

    def test_valid_parses(self):
        raw = make_summary(1).pack([b"x" * 4096], 4096)
        assert try_parse_summary(raw, 4096) is not None

    def test_random_data_block_rarely_parses(self):
        # a data block full of text must not look like a summary
        assert try_parse_summary(b"hello world " * 341, 4096) is None


# ----------------------------------------------------------------------
# walk_segment against lfsck's independent walk


def lfsck_walk(disk, start, seg_blocks, bs):
    """``(offset, seq)`` of every write lfsck's own segment walk accepts
    (section 6 of ``check_filesystem``, with its own look-ahead helper)."""
    out, offset, prev_seq = [], 0, 0
    while offset < seg_blocks:
        summary = try_parse_summary(disk.peek(start + offset), bs)
        if (
            summary is None
            or summary.seq <= prev_seq
            or offset + 1 + len(summary.entries) > seg_blocks
        ):
            resume = lfsck._next_summary_offset(
                disk.peek, start, offset, seg_blocks, prev_seq, bs
            )
            if resume is None:
                break
            offset = resume
            continue
        out.append((offset, summary.seq))
        prev_seq = summary.seq
        offset += 1 + len(summary.entries)
    return out


class Walk:
    """Run the walker over one on-disk segment, recording every ``read``."""

    def __init__(self, disk, start, seg_blocks, bs, *, seq_limit=None, unreadable=()):
        self.reads = []

        def read(addr):
            self.reads.append(addr - start)
            return None if addr - start in unreadable else disk.peek(addr)

        self.steps = list(
            walk_segment(read, disk.peek, start, seg_blocks, bs, seq_limit=seq_limit)
        )
        self.writes = [
            (s.offset, s.summary.seq) for s in self.steps if isinstance(s, SegmentWrite)
        ]
        self.gaps = [s for s in self.steps if isinstance(s, SegmentGap)]


@pytest.fixture
def image(disk):
    """A formatted disk plus the geometry of one untouched segment."""
    fs = LFS.format(disk, small_config())
    seg_blocks = fs.config.segment_blocks
    start = fs.layout.segment_start(fs.layout.num_segments - 1)
    return disk, start, seg_blocks, fs.config.block_size


def lay_chain(disk, start, bs, seqs_and_sizes, offset=0):
    offsets = []
    for seq, n in seqs_and_sizes:
        offsets.append(offset)
        offset = lay_write(disk, start, offset, seq, n, bs)
    return offsets, offset


class TestWalkSegment:
    def assert_matches_oracle(self, walk, disk, start, seg_blocks, bs):
        assert walk.writes == lfsck_walk(disk, start, seg_blocks, bs)
        # one read per summary position (each accepted write, each gap),
        # in log order, and never one for the look-ahead
        assert walk.reads == [s.offset for s in walk.steps]
        assert walk.reads == sorted(set(walk.reads))

    def test_full_segment(self, image):
        disk, start, seg_blocks, bs = image
        # two writes that use every block: the walk ends without a gap
        half = seg_blocks // 2
        offsets, end = lay_chain(disk, start, bs, [(5, half - 1), (6, seg_blocks - half - 1)])
        assert end == seg_blocks
        walk = Walk(disk, start, seg_blocks, bs)
        assert walk.writes == [(offsets[0], 5), (offsets[1], 6)]
        assert walk.gaps == []
        self.assert_matches_oracle(walk, disk, start, seg_blocks, bs)

    def test_partial_tail_from_real_log(self, disk):
        fs = LFS.format(disk, small_config())
        for i in range(12):
            fs.write_file(f"/f{i}", bytes([i]) * 9000)
            fs.sync()
        seg_blocks, bs = fs.config.segment_blocks, fs.config.block_size
        seqs = []
        for seg in fs.usage.dirty_segments():
            start = fs.layout.segment_start(seg)
            walk = Walk(disk, start, seg_blocks, bs, seq_limit=fs.writer.seq)
            self.assert_matches_oracle(walk, disk, start, seg_blocks, bs)
            seqs += [seq for _, seq in walk.writes]
            if seg == fs.writer.current_segment:
                # the log ends at the writer's cursor, nothing to resume at
                assert [(g.offset, g.resume) for g in walk.gaps] == [(fs.writer.offset, None)]
        # every partial write this mount issued is found exactly once
        assert sorted(seqs) == list(range(1, fs.writer.seq))
        assert lfsck.check_filesystem(disk).ok

    def test_reused_segment_stale_residue_ends_the_epoch(self, image):
        disk, start, seg_blocks, bs = image
        # an earlier life of the segment ...
        old_offsets, _ = lay_chain(disk, start, bs, [(3, 4), (4, 4), (5, 4)])
        # ... overwritten by a new epoch that ends exactly where the old
        # seq-5 summary still sits
        _, end = lay_chain(disk, start, bs, [(20, 4), (21, 4)])
        assert end == old_offsets[2]
        walk = Walk(disk, start, seg_blocks, bs)
        assert walk.writes == [(0, 20), (5, 21)]
        (gap,) = walk.gaps
        assert (gap.offset, gap.resume, gap.beyond) == (end, None, None)
        assert gap.stale is not None and gap.stale.seq == 5
        self.assert_matches_oracle(walk, disk, start, seg_blocks, bs)

    def test_rotted_summary_mid_segment_resumes(self, image):
        disk, start, seg_blocks, bs = image
        offsets, _ = lay_chain(disk, start, bs, [(7, 3), (8, 3), (9, 3)])
        disk.corrupt_block(start + offsets[1], b"\xa5" * bs)
        walk = Walk(disk, start, seg_blocks, bs)
        assert walk.writes == [(offsets[0], 7), (offsets[2], 9)]
        assert (walk.gaps[0].offset, walk.gaps[0].resume) == (offsets[1], offsets[2])
        assert walk.gaps[0].stale is None and walk.gaps[0].beyond is None
        self.assert_matches_oracle(walk, disk, start, seg_blocks, bs)

    def test_rotted_last_summary_ends(self, image):
        disk, start, seg_blocks, bs = image
        offsets, _ = lay_chain(disk, start, bs, [(7, 3), (8, 3), (9, 3)])
        disk.corrupt_block(start + offsets[2], b"\xa5" * bs)
        walk = Walk(disk, start, seg_blocks, bs)
        assert walk.writes == [(offsets[0], 7), (offsets[1], 8)]
        assert [(g.offset, g.resume) for g in walk.gaps] == [(offsets[2], None)]
        self.assert_matches_oracle(walk, disk, start, seg_blocks, bs)

    def test_unreadable_summary_block(self, image):
        disk, start, seg_blocks, bs = image
        offsets, _ = lay_chain(disk, start, bs, [(7, 3), (8, 3), (9, 3)])
        # the bytes are intact (peek finds the resume point) but the
        # caller's read fails: the write is a gap, the walk goes on
        walk = Walk(disk, start, seg_blocks, bs, unreadable={offsets[1]})
        assert walk.writes == [(offsets[0], 7), (offsets[2], 9)]
        assert (walk.gaps[0].offset, walk.gaps[0].resume) == (offsets[1], offsets[2])
        assert walk.reads == [s.offset for s in walk.steps]
        # unreadable *last* summary: nothing later to prove rot, so it ends
        walk = Walk(disk, start, seg_blocks, bs, unreadable={offsets[2]})
        assert walk.writes == [(offsets[0], 7), (offsets[1], 8)]
        assert [(g.offset, g.resume) for g in walk.gaps] == [(offsets[2], None)]

    def test_seq_limit_stops_at_a_write_from_beyond(self, image):
        disk, start, seg_blocks, bs = image
        offsets, _ = lay_chain(disk, start, bs, [(7, 3), (8, 3), (9, 3)])
        # without a limit (the scavenger, lfsck) all three are current
        walk = Walk(disk, start, seg_blocks, bs)
        assert [seq for _, seq in walk.writes] == [7, 8, 9]
        self.assert_matches_oracle(walk, disk, start, seg_blocks, bs)
        # a mounted writer at seq 9 has not issued the third one yet
        walk = Walk(disk, start, seg_blocks, bs, seq_limit=9)
        assert walk.writes == [(offsets[0], 7), (offsets[1], 8)]
        (gap,) = walk.gaps
        assert (gap.offset, gap.resume, gap.stale) == (offsets[2], None, None)
        assert gap.beyond is not None and gap.beyond.seq == 9
        assert walk.reads == [s.offset for s in walk.steps]

    def test_overrunning_extent_is_a_gap(self, image):
        disk, start, seg_blocks, bs = image
        lay_write(disk, start, 0, 7, 3, bs)
        # a summary whose described blocks would run off the segment's end
        entries = [SummaryEntry(kind=BlockKind.DATA, inum=1, offset=i) for i in range(8)]
        raw = SegmentSummary(seq=8, write_time=8.0, entries=entries).pack([b""] * 8, bs)
        disk.corrupt_block(start + seg_blocks - 4, raw)
        lay_write(disk, start, 4, 8, seg_blocks - 4 - 4 - 1, bs)
        walk = Walk(disk, start, seg_blocks, bs)
        assert [seq for _, seq in walk.writes] == [7, 8]
        (gap,) = walk.gaps
        assert (gap.offset, gap.resume, gap.stale, gap.beyond) == (seg_blocks - 4, None, None, None)
        self.assert_matches_oracle(walk, disk, start, seg_blocks, bs)
