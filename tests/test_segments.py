"""Tests for the log writer (partial-segment writes, threading, reserve)."""

import pytest

from repro.core.config import LFSConfig, compute_layout
from repro.core.constants import NO_SEGMENT, BlockKind
from repro.core.errors import InvalidOperationError, NoSpaceError
from repro.core.seg_usage import SegmentUsageTable
from repro.core.segments import LogItem, LogWriter
from repro.core.summary import SegmentSummary, summary_capacity
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry


@pytest.fixture
def env():
    cfg = LFSConfig(
        max_inodes=256,
        segment_bytes=32 * 1024,  # 8 blocks per segment
        reserved_segments=2,
        clean_low_water=2,
        clean_high_water=3,
    )
    disk = Disk(DiskGeometry.wren4(num_blocks=2048))
    layout = compute_layout(cfg, 2048)
    usage = SegmentUsageTable(layout.num_segments, cfg.segment_bytes, cfg.seg_usage_entries_per_block)
    writer = LogWriter(disk, cfg, layout, usage)
    return cfg, disk, layout, usage, writer


def items(n, kind=BlockKind.DATA, payload=b"p"):
    placed = []
    out = [
        LogItem(
            kind=kind,
            inum=i + 1,
            offset=0,
            payload=payload * 4096,
            on_placed=lambda item, addr: placed.append((item.inum - 1, addr)),
        )
        for i in range(n)
    ]
    return out, placed


class TestAppend:
    def test_single_write_layout(self, env):
        cfg, disk, layout, usage, writer = env
        its, placed = items(3)
        writes = writer.append(its)
        assert writes == 1
        # summary at segment start, items after it
        seg_start = layout.segment_start(writer.current_segment)
        assert [addr for _, addr in placed] == [seg_start + 1, seg_start + 2, seg_start + 3]
        summary = SegmentSummary.unpack(disk.peek(seg_start), cfg.block_size)
        assert len(summary.entries) == 3
        assert summary.verify([disk.peek(seg_start + i) for i in (1, 2, 3)])

    def test_on_placed_runs_before_payload(self, env):
        """Item payloads may depend on where earlier items landed."""
        cfg, disk, layout, usage, writer = env
        seen = {}

        def place_a(item, addr):
            seen["a"] = addr

        def payload_b():
            return str(seen["a"]).encode().ljust(4096, b"\0")

        a = LogItem(kind=BlockKind.DATA, inum=1, payload=b"A" * 4096, on_placed=place_a)
        b = LogItem(kind=BlockKind.INODE, inum=2, get_payload=payload_b)
        writer.append([a, b])
        seg_start = layout.segment_start(writer.current_segment)
        assert disk.peek(seg_start + 2).rstrip(b"\0") == str(seen["a"]).encode()

    def test_spans_segments(self, env):
        cfg, disk, layout, usage, writer = env
        its, placed = items(20)  # > 7 usable blocks per segment
        writer.append(its)
        segs = {layout.segment_of(addr) for _, addr in placed}
        assert len(segs) >= 3
        assert len(placed) == 20

    def test_sequence_numbers_increment(self, env):
        cfg, disk, layout, usage, writer = env
        writer.append(items(2)[0])
        s1 = writer.seq
        writer.append(items(2)[0])
        assert writer.seq == s1 + 1

    def test_empty_append_is_noop(self, env):
        cfg, disk, layout, usage, writer = env
        assert writer.append([]) == 0
        assert writer.seq == 1

    def test_stats_by_kind(self, env):
        cfg, disk, layout, usage, writer = env
        writer.append(items(2, kind=BlockKind.DATA)[0])
        writer.append(items(1, kind=BlockKind.INODE)[0])
        assert writer.stats.blocks_by_kind[BlockKind.DATA] == 2
        assert writer.stats.blocks_by_kind[BlockKind.INODE] == 1
        assert writer.stats.blocks_by_kind[BlockKind.SUMMARY] == 2

    def test_cleaning_flag_counts(self, env):
        cfg, disk, layout, usage, writer = env
        writer.append(items(2)[0], cleaning=True)
        assert writer.stats.cleaner_blocks == 3  # 2 items + summary

    def test_mixed_kinds_across_writes_counted_per_item(self, env):
        cfg, disk, layout, usage, writer = env
        kinds = [BlockKind.DIROP_LOG, BlockKind.DATA, BlockKind.DATA, BlockKind.INDIRECT]
        kinds += [BlockKind.DATA] * 9 + [BlockKind.DINDIRECT, BlockKind.INODE, BlockKind.INODE]
        kinds += [BlockKind.INODE_MAP, BlockKind.SEG_USAGE, BlockKind.DATA]
        batch = [
            LogItem(kind=k, inum=i + 1, payload=bytes([i]) * 4096) for i, k in enumerate(kinds)
        ]
        writes = writer.append(batch[:5]) + writer.append(batch[5:])
        assert writes >= 4  # 7 items per partial write in these tiny segments
        expected = {BlockKind.SUMMARY: writes}
        for k in kinds:
            expected[k] = expected.get(k, 0) + 1
        assert writer.stats.blocks_by_kind == expected
        assert writer.stats.total_blocks == len(kinds) + writes
        assert writer.stats.partial_writes == writes

    def test_item_without_payload_source_is_refused(self, env):
        cfg, disk, layout, usage, writer = env
        placed = []
        good = LogItem(
            kind=BlockKind.DATA,
            inum=1,
            payload=b"g" * 4096,
            on_placed=lambda item, addr: placed.append(addr),
        )
        forgot = LogItem(kind=BlockKind.INODE, inum=2)  # neither payload nor get_payload
        with pytest.raises(InvalidOperationError, match="INODE"):
            writer.append([good, forgot])
        # refused before anything was placed or written
        assert placed == []
        assert writer.seq == 1 and writer.stats.total_blocks == 0
        assert disk.stats.writes == 0


class TestThreading:
    def test_summary_records_next_segment(self, env):
        cfg, disk, layout, usage, writer = env
        writer.append(items(1)[0])
        seg_start = layout.segment_start(writer.current_segment)
        summary = SegmentSummary.unpack(disk.peek(seg_start), cfg.block_size)
        assert summary.next_segment == writer.next_segment

    def test_next_segment_reserved_and_in_use(self, env):
        cfg, disk, layout, usage, writer = env
        writer.append(items(1)[0])
        assert writer.next_segment is not None
        assert not usage.get(writer.next_segment).clean

    def test_log_advances_into_reserved_next(self, env):
        cfg, disk, layout, usage, writer = env
        writer.append(items(1)[0])
        promised = writer.next_segment
        writer.append(items(10)[0])  # forces an advance
        assert writer.current_segment == promised or promised is None

    def test_restore_cursor(self, env):
        cfg, disk, layout, usage, writer = env
        writer.restore_cursor(3, 5, 42, 4)
        assert writer.current_segment == 3
        assert writer.offset == 5
        assert writer.seq == 42
        assert writer.next_segment == 4
        assert not usage.get(3).clean
        assert not usage.get(4).clean


class TestReserve:
    def test_normal_traffic_respects_reserve(self, env):
        cfg, disk, layout, usage, writer = env
        # occupy all but reserve+1 segments
        for seg in range(layout.num_segments - cfg.reserved_segments - 1):
            usage.mark_in_use(seg)
        with pytest.raises(NoSpaceError, match="reserve"):
            writer.append(items(40)[0])

    def test_exempt_writer_uses_reserve(self, env):
        cfg, disk, layout, usage, writer = env
        for seg in range(layout.num_segments - cfg.reserved_segments - 1):
            usage.mark_in_use(seg)
        writer.exempt = True
        writer.append(items(10)[0])  # must not raise

    def test_truly_full_raises_even_exempt(self, env):
        cfg, disk, layout, usage, writer = env
        for seg in range(layout.num_segments):
            usage.mark_in_use(seg)
        writer.exempt = True
        with pytest.raises(NoSpaceError):
            writer.append(items(30)[0])


class TestBlocksNeeded:
    def test_zero(self, env):
        assert env[4].blocks_needed(0) == 0

    def test_includes_summaries(self, env):
        cfg, disk, layout, usage, writer = env
        # 7 usable blocks per partial write in these tiny segments
        assert writer.blocks_needed(7) == 8
        assert writer.blocks_needed(14) == 16
