"""Tests for the segment usage table."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constants import SEG_USAGE_ENTRY_SIZE
from repro.core.errors import InvalidOperationError
from repro.core.seg_usage import SegmentUsageTable


@pytest.fixture
def table():
    return SegmentUsageTable(num_segments=32, segment_bytes=128 * 1024, entries_per_block=170)


class TestAccounting:
    def test_add_and_remove(self, table):
        table.add_live(3, 4096, when=1.0)
        table.add_live(3, 4096, when=2.0)
        table.remove_live(3, 4096)
        assert table.get(3).live_bytes == 4096
        assert table.get(3).last_write == 2.0

    def test_remove_never_negative(self, table):
        table.add_live(1, 100, when=0.0)
        table.remove_live(1, 5000)
        assert table.get(1).live_bytes == 0

    def test_add_marks_in_log(self, table):
        table.add_live(2, 1, when=0.0)
        assert not table.get(2).clean

    def test_last_write_monotonic(self, table):
        table.add_live(4, 1, when=5.0)
        table.add_live(4, 1, when=3.0)
        assert table.get(4).last_write == 5.0

    def test_utilization(self, table):
        table.add_live(0, 64 * 1024, when=0.0)
        assert table.utilization(0) == pytest.approx(0.5)

    def test_out_of_range(self, table):
        with pytest.raises(InvalidOperationError):
            table.get(32)


class TestCleanliness:
    def test_initially_all_clean(self, table):
        assert table.clean_count == 32

    def test_mark_in_use_and_clean(self, table):
        table.mark_in_use(5)
        assert table.clean_count == 31
        assert 5 in table.dirty_segments()
        table.mark_clean(5)
        assert table.clean_count == 32

    def test_mark_clean_zeroes_live(self, table):
        table.add_live(5, 999, when=0.0)
        table.mark_clean(5)
        assert table.get(5).live_bytes == 0

    def test_clean_segments_sorted(self, table):
        table.mark_in_use(0)
        table.mark_in_use(7)
        clean = table.clean_segments()
        assert clean == sorted(clean)
        assert 0 not in clean and 7 not in clean

    def test_total_live_bytes(self, table):
        table.add_live(0, 100, when=0.0)
        table.add_live(9, 200, when=0.0)
        assert table.total_live_bytes() == 300


class TestHistogram:
    def test_histogram_counts_dirty_only(self, table):
        table.add_live(0, 128 * 1024, when=0.0)  # u = 1.0
        table.add_live(1, 64 * 1024, when=0.0)  # u = 0.5
        hist = table.utilization_histogram(bins=4)
        assert sum(hist) == 2
        assert hist[3] == 1  # the full one
        assert hist[2] == 1  # the half one

    def test_histogram_rejects_bad_bins(self, table):
        with pytest.raises(InvalidOperationError):
            table.utilization_histogram(bins=0)


class TestSerialization:
    def test_roundtrip(self, table):
        table.add_live(3, 12345, when=9.0)
        payload = table.pack_block(0, 4096)
        other = SegmentUsageTable(32, 128 * 1024, 170)
        other.load_block(0, payload)
        assert other.get(3).live_bytes == 12345
        assert other.get(3).last_write == 9.0
        assert not other.get(3).clean

    def test_load_marks_empty_clean(self, table):
        table.mark_in_use(3)  # dirty but empty
        payload = table.pack_block(0, 4096)
        other = SegmentUsageTable(32, 128 * 1024, 170)
        other.load_block(0, payload)
        assert other.get(3).clean

    def test_dirty_tracking(self, table):
        table.add_live(0, 1, when=0.0)
        assert table.dirty_block_indexes() == [0]
        table.clear_dirty(0)
        assert table.dirty_block_indexes() == []


def per_entry_pack(table, block_index, block_size):
    """The usage block as one ``struct`` call per entry packed it."""
    first = block_index * table.entries_per_block
    parts = []
    for seg_no in range(first, first + table.entries_per_block):
        if seg_no < table.num_segments:
            seg = table.get(seg_no)
            flags = 1 if seg.quarantined else 0
            parts.append(struct.pack("<QdB7x", seg.live_bytes, seg.last_write, flags))
        else:
            parts.append(bytes(SEG_USAGE_ENTRY_SIZE))
    return b"".join(parts).ljust(block_size, b"\0")


class TestOneCallPacking:
    """``pack_block`` packs a whole block with one ``struct`` call; the
    bytes must equal the per-entry packing they replaced."""

    def test_full_partial_and_empty_blocks(self):
        # 12 segments, 5 per block: blocks 0 and 1 full, block 2 holds
        # two segments and three unused slots
        table = SegmentUsageTable(num_segments=12, segment_bytes=4096, entries_per_block=5)
        for seg_no in range(0, 12, 2):
            table.add_live(seg_no, 100 * seg_no + 7, when=seg_no / 7)
        table.quarantine(3)
        table.mark_in_use(11)
        for index in range(table.num_blocks):
            for block_size in (120, 512):  # exact, and a padded tail
                packed = table.pack_block(index, block_size)
                assert packed == per_entry_pack(table, index, block_size), (index, block_size)
                assert len(packed) == block_size

    def test_an_untouched_table_packs_zeros(self, table):
        assert table.pack_block(0, 4096) == bytes(4096)


class TestCleanCount:
    """``clean_count`` is a running count; it must equal a scan at every instant."""

    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(
                    ("add_live", "remove_live", "mark_clean", "mark_in_use", "quarantine",
                     "load_block")
                ),
                st.integers(min_value=0, max_value=11),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=80,
        )
    )
    def test_count_matches_scan_after_every_step(self, steps):
        # 12 segments over 3 table blocks, so load_block replaces a part
        table = SegmentUsageTable(num_segments=12, segment_bytes=4096, entries_per_block=5)
        other = SegmentUsageTable(num_segments=12, segment_bytes=4096, entries_per_block=5)
        for op, seg, n in steps:
            if op == "add_live":
                table.add_live(seg, n * 512, when=float(n))
            elif op == "remove_live":
                table.remove_live(seg, n * 512)
            elif op in ("mark_clean", "mark_in_use"):
                if table.get(seg).quarantined:
                    with pytest.raises(InvalidOperationError):
                        getattr(table, op)(seg)
                else:
                    getattr(table, op)(seg)
            elif op == "quarantine":
                table.quarantine(seg)
            else:
                # what a mount does: flags assigned from another table's bytes
                block = n % table.num_blocks
                other.load_block(block, table.pack_block(block, 512))
                assert other.clean_count == len(other.clean_segments())
                table, other = other, table
            assert table.clean_count == len(table.clean_segments())

    def test_quarantine_of_a_clean_segment_leaves_the_pool(self, table):
        table.quarantine(7)
        assert table.clean_count == 31 == len(table.clean_segments())
        table.quarantine(7)
        assert table.clean_count == 31

    def test_repeated_edges_count_once(self, table):
        table.mark_in_use(2)
        table.add_live(2, 10, when=0.0)
        table.mark_in_use(2)
        assert table.clean_count == 31
        table.mark_clean(2)
        table.mark_clean(2)
        assert table.clean_count == 32

    def test_load_block_recounts_from_disk_flags(self, table):
        table.add_live(1, 10, when=0.0)
        table.quarantine(4)
        table.mark_in_use(9)  # dirty but empty: loads back as clean
        other = SegmentUsageTable(32, 128 * 1024, 170)
        other.mark_in_use(20)  # overwritten by the load
        other.load_block(0, table.pack_block(0, 4096))
        assert other.clean_count == 30 == len(other.clean_segments())
