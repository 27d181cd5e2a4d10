"""Tests for the segment cleaner: mechanism, policies, and safety."""

import pytest

from repro.core.config import CleaningPolicy
from repro.core.constants import NULL_ADDR, BlockKind
from repro.core.filesystem import LFS
from repro.core.summary import SegmentWrite, SummaryEntry, walk_segment
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry

from tests.conftest import small_config


def churn_fs(policy=CleaningPolicy.COST_BENEFIT, num_blocks=4096, rounds=8, nfiles=80):
    """Build a small FS and churn it until cleaning has happened."""
    disk = Disk(DiskGeometry.wren4(num_blocks=num_blocks))
    fs = LFS.format(disk, small_config(cleaning_policy=policy))
    data = {}
    for r in range(rounds):
        for i in range(nfiles):
            path = f"/f{i}"
            payload = bytes([(r * 13 + i) % 256]) * 9000
            fs.write_file(path, payload)
            data[path] = payload
        for i in range(0, nfiles, 4):
            p = f"/f{i}"
            if fs.exists(p):
                fs.unlink(p)
                data.pop(p, None)
    return fs, data


class TestCleaningPreservesData:
    @pytest.mark.parametrize("policy", [CleaningPolicy.GREEDY, CleaningPolicy.COST_BENEFIT])
    def test_no_data_lost(self, policy):
        fs, data = churn_fs(policy=policy, rounds=10)
        fs.clean_now()
        for path, payload in data.items():
            assert fs.read(path) == payload, path

    def test_cleaning_actually_ran(self):
        fs, _ = churn_fs(rounds=12)
        fs.clean_now(fs.usage.clean_count + 2)
        assert fs.cleaner.stats.segments_cleaned > 0

    def test_cleaned_segments_become_clean(self, fs):
        for i in range(60):
            fs.write_file(f"/f{i}", b"z" * 8000)
        for i in range(60):
            fs.unlink(f"/f{i}")
        fs.checkpoint()
        before = fs.usage.clean_count
        fs.clean_now(before + 4)
        assert fs.usage.clean_count > before

    def test_empty_segments_cleaned_without_reading(self, fs):
        """Segments with u = 0 'need not be read at all' (Section 3.4)."""
        for i in range(60):
            fs.write_file(f"/f{i}", b"z" * 8000)
        fs.checkpoint()
        for i in range(60):
            fs.unlink(f"/f{i}")
        fs.checkpoint()
        reads_before = fs.cleaner.stats.blocks_read
        fs.clean_now(fs.usage.clean_count + 3)
        stats = fs.cleaner.stats
        assert stats.empty_segments_cleaned > 0
        assert stats.blocks_read == reads_before  # empties were free


class TestPolicySelection:
    def test_greedy_picks_least_utilized(self, fs):
        fs.config.cleaning_policy = CleaningPolicy.GREEDY
        # build three segments with different utilizations
        for i in range(90):
            fs.write_file(f"/f{i}", b"q" * 8000)
        fs.checkpoint()
        for i in range(0, 90, 2):
            fs.unlink(f"/f{i}")
        fs.checkpoint()
        victims = fs.cleaner.select_segments(3)
        utils = [fs.usage.utilization(v) for v in victims]
        all_utils = sorted(
            fs.usage.utilization(s)
            for s in fs.usage.dirty_segments()
            if s not in (fs.writer.current_segment, fs.writer.next_segment)
        )
        assert utils[0] == pytest.approx(all_utils[0])

    def test_cost_benefit_prefers_old_cold_over_young_equal_u(self, fs):
        """At equal utilization, the older segment has higher benefit."""
        fs.config.cleaning_policy = CleaningPolicy.COST_BENEFIT
        for i in range(40):
            fs.write_file(f"/old{i}", b"o" * 8000)
        fs.checkpoint()
        fs.disk.clock.advance(10000.0)
        for i in range(40):
            fs.write_file(f"/new{i}", b"n" * 8000)
        fs.checkpoint()
        # kill half of each population so both cohorts have dead space
        for i in range(0, 40, 2):
            fs.unlink(f"/old{i}")
            fs.unlink(f"/new{i}")
        fs.checkpoint()
        ranked = fs.cleaner.select_segments(100)
        ages = [fs.disk.clock.now - fs.usage.get(s).last_write for s in ranked]
        # the first-ranked candidates skew old
        assert ages[0] >= max(ages) * 0.5

    def test_selection_excludes_log_head(self, fs):
        fs.write_file("/f", b"x" * 50000)
        victims = fs.cleaner.select_segments(100)
        assert fs.writer.current_segment not in victims
        assert fs.writer.next_segment not in victims

    @staticmethod
    def _stage(fs, segments):
        """Make clean segments dirty with chosen ``seg: live_bytes``, all
        written at the same instant (so equal bytes means equal score)."""
        assert fs.cleaner._candidates() == []
        for seg, live in segments.items():
            assert fs.usage.get(seg).clean
            fs.usage.add_live(seg, live, when=1.0)
        fs.disk.clock.advance(100.0)

    @pytest.mark.parametrize("policy", [CleaningPolicy.GREEDY, CleaningPolicy.COST_BENEFIT])
    def test_equal_utilization_ties_break_by_segment_number(self, fs, policy):
        """Every pinned digest depends on this order."""
        fs.config.cleaning_policy = policy
        self._stage(fs, {30: 4096, 12: 4096, 21: 4096, 17: 8192, 40: 4096})
        assert fs.cleaner.select_segments(3) == [12, 21, 30]
        assert fs.cleaner.select_segments(100) == [12, 21, 30, 40, 17]

    @pytest.mark.parametrize("policy", [CleaningPolicy.GREEDY, CleaningPolicy.COST_BENEFIT])
    def test_quarantined_and_cold_open_segments_never_selected(self, fs, policy):
        fs.config.cleaning_policy = policy
        self._stage(fs, {12: 4096, 21: 8192, 30: 12288})
        fs.usage.quarantine(12)  # would otherwise rank first (and as an empty)
        fs.writer.cold_segment = 21
        assert fs.cleaner.select_segments(100) == [30]

    @pytest.mark.parametrize("policy", [CleaningPolicy.GREEDY, CleaningPolicy.COST_BENEFIT])
    def test_empties_crowd_out_everything_else(self, fs, policy):
        """Any empty candidate means only empties, lowest numbers first."""
        fs.config.cleaning_policy = policy
        self._stage(fs, {40: 0, 11: 4096, 9: 0, 25: 0})
        assert fs.cleaner.select_segments(2) == [9, 25]
        assert fs.cleaner.select_segments(100) == [9, 25, 40]


class TestVersionFastPath:
    def test_deleted_file_blocks_discarded_without_inode_read(self, fs):
        """The uid (version) check discards dead blocks immediately."""
        for i in range(40):
            fs.write_file(f"/f{i}", b"v" * 8000)
        fs.checkpoint()
        for i in range(40):
            fs.unlink(f"/f{i}")
        fs.checkpoint()
        moved_before = fs.cleaner.stats.live_blocks_moved
        fs.clean_now(fs.usage.clean_count + 2)
        # nothing live in those segments: nothing may be moved
        assert fs.cleaner.stats.live_blocks_moved == moved_before


class TestOneLivenessRule:
    @pytest.mark.parametrize("kind", list(BlockKind), ids=lambda k: k.name)
    def test_probe_and_revive_agree_for_every_entry_on_disk(self, fs, kind):
        """``_revive`` requeues a block exactly when ``_entry_live`` calls
        it live — checked against every summary entry of ``kind`` in a log
        holding live and dead copies of every kind of block."""
        bs = fs.config.block_size
        sparse = (10 + bs // 8 + 3) * bs  # past direct + single indirect
        for i in range(6):
            fs.write_file(f"/f{i}", bytes([i + 1]) * 9000)
        fs.create("/big")
        fs.write("/big", b"tail", offset=sparse)  # indirect + double-indirect
        fs.write("/big", b"head" * 4000)
        fs.checkpoint()  # inode-map and usage blocks enter the log
        fs.write_file("/f0", b"rewritten" * 1000)  # dead data + dead inode
        fs.unlink("/f1")  # dead by version
        fs.write("/big", b"TAIL", offset=sparse)  # dead indirect chain
        fs.checkpoint()  # supersedes the first map and usage blocks
        payloads = {}
        entries = []
        for seg in fs.usage.dirty_segments():
            start = fs.layout.segment_start(seg)
            for step in walk_segment(
                fs.disk.peek, fs.disk.peek, start, fs.config.segment_blocks, bs,
                seq_limit=fs.writer.seq,
            ):
                if isinstance(step, SegmentWrite):
                    for i, entry in enumerate(step.summary.entries):
                        addr = start + step.offset + 1 + i
                        payloads[addr] = fs.disk.peek(addr)
                        entries.append((entry, addr))
        if kind == BlockKind.SUMMARY:  # never described by a summary
            entries.append((SummaryEntry(kind=kind), payloads.popitem()[0]))
        of_kind = [(e, a) for e, a in entries if e.kind == kind]
        verdicts = {fs.cleaner._entry_live(e, a) for e, a in of_kind}
        expected = {False} if kind in (BlockKind.DIROP_LOG, BlockKind.SUMMARY) else {True, False}
        assert verdicts == expected, f"log holds no live+dead mix of {kind.name}"
        for entry, addr in of_kind:
            live = fs.cleaner._entry_live(entry, addr)
            assert fs.cleaner._revive(entry, addr, lambda a=addr: payloads[a]) == live
        # requeueing everything live is what a cleaning pass does: no harm
        fs.checkpoint()
        assert fs.read("/f0") == b"rewritten" * 1000
        assert fs.read("/big", offset=sparse) == b"TAIL"
        assert fs.read("/big", length=16000) == b"head" * 4000


class TestWriteCostAccounting:
    def test_write_cost_at_least_one(self, fs):
        fs.write_file("/f", b"x" * 20000)
        fs.sync()
        assert fs.write_cost >= 1.0

    def test_cleaning_increases_write_cost(self):
        fs, _ = churn_fs(rounds=12)
        if fs.cleaner.stats.live_blocks_moved > 0:
            assert fs.write_cost > 1.0

    def test_utilization_tracks_live_data(self, fs):
        fs.write_file("/f", b"x" * 409600)
        fs.sync()
        assert 0.0 < fs.disk_capacity_utilization < 1.0
