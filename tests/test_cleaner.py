"""Tests for the segment cleaner: mechanism, policies, and safety."""

import pytest

from repro.core.constants import INODE_SIZE, NULL_ADDR, BlockKind
from repro.core.errors import CorruptionError, MediaError
from repro.core.filesystem import LFS
from repro.core.inode import inode_slot_ids
from repro.core.policy import CleaningPolicy
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

    def test_stale_version_judged_without_reading_the_file(self, fs):
        """A block of an earlier incarnation of a live file is dead by its
        version alone: neither the inode nor an indirect block is read."""
        fs.write_file("/f", b"v" * 8000)
        inum = fs.stat("/f").inum
        fs.checkpoint()
        stale = SummaryEntry(
            kind=BlockKind.DATA, inum=inum, offset=0, version=fs.imap.version_of(inum)
        )
        addr = fs.block_addr(inum, 0)
        fs.write_file("/f", b"w" * 8000)  # truncates to zero: a new version
        fs.checkpoint()
        fs.unmount()
        fs = LFS.mount(fs.disk, fs.config)  # nothing of /f in memory
        assert fs.imap.version_of(inum) == stale.version + 1
        reads = fs.disk.stats.reads
        assert not fs.cleaner._entry_live(stale, addr)
        assert fs.disk.stats.reads == reads
        assert inum not in fs._inodes


def mixed_log(fs) -> int:
    """Fill ``fs``'s log with live and dead copies of every kind of
    block; returns the offset of ``/big``'s double-indirect tail."""
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
    return sparse


def data_entries(fs, seg):
    """``(entry, addr)`` of every DATA summary entry of one segment, in
    log order."""
    start = fs.layout.segment_start(seg)
    return [
        (entry, start + step.offset + 1 + i)
        for step in walk_segment(
            fs.disk.peek, fs.disk.peek, start, fs.config.segment_blocks,
            fs.config.block_size, seq_limit=fs.writer.seq,
        )
        if isinstance(step, SegmentWrite)
        for i, entry in enumerate(step.summary.entries)
        if entry.kind == BlockKind.DATA
    ]


class TestOneLivenessRule:
    @pytest.mark.parametrize("kind", list(BlockKind), ids=lambda k: k.name)
    def test_probe_and_revive_agree_for_every_entry_on_disk(self, fs, kind):
        """``_revive`` requeues a block exactly when ``_entry_live`` calls
        it live — checked against every summary entry of ``kind`` in a log
        holding live and dead copies of every kind of block."""
        bs = fs.config.block_size
        sparse = mixed_log(fs)
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
            assert fs.cleaner._revive(entry, addr, lambda a, e: payloads[a]) == live
        # requeueing everything live is what a cleaning pass does: no harm
        fs.checkpoint()
        assert fs.read("/f0") == b"rewritten" * 1000
        assert fs.read("/big", offset=sparse) == b"TAIL"
        assert fs.read("/big", length=16000) == b"head" * 4000

    @pytest.mark.parametrize("selective", [False, True], ids=["whole-segment", "selective"])
    def test_gather_queues_exactly_the_live_data_entries(self, fs, selective):
        """``_gather_live``'s DATA loop queues a block exactly when
        ``_entry_live`` calls it live, with the block's current bytes,
        in both read modes (flash always reads selectively)."""
        sparse = mixed_log(fs)
        if selective:
            fs.config.selective_read_utilization = 1.0  # every victim is below it
        victims = [s for s in fs.usage.dirty_segments() if s not in fs.writer.open_segments()]
        assert not fs.cache.dirty_count
        seen = dead = 0
        for seg in victims:
            live = {}
            for entry, addr in data_entries(fs, seg):
                if fs.cleaner._entry_live(entry, addr):
                    live[entry.inum, entry.offset] = fs.disk.peek(addr)
                else:
                    dead += 1
            before = set(fs.cache._dirty)
            selective_before = fs.cleaner.stats.selective_segments
            fs.cleaner._gather_live(seg)
            assert set(fs.cache._dirty) - before == set(live), seg
            assert {k: fs.cache.peek(*k).payload for k in live} == live
            assert fs.cleaner.stats.selective_segments - selective_before == selective
            seen += len(live)
        assert seen and dead, "the log holds no live+dead mix of DATA blocks"
        fs.checkpoint()  # the queued survivors move: nothing is lost
        assert fs.read("/f0") == b"rewritten" * 1000
        assert fs.read("/f2") == bytes([3]) * 9000
        assert fs.read("/big", offset=sparse) == b"TAIL"

    @pytest.mark.parametrize("selective", [False, True], ids=["whole-segment", "selective"])
    def test_a_media_error_on_the_second_victim_keeps_the_first_ones_survivors(
        self, selective
    ):
        """The survivors a pass gathered before a ``MediaError`` stay
        queued in the cache: all of the first victim's, and in a
        selective walk every block of the second victim before the
        rotted one (and none after it)."""
        config = small_config(selective_read_utilization=1.0 if selective else 0.0)
        fs = LFS.format(Disk(DiskGeometry.wren4(num_blocks=4096)), config)
        for i in range(60):
            fs.write_file(f"/f{i}", bytes([i]) * 30000)
        for i in range(0, 60, 2):
            fs.write_file(f"/f{i}", bytes([i + 1]) * 30000)
        fs.sync()
        fs.checkpoint()
        first, second = [
            s for s in fs.cleaner.select_segments(fs.config.segments_per_pass)
            if fs.usage.get(s).live_bytes > 0
        ][:2]

        def live(seg):
            return [
                (addr, (e.inum, e.offset))
                for e, addr in data_entries(fs, seg)
                if fs.cleaner._entry_live(e, addr)
            ]

        first_live, second_live = live(first), live(second)
        rot_addr, rot_key = second_live[len(second_live) // 2]
        fs.cache.drop(*rot_key)  # no clean copy to fall back on
        raw = bytearray(fs.disk.peek(rot_addr))
        raw[7] ^= 0x10
        fs.disk.corrupt_block(rot_addr, bytes(raw))
        assert not fs.cache.dirty_count
        fs._in_cleaner = fs.writer.exempt = True
        with pytest.raises(MediaError):
            fs.cleaner._clean_pass([first, second])
        dirty = set(fs.cache._dirty)
        assert {key for _, key in first_live} <= dirty
        assert rot_key not in dirty
        if selective:
            assert {key for addr, key in second_live if addr < rot_addr} <= dirty
            assert not {key for addr, key in second_live if addr > rot_addr} & dirty


class TestReviveInodeBlock:
    FTYPE_AT = 16  # inum and version (8 bytes each) come first in a slot

    @staticmethod
    def mixed_block(fs):
        """An inode block holding live, superseded and freed inodes: its
        address, its payload, and the inums in each group."""
        for name in ("a", "b", "c", "d", "e"):
            fs.write_file(f"/{name}", name.encode() * 100)
        fs.checkpoint()
        # placing a data block re-dirties its inode, so settle once more:
        # this checkpoint writes all six inodes (root too) into one block
        fs.checkpoint()
        inums = {name: fs.stat(f"/{name}").inum for name in "abcde"}
        addr = fs.imap.get(inums["a"]).addr
        assert all(fs.imap.get(i).addr == addr for i in inums.values())
        payload = fs.disk.peek(addr)
        fs.write_file("/b", b"newer")  # superseded: the inode moved on
        fs.unlink("/c")  # freed
        fs.checkpoint()
        fs.checkpoint()
        live = {inums[n] for n in "ade"}
        dead = {inums["b"], inums["c"]}
        slots = [i for i, _ in inode_slot_ids(payload)]
        return addr, payload, live, dead, slots

    def revive(self, fs, addr, payload):
        entry = SummaryEntry(kind=BlockKind.INODE)
        return fs.cleaner._revive(entry, addr, lambda a, e: payload)

    def test_requeues_exactly_the_live_inodes(self, fs):
        addr, payload, live, dead, _ = self.mixed_block(fs)
        assert not fs._dirty_inodes
        assert self.revive(fs, addr, payload)
        assert fs._dirty_inodes == live
        fs.checkpoint()
        assert all(fs.imap.get(i).addr != addr for i in live)
        assert fs.read("/b") == b"newer"
        assert fs.read("/d") == b"d" * 100

    def test_a_corrupt_dead_slot_is_never_parsed(self, fs):
        addr, payload, live, dead, slots = self.mixed_block(fs)
        rotted = bytearray(payload)
        for inum in dead:
            rotted[slots.index(inum) * INODE_SIZE + self.FTYPE_AT] = 0xEE
        assert self.revive(fs, addr, bytes(rotted))
        assert fs._dirty_inodes == live

    def test_a_corrupt_live_slot_still_raises(self, fs):
        addr, payload, live, dead, slots = self.mixed_block(fs)
        rotted = bytearray(payload)
        rotted[slots.index(min(live)) * INODE_SIZE + self.FTYPE_AT] = 0xEE
        with pytest.raises(CorruptionError, match="bad file type"):
            self.revive(fs, addr, bytes(rotted))


class TestSalvageInodeBlocks:
    @staticmethod
    def sick_segment(fs):
        """A closed segment holding live and dead inode blocks next to live
        and dead data, map and usage blocks: its number and its entries."""
        for name in "abcdef":
            fs.write_file(f"/{name}", name.encode() * 100)
        fs.checkpoint()
        fs.checkpoint()
        seg = fs.writer.current_segment
        for name in "ab":
            fs.write_file(f"/{name}", b"newer" + name.encode())
        fs.sync()
        fs.unlink("/c")
        fs.sync()
        fs.write_file("/d", b"d2")
        fs.sync()
        fs.checkpoint()
        assert fs.writer.current_segment == seg
        fs.write_file("/big", b"B" * (40 * fs.config.block_size))
        fs.checkpoint()
        assert fs.writer.current_segment != seg
        start = fs.layout.segment_start(seg)
        entries = [
            (entry, start + step.offset + 1 + i)
            for step in walk_segment(
                fs.disk.peek, fs.disk.peek, start, fs.config.segment_blocks,
                fs.config.block_size, seq_limit=fs.writer.seq,
            )
            if isinstance(step, SegmentWrite)
            for i, entry in enumerate(step.summary.entries)
        ]
        return seg, entries

    def test_lost_live_and_dead_inode_blocks_are_counted_apart(self, fs):
        seg, entries = self.sick_segment(fs)
        live = {addr: fs.cleaner._entry_live(entry, addr) for entry, addr in entries}
        inode_addrs = [a for e, a in entries if e.kind == BlockKind.INODE]
        # the inode verdict is "some inode-map slot points here"
        for addr in inode_addrs:
            assert live[addr] == any(
                fs.imap.get(i).addr == addr for i in fs.imap.allocated_inums()
            )
        live_inodes = [a for a in inode_addrs if live[a]]
        assert len(live_inodes) == 3 and len(inode_addrs) == 5
        for addr in inode_addrs:  # rot every inode block, live or dead
            raw = bytearray(fs.disk.peek(addr))
            raw[5] ^= 0xFF
            fs.disk.corrupt_block(addr, bytes(raw))
        live_others = sum(live[a] for e, a in entries if e.kind != BlockKind.INODE)
        rescued, lost = fs.cleaner.rescue_segment(seg)
        assert (rescued, lost) == (5, 3)
        assert (rescued, lost) == (live_others, len(live_inodes))
        assert fs.usage.get(seg).quarantined
        # the verified live blocks moved: every file still reads back
        assert fs.read("/a") == b"newera"
        assert fs.read("/d") == b"d2"
        assert fs.read("/e") == b"e" * 100


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


class TestAbortedPass:
    def test_a_pass_cut_short_by_rot_records_no_utilizations(self):
        """A media error aborts a pass before any victim is marked clean,
        so none of its victims may stay in Table 2's utilization list."""
        fs = LFS.format(Disk(DiskGeometry.wren4(num_blocks=4096)), small_config())
        for i in range(60):
            fs.write_file(f"/f{i}", bytes([i]) * 30000)
        for i in range(0, 60, 2):
            fs.write_file(f"/f{i}", bytes([i + 1]) * 30000)
        fs.sync()
        fs.checkpoint()
        victims = [
            s for s in fs.cleaner.select_segments(fs.config.segments_per_pass)
            if fs.usage.get(s).live_bytes > 0
        ]
        start = fs.layout.segment_start(victims[1])
        addr = next(
            start + step.offset + 1 + i
            for step in walk_segment(
                fs.disk.peek, fs.disk.peek, start, fs.config.segment_blocks,
                fs.config.block_size, seq_limit=fs.writer.seq,
            )
            if isinstance(step, SegmentWrite)
            for i, entry in enumerate(step.summary.entries)
            if entry.kind == BlockKind.DATA
            and fs.cleaner._entry_live(entry, start + step.offset + 1 + i)
        )
        raw = bytearray(fs.disk.peek(addr))
        raw[7] ^= 0x10
        fs.disk.corrupt_block(addr, bytes(raw))
        fs.clean_now(fs.usage.clean_count + 4)
        stats = fs.cleaner.stats
        assert stats.segments_quarantined == 1
        assert len(stats.cleaned_utilizations) == stats.segments_cleaned
        assert stats.table2()["empty_segments_cleaned"] == stats.empty_segments_cleaned
