"""Flash semantics: geometry timing, erase-before-reuse, TRIM, wear.

The device-level contract under test:

* a :class:`FlashGeometry` disk has no positional seek, asymmetric
  read/program latencies, and channel-striped transfers;
* reprogramming any page of an erase block that still holds programmed
  pages erases the block first (auto-erase — the FTL model), bumping the
  wear count and charging ``erase_latency``;
* a TRIMmed-but-never-reprogrammed page reads back as a typed
  :class:`TrimmedBlockError`, never stale bytes;
* erase counts are conserved across ``snapshot_state``/``restore_state``
  and only ever grow while a device runs;

plus the file-system layers on top: hot/cold segregation, deferred TRIM
at checkpoint, the wear-leveling victim nudge, and the watchdog's flash
invariants staying silent through churn, crash, and torture.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import LFSConfig, compute_layout
from repro.core.errors import TrimmedBlockError
from repro.core.filesystem import LFS
from repro.core.policy import CleaningPolicy
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry, FlashGeometry
from repro.obs import Observation, Watchdog
from repro.obs.events import FLASH_ERASE, FLASH_TRIM, LOG_SEGMENT_OPEN
from repro.obs.report import build_report, render_report


def nand_disk(num_blocks: int = 1024, erase_block_blocks: int = 64) -> Disk:
    return Disk(
        FlashGeometry.nand(num_blocks=num_blocks, erase_block_blocks=erase_block_blocks)
    )


CHURN_CONFIG = dict(
    segment_bytes=128 * 1024,
    max_inodes=512,
    clean_low_water=4,
    clean_high_water=7,
    reserved_segments=3,
    segments_per_pass=4,
    write_buffer_blocks=16,
    checkpoint_interval=0.0,
    cache_blocks=1024,
)


class TestFlashGeometry:
    def test_no_positional_seek(self):
        geo = FlashGeometry.nand()
        assert geo.seek_time(0, 81919) == 0.0
        assert geo.seek_time(5, 6) == 0.0

    def test_asymmetric_service_time(self):
        geo = FlashGeometry.nand()
        one = geo.block_size
        read = geo.service_time(one, write=False)
        program = geo.service_time(one, write=True)
        assert read == pytest.approx(60e-6 + one / 200e6)
        assert program == pytest.approx(800e-6 + one / 200e6)
        assert program > read

    def test_channel_striping(self):
        geo = FlashGeometry.nand(channels=4)
        four = 4 * geo.block_size
        # A 4-block request stripes across all 4 channels: the transfer
        # term is the same as a single block's.
        assert geo.service_time(four, write=False) == pytest.approx(
            60e-6 + geo.block_size / 200e6
        )
        eight = 8 * geo.block_size
        assert geo.service_time(eight, write=False) == pytest.approx(
            60e-6 + 2 * geo.block_size / 200e6
        )

    def test_erase_block_mapping(self):
        geo = FlashGeometry.nand(num_blocks=1000, erase_block_blocks=64)
        assert geo.num_erase_blocks == 16  # ceil(1000 / 64)
        assert geo.erase_block_of(0) == 0
        assert geo.erase_block_of(63) == 0
        assert geo.erase_block_of(64) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            FlashGeometry.nand(erase_block_blocks=0)
        with pytest.raises(ValueError):
            FlashGeometry.nand(channels=0)


class TestEraseBeforeReuse:
    def test_reprogram_triggers_erase(self):
        disk = nand_disk()
        disk.write_block(0, b"a")
        assert disk.stats.erases == 0
        disk.write_block(0, b"b")  # same page: EB must be erased first
        assert disk.stats.erases == 1
        assert disk.read_block(0)[:1] == b"b"

    def test_fresh_pages_need_no_erase(self):
        disk = nand_disk()
        for addr in range(8):
            disk.write_block(addr, bytes([addr]))
        assert disk.stats.erases == 0

    def test_erase_charges_erase_time_not_busy_time(self):
        disk = nand_disk()
        disk.write_block(0, b"a")
        busy_before = disk.stats.busy_time
        clock_before = disk.clock.now
        disk.write_block(0, b"b")
        elapsed = disk.clock.now - clock_before
        assert disk.stats.erase_time == pytest.approx(0.003)
        # busy_time only grew by the program itself; the erase advanced
        # the clock without counting as device busy-time.
        assert disk.stats.busy_time - busy_before == pytest.approx(elapsed - 0.003)

    def test_wear_counts_per_erase_block(self):
        disk = nand_disk(erase_block_blocks=64)
        disk.write_block(0, b"a")
        disk.write_block(64, b"a")
        for _ in range(3):
            disk.write_block(0, b"x")
        disk.write_block(64, b"y")
        m = disk.flash_metrics()
        assert disk.flash.erase_counts[0] == 3
        assert disk.flash.erase_counts[1] == 1
        assert m.erases_total == 4 == disk.stats.erases
        assert m.wear_max == 3 and m.wear_spread == 3

    def test_erase_event_emitted(self):
        disk = nand_disk()
        obs = Observation(ring_capacity=None)
        obs.attach_disk(disk)
        disk.write_block(0, b"a")
        disk.write_block(0, b"b")
        events = obs.tracer.events(FLASH_ERASE)
        assert len(events) == 1
        assert events[0].fields["reason"] == "reuse"
        assert events[0].fields["block"] == 0
        assert events[0].fields["count"] == 1


class TestTrim:
    def test_trimmed_read_raises_typed_error(self):
        disk = nand_disk()
        disk.write_block(5, b"live")
        disk.trim(5)
        with pytest.raises(TrimmedBlockError):
            disk.read_block(5)

    def test_trimmed_block_error_is_media_error(self):
        from repro.core.errors import MediaError

        assert issubclass(TrimmedBlockError, MediaError)

    def test_trim_then_rewrite_then_read(self):
        disk = nand_disk()
        disk.write_block(5, b"old")
        disk.trim(5)
        disk.write_block(5, b"new")
        assert disk.read_block(5)[:3] == b"new"

    def test_trim_covers_multiblock_range(self):
        disk = nand_disk()
        for addr in range(10, 14):
            disk.write_block(addr, b"x")
        disk.trim(10, 4)
        for addr in range(10, 14):
            with pytest.raises(TrimmedBlockError):
                disk.read_block(addr)

    def test_streamed_read_trips_on_trimmed_page(self):
        disk = nand_disk()
        for addr in range(3):
            disk.write_block(addr, bytes([addr]))
        disk.trim(1)
        with pytest.raises(TrimmedBlockError):
            disk.read_blocks(0, 3)

    def test_erase_ahead_makes_reuse_free(self):
        disk = nand_disk(erase_block_blocks=64)
        for addr in range(64):  # dirty the whole erase block
            disk.write_block(addr, b"x")
        erased = disk.trim(0, 64)
        assert erased == 1  # whole EB dead -> erased ahead of reuse
        assert disk.stats.erases == 1
        disk.write_block(0, b"y")  # reuse pays no erase now
        assert disk.stats.erases == 1

    def test_partial_trim_defers_erase(self):
        disk = nand_disk(erase_block_blocks=64)
        disk.write_block(0, b"a")
        disk.write_block(1, b"b")
        assert disk.trim(0) == 0  # page 1 still programmed: no erase-ahead
        assert disk.stats.erases == 0

    def test_trim_is_free_in_simulated_time(self):
        disk = nand_disk()
        disk.write_block(0, b"a")
        disk.write_block(1, b"b")
        before = disk.clock.now
        disk.trim(0)  # no erase-ahead fires (page 1 programmed)
        assert disk.clock.now == before

    def test_peek_still_reads_raw_bytes(self):
        # peek() is the forensic probe: it bypasses flash read checks so
        # tools can inspect the raw image.
        disk = nand_disk()
        disk.write_block(0, b"raw")
        disk.trim(0)
        assert disk.peek(0)[:3] == b"raw"


class TestSnapshotRestore:
    def test_flash_state_round_trips(self):
        disk = nand_disk()
        disk.write_block(0, b"a")
        disk.write_block(0, b"b")
        disk.write_block(9, b"c")
        disk.trim(9)
        state = disk.snapshot_state()

        other = nand_disk()
        other.restore_state(state)
        assert other.flash.erase_counts == disk.flash.erase_counts
        assert other.flash.programmed == disk.flash.programmed
        assert other.flash.trimmed == disk.flash.trimmed
        with pytest.raises(TrimmedBlockError):
            other.read_block(9)

    def test_wear_conserved_and_monotone(self):
        disk = nand_disk()
        disk.write_block(0, b"a")
        disk.write_block(0, b"b")
        snap = disk.snapshot_state()
        wear_at_snap = sum(disk.flash.erase_counts)
        disk.write_block(0, b"c")
        assert sum(disk.flash.erase_counts) > wear_at_snap  # monotone while running
        disk.restore_state(snap)
        assert sum(disk.flash.erase_counts) == wear_at_snap  # conserved by restore
        # IOStats are session counters, not image state: the erases the
        # device performed stay counted even after the medium rewinds.
        # (The watchdog's conservation check re-baselines on exactly this.)
        assert disk.stats.erases == 2

    def test_hdd_geometry_has_no_flash_state(self):
        disk = Disk(DiskGeometry.wren4(num_blocks=1024))
        assert disk.flash is None
        state = disk.snapshot_state()
        other = Disk(DiskGeometry.wren4(num_blocks=1024))
        other.restore_state(state)
        assert other.flash is None


class TestFlashFilesystem:
    def churn(self, *, segregated: bool, wear: bool, rounds: int = 20):
        rng = random.Random(7)
        disk = Disk(FlashGeometry.nand(num_blocks=512, erase_block_blocks=64))
        obs = Observation(ring_capacity=None)
        Watchdog().install(obs)
        config = LFSConfig(
            hot_cold_segregation=segregated, wear_leveling=wear, **CHURN_CONFIG
        )
        fs = LFS.format(disk, config, obs=obs)
        paths = [f"/f{i}" for i in range(12)]
        for p in paths:
            fs.write_file(p, bytes(rng.randrange(256) for _ in range(5000)))
        fs.sync()
        for r in range(rounds):
            for p in rng.sample(paths, 6):
                fs.write_file(p, bytes(rng.randrange(256) for _ in range(6000)))
            if r % 2 == 0:
                fs.sync()
            fs.clean_now()
            if r % 3 == 2:
                fs.checkpoint()
        fs.checkpoint()
        return disk, obs, fs, config, paths

    def test_segment_area_aligned_to_erase_blocks(self):
        disk = Disk(FlashGeometry.nand(num_blocks=512, erase_block_blocks=64))
        config = LFSConfig(**CHURN_CONFIG)
        fs = LFS.format(disk, config)
        assert fs.layout.segment_area_start % 64 == 0
        # and the same alignment is used at mount time
        fs.unmount()
        fs2 = LFS.mount(disk, config)
        assert fs2.layout.segment_area_start % 64 == 0

    def test_churn_watchdog_silent_and_remountable(self):
        # Segregation + wear leveling + TRIM, all on, under real cleaning
        # pressure: the watchdog raises on any erase-before-reuse,
        # trim-covers-live, or erase-conservation break.
        # 30 rounds: with each metadata block written once, 20 rounds
        # leave no erase block wholly trimmed
        disk, obs, fs, config, paths = self.churn(segregated=True, wear=True, rounds=30)
        assert disk.stats.erases > 0
        assert disk.flash_metrics().trimmed_pages > 0
        assert obs.tracer.events(FLASH_TRIM)
        # TRIM erases a wholly trimmed erase block ahead of its reuse
        assert any(e.fields["reason"] == "trim" for e in obs.tracer.events(FLASH_ERASE))
        fs.unmount()
        fs2 = LFS.mount(disk, config)
        for p in paths:
            assert len(fs2.read(p)) in (5000, 6000)

    def test_trims_only_drain_at_checkpoint(self):
        rng = random.Random(3)
        disk = Disk(FlashGeometry.nand(num_blocks=512, erase_block_blocks=64))
        config = LFSConfig(**CHURN_CONFIG)
        fs = LFS.format(disk, config)
        paths = [f"/f{i}" for i in range(10)]
        for p in paths:
            fs.write_file(p, bytes(rng.randrange(256) for _ in range(6000)))
        fs.sync()
        for p in paths:
            fs.write_file(p, bytes(rng.randrange(256) for _ in range(6000)))
        fs.sync()
        fs.clean_now()
        pending = set(fs._pending_trims)
        trimmed_before = disk.flash_metrics().trimmed_pages
        fs.checkpoint()
        if pending:
            assert disk.flash_metrics().trimmed_pages > trimmed_before
        assert not fs._pending_trims

    def test_trim_never_covers_live_bytes(self):
        disk, obs, fs, config, paths = self.churn(segregated=False, wear=False)
        layout = fs.layout
        seg_blocks = fs.config.segment_blocks
        for event in obs.tracer.events(FLASH_TRIM):
            seg_no = event.fields["segment"]
            assert event.fields["start"] == layout.segment_start(seg_no)
            assert event.fields["blocks"] == seg_blocks

    def test_crash_forgets_pending_trims(self):
        rng = random.Random(5)
        disk = Disk(FlashGeometry.nand(num_blocks=512, erase_block_blocks=64))
        config = LFSConfig(**CHURN_CONFIG)
        fs = LFS.format(disk, config)
        for i in range(10):
            fs.write_file(f"/f{i}", bytes(rng.randrange(256) for _ in range(6000)))
        fs.sync()
        for i in range(10):
            fs.write_file(f"/f{i}", bytes(rng.randrange(256) for _ in range(6000)))
        fs.sync()
        fs.clean_now()
        fs._pending_trims.add(0)  # simulate an undrained trim
        fs.crash()
        assert not fs._pending_trims
        fs2 = LFS.mount(disk, config)
        for i in range(10):
            assert len(fs2.read(f"/f{i}")) == 6000

    def test_cold_cursor_writes_cold_segments(self):
        disk, obs, fs, config, paths = self.churn(segregated=True, wear=False)
        assert fs.writer.stats.cold_blocks > 0
        assert fs.writer.stats.cold_segments_opened > 0
        cold_opens = [e for e in obs.tracer.events(LOG_SEGMENT_OPEN) if e.fields.get("cold")]
        assert len(cold_opens) == fs.writer.stats.cold_segments_opened

    def test_default_config_keeps_flash_knobs_off(self):
        config = LFSConfig()
        assert config.hot_cold_segregation is False
        assert config.wear_leveling is False

    def test_report_has_flash_section(self):
        disk, obs, fs, config, paths = self.churn(segregated=True, wear=True)
        assert "flash" in obs.registry.names()
        report = build_report(obs, fs, name="flash-churn")
        assert report["flash"]["erases_total"] == disk.stats.erases
        trims = report["tracer"]["emitted"]["flash.trim"]
        assert trims == len(obs.tracer.events(FLASH_TRIM)) > 0
        text = render_report(report)
        assert "flash wear and TRIM" in text


class TestWearNudge:
    """``wear_leveling`` scales the cost-benefit score by the segment's
    wear factor and touches nothing else."""

    BASE_WEAR = 10

    def staged(self, policy, segments):
        """A NAND file system whose only candidates are ``segments``, as
        ``seg: (live_bytes, erase count)``, all written at one instant.

        Each 32-block segment spans two 16-block erase blocks, which get
        the count, or one each from a pair; every other erase block keeps
        ``BASE_WEAR``, so the mean sits near it.
        """
        disk = nand_disk(num_blocks=2048, erase_block_blocks=16)
        config = LFSConfig(cleaning_policy=policy, wear_leveling=True, **CHURN_CONFIG)
        fs = LFS.format(disk, config)
        assert fs.cleaner._candidates() == []
        counts = disk.flash.erase_counts
        counts[:] = [self.BASE_WEAR] * len(counts)
        for seg, (live, wear) in segments.items():
            assert fs.usage.get(seg).clean
            fs.usage.add_live(seg, live, when=1.0)
            pair = wear if isinstance(wear, tuple) else (wear, wear)
            for eb, count in zip(self.erase_blocks(fs, seg), pair):
                counts[eb] = count
        disk.clock.advance(100.0)
        return fs

    @staticmethod
    def erase_blocks(fs, seg):
        start = fs.layout.segment_start(seg)
        last = start + fs.config.segment_blocks - 1
        erase_block_of = fs.disk.geometry.erase_block_of
        return range(erase_block_of(start), erase_block_of(last) + 1)

    def nudged_score(self, fs, seg):
        """The oracle: today's ratio times today's factor, spelled out."""
        u = fs.usage.utilization(seg)
        age = max(0.0, fs.disk.clock.now - fs.usage.get(seg).last_write)
        counts = fs.disk.flash.erase_counts
        mean = sum(counts) / len(counts)
        wear = max(counts[eb] for eb in self.erase_blocks(fs, seg))
        return (1.0 - u) * age / (1.0 + u) * (1.0 + 0.1 * (mean - wear) / (mean + 1.0))

    def test_cost_benefit_order_is_the_stable_sort_by_nudged_score(self):
        # 5, 6 and 10 tie on score, 7 trails them by 0.4 %: the wear of
        # each segment's most worn erase block decides; 8 and 9 tie on both.
        fs = self.staged(
            CleaningPolicy.COST_BENEFIT,
            {5: (32768, 12), 6: (32768, 8), 7: (33000, 8), 8: (65536, 10), 9: (65536, 10),
             10: (32768, (8, 12))},
        )
        candidates = fs.cleaner._candidates()
        oracle = sorted(candidates, key=lambda s: self.nudged_score(fs, s), reverse=True)
        assert oracle == [6, 7, 5, 10, 8, 9]
        assert fs.cleaner.select_segments(100) == oracle
        assert fs.cleaner.select_segments(1) == [6]
        assert fs.cleaner.select_segments(3) == [6, 7, 5]
        fs.config.wear_leveling = False
        assert fs.cleaner.select_segments(100) == [5, 6, 10, 7, 8, 9]

    def test_greedy_ignores_wear(self):
        fs = self.staged(
            CleaningPolicy.GREEDY,
            {5: (32768, 12), 6: (32768, 8), 7: (33000, 0), 8: (16384, 40)},
        )
        assert fs.cleaner.select_segments(100) == [8, 5, 6, 7]
        assert fs.cleaner.select_segments(1) == [8]

    @pytest.mark.parametrize("policy", [CleaningPolicy.GREEDY, CleaningPolicy.COST_BENEFIT])
    def test_empties_first_ignore_wear(self, policy):
        fs = self.staged(policy, {5: (0, 40), 6: (8192, 0), 7: (0, 0), 9: (0, 20)})
        assert fs.cleaner.select_segments(2) == [5, 7]
        assert fs.cleaner.select_segments(100) == [5, 7, 9]


class TestFlashTorture:
    def test_flash_cleaning_torture_violation_free(self):
        from repro.torture import run_torture

        result = run_torture(
            "cleaning",
            sample=24,
            seed=0,
            workers=1,
            watchdog=True,
            flash=True,
            variants=("clean", "torn", "media"),
        )
        assert result.violation_count == 0
        assert len(result.points) == 24

    def test_flash_recording_uses_aligned_layout(self):
        from repro.torture.workloads import record_workload

        recording = record_workload("checkpoint", 0, flash=True)
        assert isinstance(recording.geometry, FlashGeometry)
        layout = compute_layout(
            recording.config,
            recording.geometry.num_blocks,
            align=recording.geometry.erase_block_blocks,
        )
        assert layout.segment_area_start % 64 == 0
        # replay disks inherit the flash state captured at format time
        disk = recording.fresh_disk()
        assert disk.flash is not None
        assert disk.flash.programmed

    def test_torn_cold_tail_is_crash_residue_not_rot(self):
        # Regression: a crash that tears a cold-cursor write leaves a
        # CRC-failing write that nothing revisits — the cold cursor is not
        # checkpointed, so after recovery the hot log's seq moves past it
        # and lfsck's newest-write excuse no longer applies. lfsck must
        # recognize the residue (trailing, no live block implicated) as a
        # warning, not an inconsistency. Found by torture seed 9 cut 316.
        from repro.simulator.sweep import derive_point_seed
        from repro.torture.runner import explore_point
        from repro.torture.workloads import record_workload

        recording = record_workload("cleaning", 9, flash=True)
        for variant in ("clean", "torn"):
            result = explore_point(
                recording,
                316,
                variant,
                derive_point_seed(9, 316, variant),
                watchdog=True,
            )
            assert result.ok, (variant, result.violations)
