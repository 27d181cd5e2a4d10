"""Sick-disk survival: media faults, scrub, rescue, scavenger, read-only.

End-to-end checks of the media-fault defense stack: seeded fault
injection, read-path checksum detection, bounded retry, bad-segment
quarantine, graceful degradation to read-only, and scavenger recovery
when both checkpoint regions are gone.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.config import LFSConfig, compute_layout
from repro.core.errors import (
    CorruptionError,
    InvalidOperationError,
    MediaError,
    NoSpaceError,
    ReadOnlyError,
)
from repro.core.filesystem import LFS
from repro.core.summary import SegmentWrite, walk_segment
from repro.disk.device import Disk
from repro.disk.faults import inject_media_faults
from repro.disk.geometry import DiskGeometry
from repro.disk.image import load_disk, save_disk
from repro.tools.lfsck import check_filesystem
from repro.tools.scrub import scrub_filesystem
from repro.torture import ModelFS, TORTURE_MODES, run_torture
from repro.torture.oracle import DIR


SICK_BLOCKS = 6000


def sick_config(**overrides) -> LFSConfig:
    cfg = dict(
        segment_bytes=64 * 4096,
        reserved_segments=4,
        clean_low_water=6,
        clean_high_water=10,
    )
    cfg.update(overrides)
    return LFSConfig(**cfg)


def build_image(files: int = 8, payload: int = 30000):
    """A synced, cleanly unmounted image with ``files`` files on it."""
    cfg = sick_config()
    disk = Disk(DiskGeometry(num_blocks=SICK_BLOCKS, block_size=4096))
    fs = LFS.format(disk, cfg)
    for i in range(files):
        fs.write_file(f"/f{i}", bytes([i]) * payload)
    fs.sync()
    fs.unmount()
    return disk, cfg


def log_candidates(disk, layout):
    return sorted(
        a for a in disk.written_addresses() if a >= layout.segment_area_start
    )


# ----------------------------------------------------------------------
# fault injection model


class TestFaultInjection:
    def test_plan_is_seeded_and_disjoint(self):
        disk, cfg = build_image()
        layout = compute_layout(cfg, SICK_BLOCKS)
        cands = log_candidates(disk, layout)
        plan1 = inject_media_faults(
            disk, seed=5, rot=2, latent=2, transient=2, candidates=cands
        )
        disk2, _ = build_image()
        plan2 = inject_media_faults(
            disk2, seed=5, rot=2, latent=2, transient=2, candidates=cands
        )
        assert plan1 == plan2  # same seed, same plan
        all_sites = plan1["rot"] + plan1["latent"] + plan1["transient"]
        assert len(set(all_sites)) == len(all_sites)  # disjoint victims

    def test_latent_sector_raises_media_error_with_addr(self):
        disk, cfg = build_image()
        layout = compute_layout(cfg, SICK_BLOCKS)
        plan = inject_media_faults(
            disk, seed=1, latent=1, candidates=log_candidates(disk, layout)
        )
        victim = plan["latent"][0]
        with pytest.raises(MediaError) as exc_info:
            disk.read_block(victim)
        assert exc_info.value.addr == victim
        assert exc_info.value.op == "read"
        assert str(victim) in str(exc_info.value)

    def test_transient_fault_absorbed_by_retry_with_backoff(self):
        disk, cfg = build_image()
        layout = compute_layout(cfg, SICK_BLOCKS)
        plan = inject_media_faults(
            disk, seed=2, transient=1, candidates=log_candidates(disk, layout)
        )
        victim = plan["transient"][0]
        before = disk.stats.snapshot()
        t0 = disk.clock.now
        payload = disk.read_block(victim)  # succeeds despite two failures
        assert payload == disk.peek(victim)
        delta = disk.stats.delta(before)
        assert delta.retries == 2
        assert delta.retry_time > 0
        # backoff is charged to the simulated clock, not busy time
        assert disk.clock.now - t0 >= delta.retry_time
        assert disk.stats.busy_time <= disk.clock.now


# ----------------------------------------------------------------------
# read-path checksums and graceful degradation


class TestReadPathIntegrity:
    def test_bitrot_read_raises_corruption_not_garbage(self):
        disk, cfg = build_image()
        disk.power_on()
        fs = LFS.mount(disk, cfg)
        # rot a known data block of /f3: its first block address
        addr = fs.block_addr(fs.stat("/f3").inum, 0)
        raw = bytearray(disk.peek(addr))
        raw[100] ^= 0x40
        disk.corrupt_block(addr, bytes(raw))
        with pytest.raises(CorruptionError):
            fs.read("/f3")
        # other files are untouched and still verify
        assert fs.read("/f4") == bytes([4]) * 30000

    def test_error_budget_flips_read_only(self):
        disk, cfg = build_image()
        disk.power_on()
        fs = LFS.mount(disk, sick_config(media_error_budget=2))
        addr = fs.block_addr(fs.stat("/f1").inum, 0)
        raw = bytearray(disk.peek(addr))
        raw[0] ^= 0x01
        disk.corrupt_block(addr, bytes(raw))
        for _ in range(2):
            fs.cache.clear_all()
            with pytest.raises(CorruptionError):
                fs.read("/f1")
        assert fs.read_only
        with pytest.raises(ReadOnlyError):
            fs.write_file("/new", b"refused")
        # reads of healthy data still work in the degraded state
        assert fs.read("/f2") == bytes([2]) * 30000

    def test_budget_zero_disables_degradation(self):
        disk, cfg = build_image()
        disk.power_on()
        fs = LFS.mount(disk, sick_config(media_error_budget=0))
        addr = fs.block_addr(fs.stat("/f1").inum, 0)
        raw = bytearray(disk.peek(addr))
        raw[0] ^= 0x01
        disk.corrupt_block(addr, bytes(raw))
        for _ in range(5):
            fs.cache.clear_all()
            with pytest.raises(CorruptionError):
                fs.read("/f1")
        assert not fs.read_only
        fs.write_file("/still-writable", b"ok")


# ----------------------------------------------------------------------
# scrub: detection, rescue, quarantine


class TestScrubAndRescue:
    def test_scrub_finds_exactly_the_injected_rot(self):
        for seed in range(6):
            disk, cfg = build_image()
            layout = compute_layout(cfg, SICK_BLOCKS)
            disk.power_on()
            fs = LFS.mount(disk, cfg)
            plan = inject_media_faults(
                disk, seed=seed, rot=3, candidates=log_candidates(disk, layout)
            )
            report = scrub_filesystem(fs)
            found = set(report.corrupt_blocks) | set(report.corrupt_summaries)
            # no false negatives on the injected blocks...
            assert set(plan["rot"]) <= found, (seed, plan, sorted(found))
            # ...and no false positives elsewhere
            assert found == set(plan["rot"]), (seed, plan, sorted(found))
            assert not report.unreadable_blocks

    def test_scrub_clean_image_reports_clean(self):
        disk, cfg = build_image()
        disk.power_on()
        fs = LFS.mount(disk, cfg)
        report = scrub_filesystem(fs)
        assert report.clean
        assert report.segments_scanned > 0 and report.writes_checked > 0

    def test_rot_in_a_segments_last_summary_is_caught(self):
        """Nothing on disk follows a full segment's last summary, so the
        walk cannot tell rot there from the end of the log; only the CRC
        index the mount captured while the summaries were good can."""
        disk, cfg = build_image()
        disk.power_on()
        fs = LFS.mount(disk, cfg)
        seg = next(
            s
            for s in fs.usage.dirty_segments()
            if s not in (fs.writer.current_segment, fs.writer.next_segment)
        )
        start = fs.layout.segment_start(seg)
        steps = walk_segment(
            disk.peek, disk.peek, start, cfg.segment_blocks, cfg.block_size,
            seq_limit=fs.writer.seq,
        )
        last = [s for s in steps if isinstance(s, SegmentWrite)][-1]
        addr = start + last.offset
        raw = bytearray(disk.peek(addr))
        raw[56] ^= 0x01  # the first entry's inum, after the 48-byte header
        disk.corrupt_block(addr, bytes(raw))
        report = scrub_filesystem(fs)
        assert report.corrupt_summaries == [addr]
        assert report.sick_segments == [seg]

    def test_rescue_quarantines_and_lfsck_comes_back_clean(self):
        disk, cfg = build_image()
        layout = compute_layout(cfg, SICK_BLOCKS)
        disk.power_on()
        fs = LFS.mount(disk, cfg)
        # damage a segment that is not the writer's active tail
        victims = [
            s
            for s in fs.usage.dirty_segments()
            if s not in (fs.writer.current_segment, fs.writer.next_segment)
        ]
        seg = victims[0]
        start = layout.segment_start(seg)
        raw = bytearray(disk.peek(start + 1))
        raw[7] ^= 0x10
        disk.corrupt_block(start + 1, bytes(raw))
        report = scrub_filesystem(fs, rescue=True)
        assert report.segments_quarantined == [seg]
        assert report.blocks_rescued > 0
        assert report.blocks_lost == 0
        assert fs.usage.get(seg).quarantined
        # every file still reads back in full
        for i in range(8):
            assert fs.read(f"/f{i}") == bytes([i]) * 30000
        fs.unmount()
        # quarantine persisted through the checkpoint, and the image is
        # consistent again: the damage is fenced off, not part of the log
        check = check_filesystem(disk)
        assert check.ok, check.errors
        assert not check.checksum_errors
        fs2 = LFS.mount(disk, cfg)
        assert fs2.usage.get(seg).quarantined

    def test_rescue_leaves_the_usage_table_exact(self):
        # Age the platter as the media torture does (two rotted blocks, a
        # latent sector, a transient error), scrub with rescue, unmount:
        # the table must equal lfsck's recount on every segment. Blocks a
        # rescue lost are a separate finding ("quarantined but files still
        # own ...") and are not judged here, nor is a seed whose rot lands
        # on a block mount or the rescue must read, which they refuse with
        # a typed error before the table changes.
        quarantined = scrubbed = 0
        seed = 0
        while scrubbed < 6:
            disk, cfg = build_image()
            layout = compute_layout(cfg, SICK_BLOCKS)
            disk.power_on()
            inject_media_faults(
                disk, seed=seed, rot=2, latent=1, transient=1,
                candidates=log_candidates(disk, layout),
            )
            seed += 1
            assert seed <= 30, "too few seeds reach the scrub"
            try:
                fs = LFS.mount(disk, cfg)
                report = scrub_filesystem(fs, rescue=True)
            except CorruptionError:
                continue
            scrubbed += 1
            quarantined += len(report.segments_quarantined)
            fs.unmount()
            errors = check_filesystem(disk).errors
            assert not [e for e in errors if "usage table records" in e], (seed - 1, errors)
        assert quarantined, "no seed drove a segment into quarantine"

    def test_quarantined_segment_refused_by_allocator_and_cleaner(self):
        disk, cfg = build_image()
        disk.power_on()
        fs = LFS.mount(disk, cfg)
        victims = [
            s
            for s in fs.usage.dirty_segments()
            if s not in (fs.writer.current_segment, fs.writer.next_segment)
        ]
        seg = victims[0]
        fs.cleaner.rescue_segment(seg)
        assert fs.usage.get(seg).quarantined
        with pytest.raises(InvalidOperationError):
            fs.usage.mark_clean(seg)
        with pytest.raises(InvalidOperationError):
            fs.usage.mark_in_use(seg)
        # heavy churn never routes new writes through the quarantined
        # segment: it stays out of the clean pool for good
        for round_no in range(30):
            fs.write_file(f"/churn{round_no % 5}", bytes([round_no]) * 40000)
        fs.sync()
        assert fs.usage.get(seg).quarantined
        assert seg not in fs.usage.clean_segments()
        assert fs.writer.current_segment != seg


# ----------------------------------------------------------------------
# offline lfsck: torn tail vs checksum corruption


class TestLfsckChecksums:
    def test_rot_detected_with_exit_code_2(self, tmp_path, capsys):
        disk, cfg = build_image()
        layout = compute_layout(cfg, SICK_BLOCKS)
        plan = inject_media_faults(
            disk, seed=3, rot=2, candidates=log_candidates(disk, layout)
        )
        report = check_filesystem(disk)
        assert set(plan["rot"]) <= set(report.checksum_errors)
        image = tmp_path / "rotted.lfs"
        save_disk(disk, str(image))
        rc = main(["fsck", str(image), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert set(plan["rot"]) <= set(out["checksum_errors"])

    def test_torn_tail_is_a_warning_not_corruption(self):
        cfg = sick_config()
        disk = Disk(DiskGeometry(num_blocks=SICK_BLOCKS, block_size=4096))
        fs = LFS.format(disk, cfg)
        fs.write_file("/a", b"a" * 30000)
        fs.sync()
        fs.write_file("/b", b"b" * 30000)
        fs.crash()  # buffered tail writes may be torn, checkpoint is older
        disk.power_on()
        # tear the very last durable write's payload to simulate the torn
        # tail roll-forward would drop
        tail = max(disk.written_addresses())
        disk.corrupt_block(tail, b"\0" * 4096)
        report = check_filesystem(disk)
        assert report.ok, report.errors  # torn tail is expected damage
        assert not report.checksum_errors

    def test_clean_image_has_no_checksum_errors(self):
        disk, cfg = build_image()
        report = check_filesystem(disk)
        assert report.ok and not report.checksum_errors and not report.warnings


# ----------------------------------------------------------------------
# scavenger: both checkpoint regions gone


class TestScavenger:
    def test_rebuild_matches_model_oracle(self):
        cfg = sick_config()
        disk = Disk(DiskGeometry(num_blocks=SICK_BLOCKS, block_size=4096))
        fs = LFS.format(disk, cfg)
        model = ModelFS()
        from repro.torture import OpRecord

        def do(kind, **kw):
            model.apply(OpRecord(kind, **kw))

        for i in range(6):
            data = bytes([i]) * 20000
            fs.write_file(f"/f{i}", data)
            do("write", path=f"/f{i}", data=data)
        fs.mkdir("/sub")
        do("mkdir", path="/sub")
        fs.write_file("/sub/deep", b"deep" * 2000)
        do("write", path="/sub/deep", data=b"deep" * 2000)
        fs.remove("/f0")
        do("unlink", path="/f0")
        fs.write_file("/f1", b"updated" * 1500)
        do("write", path="/f1", data=b"updated" * 1500)
        fs.sync()
        fs.unmount()

        layout = compute_layout(cfg, SICK_BLOCKS)
        for addr in range(layout.checkpoint_a, layout.segment_area_start):
            disk.corrupt_block(addr, b"\0" * 4096)
        disk.power_on()
        with pytest.raises(CorruptionError):
            LFS.mount(disk, cfg, scavenge=False)
        fs2 = LFS.mount(disk, cfg)
        assert fs2.last_recovery is not None and fs2.last_recovery.scavenged

        expected = model.view()
        for path, value in expected.items():
            if value == DIR:
                assert fs2.stat(path).is_directory, path
            else:
                assert fs2.read(path) == value, path
        assert not fs2.exists("/f0")
        # the rebuilt system keeps working: write, remount normally, read
        fs2.write_file("/post", b"post-scavenge")
        fs2.unmount()
        fs3 = LFS.mount(disk, cfg)
        assert fs3.read("/post") == b"post-scavenge"
        assert fs3.last_recovery is None or not fs3.last_recovery.scavenged


# ----------------------------------------------------------------------
# disk full: refusal, not collapse


class TestDiskFull:
    def test_no_space_keeps_fs_mounted_and_readable(self):
        cfg = LFSConfig(
            segment_bytes=32 * 4096,
            reserved_segments=2,
            clean_low_water=2,
            clean_high_water=3,
        )
        disk = Disk(DiskGeometry(num_blocks=800, block_size=4096))
        fs = LFS.format(disk, cfg)
        written = []
        with pytest.raises(NoSpaceError):
            for i in range(10_000):
                fs.write_file(f"/fill{i}", b"z" * 8192)
                written.append(f"/fill{i}")
        assert fs.mounted
        # everything that succeeded is still there and readable
        for path in written[: len(written) // 2]:
            assert fs.read(path) == b"z" * 8192
        # deleting makes room again
        for path in written[: max(4, len(written) // 2)]:
            fs.remove(path)
        fs.sync()
        fs.write_file("/after-free", b"fits now")
        assert fs.read("/after-free") == b"fits now"


# ----------------------------------------------------------------------
# torture integration: media mode, digest invariance, fault sites


class TestMediaTorture:
    def test_media_mode_listed_and_validated(self):
        assert "media" in TORTURE_MODES
        with pytest.raises(ValueError):
            run_torture("smallfile", sample=2, variants=("bogus",), workers=1)

    def test_media_digest_worker_invariant(self, tmp_path):
        one = run_torture(
            "smallfile", sample=12, seed=7, workers=1, variants=("media",)
        )
        two = run_torture(
            "smallfile", sample=12, seed=7, workers=2, variants=("media",)
        )
        assert one.outcome_digest == two.outcome_digest
        assert one.violation_count == 0
        assert any(p.damage_found for p in one.points)

    def test_crash_points_carry_error_addr_and_op(self):
        result = run_torture(
            "smallfile", sample=30, seed=7, workers=1, variants=("torn",)
        )
        localized = [p for p in result.points if p.error_addr is not None]
        assert localized, "no crash point recorded its failing block"
        assert all(p.error_op == "write" for p in localized)

    def test_fault_sites_surface_in_bench_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_media_torture.json"
        rc = main(
            [
                "torture",
                "--workload",
                "smallfile",
                "--sample",
                "10",
                "--seed",
                "7",
                "--workers",
                "1",
                "--variants",
                "torn,media",
                "--bench-name",
                "media_torture",
                "--json",
                str(out),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        record = json.loads(out.read_text())
        assert record["bench"] == "media_torture"
        assert record["violations"] == 0
        assert "fault_sites" in record
        for site in record["fault_sites"]:
            assert set(site) == {"cut", "variant", "error_addr", "error_op"}
            assert site["error_addr"] is not None


# ----------------------------------------------------------------------
# dormancy: no behavior change with faults disabled


class TestZeroCostWhenDormant:
    def test_media_model_inactive_by_default(self):
        disk, _ = build_image()
        assert not disk.media.active
        assert disk.stats.retries == 0
        assert disk.stats.retry_time == 0.0
        assert disk.stats.media_errors == 0

    def test_scrub_does_not_burn_the_error_budget(self):
        disk, cfg = build_image()
        layout = compute_layout(cfg, SICK_BLOCKS)
        disk.power_on()
        fs = LFS.mount(disk, cfg)
        inject_media_faults(
            disk, seed=9, rot=3, candidates=log_candidates(disk, layout)
        )
        scrub_filesystem(fs)
        assert fs.media_errors_seen == 0
        assert not fs.read_only
