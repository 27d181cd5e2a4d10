"""NVRAM: the battery-backed buffer and the write-ahead staging domain.

Two generations of the paper's NVRAM note live here. The original
``battery_backed_buffer`` knob (drain the write buffer on OS crash) keeps
its seed tests. The staging log (``repro.disk.nvram`` +
``repro.core.nvlog``) is the second persistence domain: ``sync()`` and
``fsync()`` absorb small synchronous commits as CRC-framed NVM records,
checkpoints truncate the log once the covered data is durable on disk,
and mount-time recovery replays whatever survived a crash.
"""

from __future__ import annotations

import pytest

from repro.core.config import LFSConfig
from repro.core.constants import BlockKind, DirOp, FileType
from repro.core.dirlog import DirOpRecord
from repro.core.errors import (
    CorruptionError,
    InvalidOperationError,
    NVMDeviceFailedError,
    NVMError,
)
from repro.core.filesystem import LFS
from repro.core.nvlog import (
    NVDirOp,
    NVMeta,
    NVPatch,
    pack_body,
    unpack_body,
)
from repro.core.summary import SummaryEntry
from repro.disk.device import Disk
from repro.disk.faults import DiskCrashed
from repro.disk.geometry import DiskGeometry
from repro.disk.nvram import NVMDevice, NVMProfile, RECORD_OVERHEAD
from repro.vfs import FileSystemView

from tests.conftest import small_config


class TestBatteryBackedBuffer:
    def test_buffered_writes_survive_os_crash(self, disk):
        cfg = small_config(battery_backed_buffer=True)
        fs = LFS.format(disk, cfg)
        fs.write_file("/unsynced", b"still only in RAM")
        fs.crash()  # the battery drains the buffer before halting
        disk.power_on()
        fs2 = LFS.mount(disk, cfg)
        assert fs2.read("/unsynced") == b"still only in RAM"

    def test_without_battery_buffered_writes_lost(self, disk):
        cfg = small_config(battery_backed_buffer=False)
        fs = LFS.format(disk, cfg)
        fs.write_file("/unsynced", b"gone")
        fs.crash()
        disk.power_on()
        fs2 = LFS.mount(disk, cfg)
        assert not fs2.exists("/unsynced")

    def test_disk_power_cut_still_loses_buffer(self, disk):
        """NVRAM can't help once the disk itself has lost power."""
        cfg = small_config(battery_backed_buffer=True)
        fs = LFS.format(disk, cfg)
        fs.write_file("/unsynced", b"too late")
        disk.crash()  # hard power cut at the device
        fs.crash()
        disk.power_on()
        fs2 = LFS.mount(disk, cfg)
        assert not fs2.exists("/unsynced")

    def test_battery_flush_mid_write_failure_recovers(self, disk):
        """If the emergency flush itself tears, recovery still works."""
        cfg = small_config(battery_backed_buffer=True)
        fs = LFS.format(disk, cfg)
        fs.write_file("/old", b"durable")
        fs.checkpoint()
        fs.write_file("/buffered", b"b" * 50000)
        disk.crash(after_writes=2)  # battery flush tears after 2 blocks
        fs.crash()
        disk.power_on()
        fs2 = LFS.mount(disk, cfg)
        assert fs2.read("/old") == b"durable"
        # namespace is consistent regardless of whether /buffered made it
        for name in fs2.readdir("/"):
            fs2.stat(f"/{name}")


# ----------------------------------------------------------------------
# the staging board itself


class TestNVMDevice:
    def test_append_read_round_trip_in_order(self):
        nvm = NVMDevice()
        bodies = [b"alpha", b"b" * 300, b"\x00\xff" * 64]
        for body in bodies:
            nvm.append_record(body)
        assert nvm.record_count == 3
        result = nvm.read_records()
        assert result.bodies == bodies
        assert result.dropped == 0
        assert not result.lost

    def test_capacity_accounting_uses_frame_overhead(self):
        nvm = NVMDevice(NVMProfile(capacity_bytes=256))
        assert nvm.free_bytes == 256
        assert nvm.fits(256 - RECORD_OVERHEAD)
        assert not nvm.fits(256 - RECORD_OVERHEAD + 1)
        nvm.append_record(b"x" * 100)
        assert nvm.used_bytes == 100 + RECORD_OVERHEAD
        assert nvm.free_bytes == 256 - 100 - RECORD_OVERHEAD

    def test_overflow_raises_without_corrupting_the_log(self):
        nvm = NVMDevice(NVMProfile(capacity_bytes=128))
        nvm.append_record(b"keep")
        with pytest.raises(NVMError):
            nvm.append_record(b"y" * 128)
        result = nvm.read_records()
        assert result.bodies == [b"keep"] and not result.lost

    @pytest.mark.parametrize("seed", [0, 1, 7, 99])
    def test_torn_tail_is_dropped_not_lost(self, seed):
        """A torn final append loses only itself: the frame CRC catches
        the tear, the scan stops, and everything before it survives."""
        nvm = NVMDevice()
        nvm.append_record(b"first")
        nvm.append_record(b"second")
        nvm.append_record(b"torn away")
        nvm.tear_last_record(seed)
        result = nvm.read_records()
        assert result.bodies == [b"first", b"second"]
        assert result.dropped == 1
        assert not result.lost  # the tail is the *expected* damage site

    @pytest.mark.parametrize("seed", [0, 3, 42])
    def test_mid_log_corruption_is_lost(self, seed):
        """Damage before the tail means good records sit beyond the bad
        one — that is real loss, and the read result says so."""
        nvm = NVMDevice()
        for i in range(4):
            nvm.append_record(f"record-{i}".encode())
        nvm.corrupt_record(1, seed)
        result = nvm.read_records()
        assert result.bodies == [b"record-0"]
        assert result.dropped == 3
        assert result.lost

    def test_dead_device_raises_everywhere(self):
        nvm = NVMDevice()
        nvm.append_record(b"before death")
        nvm.fail_device()
        with pytest.raises(NVMDeviceFailedError):
            nvm.append_record(b"after")
        with pytest.raises(NVMDeviceFailedError):
            nvm.read_records()
        with pytest.raises(NVMDeviceFailedError):
            nvm.truncate_all()

    def test_snapshot_restore_round_trip(self):
        """Torture's two-domain recorder depends on restore resurrecting
        the exact record stream — including across a fail_device."""
        nvm = NVMDevice()
        nvm.append_record(b"one")
        nvm.append_record(b"two")
        snap = nvm.snapshot_state()
        nvm.append_record(b"three")
        nvm.fail_device()
        nvm.restore_state(snap)
        result = nvm.read_records()
        assert result.bodies == [b"one", b"two"]
        nvm.append_record(b"alive again")  # not dead after restore
        assert nvm.record_count == 3

    def test_truncate_resets_and_reports_count(self):
        nvm = NVMDevice()
        for i in range(5):
            nvm.append_record(bytes([i]) * 8)
        assert nvm.truncate_all() == 5
        assert nvm.used_bytes == 0
        assert nvm.read_records().bodies == []

    def test_appends_accrue_busy_time(self):
        nvm = NVMDevice()
        assert nvm.stats.busy_time == 0.0
        nvm.append_record(b"z" * 1000)
        # latency + bytes/bandwidth on the sram profile
        assert nvm.stats.busy_time > 0.0


class TestNVLogFormat:
    def _dirop(self, name="f", inum=7):
        return NVDirOp(
            DirOpRecord(
                op=DirOp.CREATE, file_inum=inum, refcount=1,
                dir1=1, name1=name,
            ),
            FileType.REGULAR,
        )

    def test_pack_unpack_round_trip_preserves_order_and_types(self):
        dirops = [self._dirop("a", 7), self._dirop("b", 8)]
        patches = [NVPatch(7, 0, b"hello"), NVPatch(8, 4096, b"\x00" * 200)]
        metas = [NVMeta(7, 5, 1.25), NVMeta(8, 4296, 2.5)]
        body = pack_body(dirops, patches, metas)
        got_dirops, got_patches, got_metas = unpack_body(body)
        assert got_dirops == dirops
        assert got_patches == patches
        assert got_metas == metas

    def test_rename_dirop_carries_both_directories(self):
        rename = NVDirOp(
            DirOpRecord(
                op=DirOp.RENAME, file_inum=9, refcount=1,
                dir1=1, name1="old", dir2=2, name2="new",
            ),
            FileType.REGULAR,
        )
        dirops, _, _ = unpack_body(pack_body([rename], [], []))
        assert dirops == [rename]
        assert dirops[0].record.dir2 == 2 and dirops[0].record.name2 == "new"

    def test_empty_body_is_legal_and_empty(self):
        assert unpack_body(b"") == ([], [], [])

    def test_garbage_raises_corruption_error(self):
        with pytest.raises(CorruptionError):
            unpack_body(b"\xff not a log body")

    def test_truncated_entry_raises_corruption_error(self):
        body = pack_body([], [NVPatch(3, 0, b"payload")], [])
        with pytest.raises(CorruptionError):
            unpack_body(body[:-3])


# ----------------------------------------------------------------------
# staging + replay through the filesystem

def _nvm_fs(disk, profile=None):
    cfg = small_config(sync_flush_barrier=True)
    nvm = NVMDevice(profile, clock=disk.clock)
    fs = LFS.format(disk, cfg, nvram=nvm)
    return cfg, nvm, fs


class TestNVMStaging:
    def test_sync_stages_instead_of_flushing(self, disk):
        cfg, nvm, fs = _nvm_fs(disk)
        fs.create("/mail")
        fs.write("/mail", b"msg one", 0)
        log_writes = fs.writer.stats.total_blocks
        fs.sync()
        assert nvm.record_count >= 1  # the commit was absorbed...
        assert fs.writer.stats.total_blocks == log_writes  # ...not flushed

    def test_staged_writes_survive_crash_via_replay(self, disk):
        cfg, nvm, fs = _nvm_fs(disk)
        fs.create("/a")
        fs.write("/a", b"first commit", 0)
        fs.sync()
        fs.write("/a", b"second", 0)
        fs.create("/b")
        fs.write("/b", b"other file", 0)
        fs.sync()
        fs.crash()  # RAM gone; NVM device object persists
        fs2 = LFS.mount(disk, cfg, nvram=nvm)
        assert fs2.last_recovery.nvm_records_replayed >= 2
        assert not fs2.read_only
        assert fs2.read("/a") == b"second commit"[:6] + b"commit"
        assert fs2.read("/b") == b"other file"

    def test_checkpoint_truncates_the_staging_log(self, disk):
        cfg, nvm, fs = _nvm_fs(disk)
        fs.create("/f")
        fs.write("/f", b"x" * 100, 0)
        fs.sync()
        assert nvm.record_count >= 1
        fs.checkpoint()  # covered data now durable on disk
        assert nvm.record_count == 0
        # and the truncation is safe: a crash right now loses nothing
        fs.crash()
        fs2 = LFS.mount(disk, cfg, nvram=nvm)
        assert fs2.read("/f") == b"x" * 100

    def test_torn_tail_drops_only_the_last_commit(self, disk):
        cfg, nvm, fs = _nvm_fs(disk)
        fs.create("/f")
        fs.write("/f", b"durable commit", 0)
        fs.sync()
        fs.write("/f", b"torn", 0)
        fs.sync()
        fs.crash()
        nvm.tear_last_record(seed=5)
        fs2 = LFS.mount(disk, cfg, nvram=nvm)
        assert fs2.last_recovery.nvm_records_dropped == 1
        assert not fs2.last_recovery.nvm_lost
        assert not fs2.read_only  # a torn tail is the expected tear site
        assert fs2.read("/f") == b"durable commit"  # torn commit reverted

    def test_mid_log_corruption_degrades_to_read_only(self, disk):
        """Loss *before* the tail means acked commits are gone — the FS
        mounts with what it has but refuses further writes."""
        cfg, nvm, fs = _nvm_fs(disk)
        fs.create("/f")
        fs.write("/f", b"one", 0)
        fs.sync()
        fs.write("/f", b"two", 0)
        fs.sync()
        fs.crash()
        nvm.corrupt_record(0, seed=3)
        fs2 = LFS.mount(disk, cfg, nvram=nvm)
        assert fs2.last_recovery.nvm_lost
        assert fs2.read_only
        from repro.core.errors import ReadOnlyError

        with pytest.raises(ReadOnlyError):
            fs2.write_file("/new", b"refused")

    def test_dead_board_at_mount_degrades_to_read_only(self, disk):
        cfg, nvm, fs = _nvm_fs(disk)
        fs.create("/f")
        fs.write("/f", b"acked", 0)
        fs.sync()
        fs.crash()
        nvm.fail_device()
        fs2 = LFS.mount(disk, cfg, nvram=nvm)
        assert fs2.read_only  # staged commits unreadable: can't trust state

    def test_runtime_board_failure_falls_back_to_flush(self, disk):
        """A board that dies mid-run costs performance, not data: sync
        falls back to the disk flush path and the FS stays writable."""
        cfg, nvm, fs = _nvm_fs(disk)
        fs.create("/f")
        fs.write("/f", b"staged", 0)
        fs.sync()
        nvm.fail_device()
        fs.write("/f", b"after death", 0)
        fs.sync()  # must not raise; flushes to disk instead
        assert not fs.read_only
        fs.crash()
        fs2 = LFS.mount(disk, cfg)  # no board: everything is on disk
        assert fs2.read("/f") == b"after death"

    def test_large_sync_destages_directly(self, disk):
        """Writes past the destage threshold skip staging: one big flush
        beats staging megabytes through a 1 MB/s board."""
        cfg, nvm, fs = _nvm_fs(disk, NVMProfile(capacity_bytes=2048))
        fs.create("/big")
        fs.write("/big", b"z" * 100_000, 0)
        fs.sync()
        assert nvm.record_count == 0  # went straight to the log
        fs.crash()
        fs2 = LFS.mount(disk, cfg, nvram=nvm)
        assert fs2.read("/big") == b"z" * 100_000

    def test_staged_truncate_to_zero_keeps_the_uid_rule(self, disk):
        """Replay of a staged shrink to zero bumps the version exactly as
        the live truncate does, so the cleaner's uid check finds the old
        data dead (Section 3.3)."""
        cfg, nvm, fs = _nvm_fs(disk)
        fs.write_file("/f", b"old data" * 100)
        fs.checkpoint()
        inum = fs.stat("/f").inum
        version = fs.imap.version_of(inum)
        old_addr = fs.block_addr(inum, 0)
        fs.truncate("/f", 0)
        fs.fsync("/f")
        assert nvm.record_count == 1
        fs.crash()
        fs2 = LFS.mount(disk, cfg, nvram=nvm)
        assert fs2.last_recovery.nvm_metas_applied == 1
        assert fs2.stat("/f").size == 0
        assert fs2.imap.version_of(inum) == fs2.stat("/f").version == version + 1
        old = SummaryEntry(BlockKind.DATA, inum, 0, version)
        assert not fs2.cleaner._entry_live(old, old_addr)

    def test_unlink_and_rename_replay_from_staging(self, disk):
        cfg, nvm, fs = _nvm_fs(disk)
        fs.create("/doomed")
        fs.write("/doomed", b"bye", 0)
        fs.create("/src")
        fs.write("/src", b"payload", 0)
        fs.sync()
        fs.unlink("/doomed")
        fs.rename("/src", "/dst")
        fs.sync()
        fs.crash()
        fs2 = LFS.mount(disk, cfg, nvram=nvm)
        assert not fs2.exists("/doomed")
        assert not fs2.exists("/src")
        assert fs2.read("/dst") == b"payload"


# ----------------------------------------------------------------------
# per-handle fsync (the server commit path)


class TestHandleFsync:
    def _vfs(self, disk):
        return FileSystemView(LFS.format(disk, small_config()))

    def test_fsync_makes_handle_writes_durable(self, disk):
        cfg = small_config()
        fs = LFS.format(disk, cfg)
        vfs = FileSystemView(fs)
        with vfs.open("/mailbox", "w") as fh:
            fh.write(b"delivered")
            fh.fsync()
        fs.crash()
        fs2 = LFS.mount(disk, cfg)
        assert fs2.read("/mailbox") == b"delivered"

    def test_fsync_routes_through_path_fsync(self, disk):
        """The handle delegates to fs.fsync(path) when the FS has one,
        so staging attribution lands on the right file."""
        calls = []
        vfs = self._vfs(disk)
        fs = vfs.fs if hasattr(vfs, "fs") else vfs._fs
        original = fs.fsync
        fs.fsync = lambda path: calls.append(path) or original(path)
        try:
            with vfs.open("/f", "w") as fh:
                fh.write(b"x")
                fh.fsync()
        finally:
            fs.fsync = original
        assert calls == ["/f"]

    def test_double_fsync_after_close_raises(self, disk):
        """fsync on a closed handle is an error, both times — the handle
        does not silently degrade into a no-op after close."""
        vfs = self._vfs(disk)
        fh = vfs.open("/f", "w")
        fh.write(b"x")
        fh.close()
        with pytest.raises(InvalidOperationError):
            fh.fsync()
        with pytest.raises(InvalidOperationError):
            fh.fsync()  # still an error the second time

    def test_double_close_raises(self, disk):
        vfs = self._vfs(disk)
        fh = vfs.open("/f", "w")
        fh.close()
        with pytest.raises(InvalidOperationError):
            fh.close()


# ----------------------------------------------------------------------
# the server front-end's sync-write commit mode


class TestServeSyncWrites:
    def _config(self, nvram: bool):
        from repro.server.clients import WorkloadConfig
        from repro.server.frontend import ServerConfig

        return ServerConfig(
            workload=WorkloadConfig(
                clients=8, tenants=2, ops_per_client=3,
                files_per_client=1, seed=11, sync_writes=True,
            ),
            cleaner=False,
            checkpoint_interval=2.0,
            nvram=nvram,
        )

    def test_sync_writes_complete_with_and_without_the_board(self):
        from repro.server.frontend import run_server

        plain = run_server(self._config(nvram=False))
        staged = run_server(self._config(nvram=True))
        for result in (plain, staged):
            assert result.failed == 0
            assert result.requests == plain.requests
        # the board absorbs commits, so the event streams differ
        assert staged.digest != plain.digest

    def test_sync_writes_deterministic(self):
        from repro.server.frontend import run_server

        a = run_server(self._config(nvram=True))
        b = run_server(self._config(nvram=True))
        assert a.digest == b.digest
        assert a.latency_digest == b.latency_digest


# ----------------------------------------------------------------------
# two-domain torture


class TestTwoDomainTorture:
    def test_syncheavy_recording_is_two_domain(self):
        from repro.torture import record_workload

        recording = record_workload("syncheavy", 0, nvram=True)
        assert recording.nvram
        assert recording.total_blocks > 0

    def test_nvm_variants_need_a_two_domain_recording(self):
        from repro.torture import record_workload
        from repro.torture.runner import select_points

        recording = record_workload("smallfile", 0)
        with pytest.raises(ValueError, match="two-domain"):
            select_points(
                recording, sample=5, seed=0, variants=("nvm-media",)
            )

    def test_sampled_two_domain_sweep_is_clean_and_worker_invariant(self):
        from repro.torture import run_torture

        kwargs = dict(
            sample=24, seed=0, nvram=True,
            variants=("clean", "torn", "nvm-media", "nvm-dead"),
        )
        solo = run_torture("syncheavy", workers=1, **kwargs)
        assert solo.violation_count == 0, [
            p.violations for p in solo.violations
        ]
        assert any(p.nvm_active for p in solo.points)
        pooled = run_torture("syncheavy", workers=2, **kwargs)
        assert pooled.outcome_digest == solo.outcome_digest

    def test_lost_first_record_needs_the_roll_back_allowance(self):
        """Losing the first of two surviving records rolls back past the
        last barrier: the mount degrades, the judge accepts the roll-back
        as honest, and bounds from the last barrier alone would not."""
        from repro.disk.geometry import DiskGeometry
        from repro.torture import (
            TortureRecorder,
            crash_state_bounds,
            explore_point,
            snapshot_namespace,
            verify_recovered,
        )
        from repro.torture.runner import _damage_nvm

        rec = TortureRecorder(
            small_config(), DiskGeometry.wren4(num_blocks=4096),
            workload="rollback", seed=0, nvram=True,
        )
        rec.write("/a", b"checkpointed")
        rec.checkpoint()
        rec.write("/b", b"staged first")
        rec.sync()
        rec.write("/c", b"staged second")
        rec.sync()  # no flush after: both records survive
        recording = rec.finish()

        seed = next(s for s in range(64) if _damage_nvm(recording, "nvm-media", s)[1])
        probe = _damage_nvm(recording, "nvm-media", seed)[0].read_records()
        assert probe.bodies == [] and probe.dropped == 2  # record 0 is hit

        point = explore_point(recording, recording.total_blocks, "nvm-media", seed)
        assert point.nvm_read_only
        assert point.violations == []

        disk = recording.fresh_disk()
        assert recording.replay(disk) is None
        board, _ = _damage_nvm(recording, "nvm-media", seed)
        fs = LFS.mount(disk, recording.config, nvram=board)
        assert fs.read_only
        recovered = snapshot_namespace(fs)
        assert "/b" not in recovered and "/c" not in recovered
        last_barrier_bounds = crash_state_bounds(
            recording.ops, recording.barriers, recording.total_blocks
        )
        assert verify_recovered(recovered, *last_barrier_bounds)


# ----------------------------------------------------------------------
# report sections (requested-but-absent prints, NVM table renders)


class TestReportSections:
    def _observed_nvm_run(self, disk):
        from repro.obs import Observation

        obs = Observation(ring_capacity=None)
        cfg = small_config(sync_flush_barrier=True)
        nvm = NVMDevice(clock=disk.clock)
        fs = LFS.format(disk, cfg, obs=obs, nvram=nvm)
        fs.create("/f")
        fs.write("/f", b"commit", 0)
        fs.sync()
        return obs, fs

    def test_requested_empty_section_prints_not_enabled(self, disk):
        from repro.obs import Observation, build_report, render_report

        obs = Observation(ring_capacity=None)
        fs = LFS.format(disk, small_config(), obs=obs)
        fs.write_file("/f", b"data")
        fs.sync()
        report = build_report(obs, fs, sections=("flash", "nvm"))
        assert report["flash"] is None
        assert report["nvm"] is None
        text = render_report(report)
        assert "flash wear and TRIM: not enabled for this run" in text
        assert "NVM staging: not enabled for this run" in text

    def test_nvm_section_renders_when_staging_ran(self, disk):
        from repro.obs import build_report, render_report

        obs, fs = self._observed_nvm_run(disk)
        report = build_report(obs, fs, sections=("nvm",))
        assert report["nvm"] is not None
        assert report["nvm"]["appends"] >= 1
        text = render_report(report)
        assert "NVM staging" in text
        assert "not enabled" not in text
