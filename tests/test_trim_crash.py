"""Checkpoint-deferred TRIM × crash interleavings.

The flash honesty contract hinges on ordering: a dead segment may only be
TRIMmed after a checkpoint has made its death durable (the usage table on
disk says clean), because a trimmed block is unreadable by contract and
recovery must never want one. The drain point is
``LFS._drain_pending_trims``, called at the tail of ``checkpoint()`` —
so the dangerous crash points are the ones *inside* that checkpoint:
after some of the region write, before the trims, between usage-table
durability and trim issuance. Flash torture hits these only incidentally
(whatever its sampled cuts land on); here every cut inside every
checkpoint window is explored deliberately.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import LFSConfig
from repro.core.filesystem import LFS
from repro.disk.device import Disk
from repro.disk.geometry import FlashGeometry
from repro.simulator.sweep import derive_point_seed
from repro.torture import explore_point, record_workload

CHURN_CONFIG = dict(
    segment_bytes=32 * 1024,
    max_inodes=256,
    clean_low_water=4,
    clean_high_water=7,
    reserved_segments=3,
    segments_per_pass=4,
    write_buffer_blocks=16,
    checkpoint_interval=0.0,
    cache_blocks=1024,
)


def _checkpoint_windows(recording) -> list[tuple[int, int]]:
    """Crash-cut windows covering each checkpoint's write burst.

    A window spans from the checkpoint op's first durable unit to the
    next op's first unit (or end of stream) — every cut in it lands
    between the checkpoint starting and the next operation touching the
    device, which brackets the usage-table persist + TRIM drain.
    """
    windows = []
    for i, op in enumerate(recording.ops):
        if op.kind != "checkpoint":
            continue
        start = op.start_blocks
        end = (
            recording.ops[i + 1].start_blocks
            if i + 1 < len(recording.ops)
            else recording.total_blocks
        )
        windows.append((start, end))
    return windows


class TestTrimDrainCrashPoints:
    @pytest.mark.parametrize("variant", ["clean", "torn", "reorder"])
    def test_every_cut_inside_checkpoint_windows_recovers(self, variant):
        """Exhaustive cuts around every ``_pending_trims`` drain.

        The cleaning workload on flash drives real cleaner passes, so
        checkpoints arrive with trims queued; a crash anywhere inside
        the checkpoint must neither lose durable data (oracle) nor
        leave an image lfsck rejects (explore_point runs both).
        """
        explored = 0
        # two recordings: one seed's checkpoints span ~64 cuts since each
        # metadata block is written once per checkpoint
        for seed in (4, 5):
            recording = record_workload("cleaning", seed, flash=True)
            windows = _checkpoint_windows(recording)
            assert len(windows) >= 3, "workload must checkpoint repeatedly"
            for start, end in windows:
                for cut in range(start, end + 1):
                    point = explore_point(
                        recording,
                        cut,
                        variant,
                        derive_point_seed(seed, "cleaning-trim", cut, variant),
                    )
                    assert point.ok, (seed, cut, variant, point.violations)
                    explored += 1
        assert explored > 100  # the windows are real, not degenerate


class TestTrimDrainLive:
    def _churned_fs(self, seed: int = 5):
        rng = random.Random(seed)
        disk = Disk(FlashGeometry.nand(num_blocks=512, erase_block_blocks=64))
        fs = LFS.format(disk, LFSConfig(**CHURN_CONFIG))
        paths = [f"/f{i}" for i in range(10)]
        for p in paths:
            fs.write_file(p, bytes(rng.randrange(256) for _ in range(6000)))
        fs.sync()
        for p in paths:
            fs.write_file(p, bytes(rng.randrange(256) for _ in range(6000)))
        fs.sync()
        fs.clean_now()
        return disk, fs, paths

    def test_drain_never_trims_writer_held_segments(self):
        """Live data in an open segment survives a malicious pending set.

        Even if a writer-held or dirty segment number leaks into
        ``_pending_trims`` (the exact state a crash-interrupted drain
        could be suspected of replaying), the drain skips it: only
        still-clean, unquarantined, unheld segments are trimmed.
        """
        disk, fs, paths = self._churned_fs()
        held = set(fs.writer.open_segments())
        assert held
        live = {
            seg
            for seg in range(fs.usage.num_segments)
            if not fs.usage.get(seg).clean
        }
        fs._pending_trims |= held | live
        fs.checkpoint()  # drains; checkpoint() itself may re-dirty a seg
        assert not fs._pending_trims
        for p in paths:
            assert len(fs.read(p)) == 6000
        fs.unmount()
        fs2 = LFS.mount(disk, LFSConfig(**CHURN_CONFIG))
        for p in paths:
            assert len(fs2.read(p)) == 6000

    def test_crash_between_durability_and_drain_forgets_pending(self):
        """Crash after the region write, before TRIM issuance.

        The pending set is volatile by design: recovery rebuilds segment
        liveness from the durable usage table, so the un-issued trims
        are simply forgotten — the dead segments stay untrimmed (safe,
        merely unreclaimed) and nothing live is ever trimmed later.
        """
        disk, fs, paths = self._churned_fs()
        # Queue real trims, then crash exactly at the danger point: the
        # death is durable (previous checkpoint) but the drain never ran.
        trimmed_before = disk.flash_metrics().trimmed_pages
        pending = set(fs._pending_trims)
        fs.crash()
        assert disk.flash_metrics().trimmed_pages == trimmed_before
        fs2 = LFS.mount(disk, LFSConfig(**CHURN_CONFIG))
        assert not fs2._pending_trims  # not leaked across the crash
        for p in paths:
            assert len(fs2.read(p)) == 6000
        # The forgotten segments are still reclaimable: a later cleaning
        # pass + checkpoint may trim them again, from scratch.
        fs2.clean_now()
        fs2.checkpoint()
        assert not fs2._pending_trims
        for p in paths:
            assert len(fs2.read(p)) == 6000
        del pending  # documentation: the old set is dead with the old fs
