"""Tests for the paper's proposed-but-untried extensions.

Section 4.1 proposes checkpointing by data volume; Section 3.4 proposes
reading only live blocks when cleaning nearly-empty segments. Both are
implemented behind config knobs that default to the paper's behavior.
"""

import pytest

from repro.core.config import LFSConfig
from repro.core.filesystem import LFS
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry

from tests.conftest import small_config


class TestDataTriggeredCheckpoints:
    def test_checkpoint_fires_on_data_volume(self, disk):
        fs = LFS.format(disk, small_config(checkpoint_data_blocks=64))
        base = fs.stats.checkpoints
        for i in range(40):
            fs.write_file(f"/f{i}", b"d" * 12000)
        assert fs.stats.checkpoints > base

    def test_no_checkpoint_below_threshold(self, disk):
        fs = LFS.format(disk, small_config(checkpoint_data_blocks=100000))
        base = fs.stats.checkpoints
        fs.write_file("/one", b"tiny")
        fs.sync()
        assert fs.stats.checkpoints == base

    def test_idle_time_does_not_trigger_data_checkpoints(self, disk):
        fs = LFS.format(disk, small_config(checkpoint_data_blocks=64))
        base = fs.stats.checkpoints
        disk.clock.advance(10000.0)  # a long idle period
        fs.write_file("/one", b"x")
        assert fs.stats.checkpoints == base

    def test_bounds_recovery(self, disk):
        """Data-volume checkpoints bound how much roll-forward must scan."""
        cfg = small_config(checkpoint_data_blocks=64)
        fs = LFS.format(disk, cfg)
        for i in range(60):
            fs.write_file(f"/f{i}", b"r" * 12000)
        fs.sync()
        fs.crash()
        disk.power_on()
        fs2 = LFS.mount(disk, cfg)
        # only the tail since the last data-triggered checkpoint replays
        assert fs2.last_recovery.partial_writes_replayed < 10
        for i in range(60):
            assert fs2.read(f"/f{i}") == b"r" * 12000

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LFSConfig(checkpoint_data_blocks=-1)


class TestSelectiveCleaningReads:
    def _build_sparse_segments(self, fs):
        for cohort in range(20):
            for i in range(20):
                fs.write_file(f"/c{cohort}_{i}", b"s" * 8000)
            fs.sync()  # the cohort must reach the log before it dies
            for i in range(18):
                fs.unlink(f"/c{cohort}_{i}")

    def test_selective_reads_fewer_blocks(self):
        reads = {}
        for threshold in (0.0, 0.3):
            disk = Disk(DiskGeometry.wren4(num_blocks=8192))
            fs = LFS.format(disk, small_config(selective_read_utilization=threshold))
            self._build_sparse_segments(fs)
            base = fs.cleaner.stats.blocks_read
            fs.clean_now(fs.usage.clean_count + 20)
            reads[threshold] = fs.cleaner.stats.blocks_read - base
        assert reads[0.3] < reads[0.0]

    def test_selective_cleaning_preserves_data(self):
        disk = Disk(DiskGeometry.wren4(num_blocks=8192))
        fs = LFS.format(disk, small_config(selective_read_utilization=0.5))
        self._build_sparse_segments(fs)
        survivors = {
            f"/c{cohort}_{i}": b"s" * 8000
            for cohort in range(20)
            for i in range(18, 20)
        }
        fs.clean_now(fs.usage.clean_count + 20)
        assert fs.cleaner.stats.selective_segments > 0
        for path, payload in survivors.items():
            assert fs.read(path) == payload

    def test_selective_survives_crash(self):
        disk = Disk(DiskGeometry.wren4(num_blocks=8192))
        cfg = small_config(selective_read_utilization=0.5)
        fs = LFS.format(disk, cfg)
        self._build_sparse_segments(fs)
        fs.clean_now(fs.usage.clean_count + 20)
        fs.crash()
        disk.power_on()
        fs2 = LFS.mount(disk, cfg)
        for cohort in range(20):
            for i in range(18, 20):
                assert fs2.read(f"/c{cohort}_{i}") == b"s" * 8000

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LFSConfig(selective_read_utilization=1.5)
