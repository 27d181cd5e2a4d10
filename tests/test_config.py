"""Tests for configuration and disk layout computation."""

import dataclasses
import enum

import pytest

from repro.core.config import LFSConfig, compute_layout
from repro.core.filesystem import LFS
from repro.core.policy import CleaningPolicy

from tests.conftest import small_config


class LookAlike(enum.Enum):
    """Same name and value as ``CleaningPolicy.GREEDY``, never equal to it."""

    GREEDY = "greedy"


class TestLFSConfig:
    def test_defaults_match_paper(self):
        cfg = LFSConfig()
        assert cfg.block_size == 4096
        assert cfg.segment_bytes == 512 * 1024
        assert cfg.cleaning_policy == CleaningPolicy.COST_BENEFIT
        assert cfg.checkpoint_interval == 30.0

    def test_segment_blocks(self):
        assert LFSConfig().segment_blocks == 128

    def test_rejects_unaligned_segment(self):
        with pytest.raises(ValueError):
            LFSConfig(segment_bytes=4096 * 3 + 1)

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            LFSConfig(block_size=1000)

    def test_rejects_inverted_watermarks(self):
        with pytest.raises(ValueError):
            LFSConfig(clean_low_water=10, clean_high_water=5)

    def test_rejects_tiny_segments(self):
        with pytest.raises(ValueError):
            LFSConfig(segment_bytes=4096 * 2)

    @pytest.mark.parametrize("policy", ["greedy", LookAlike.GREEDY, None])
    def test_rejects_unknown_cleaning_policy(self, policy):
        """Not silently replaced by cost-benefit in ``select_segments``."""
        with pytest.raises(ValueError, match="cleaning_policy"):
            LFSConfig(cleaning_policy=policy)

    def test_imap_blocks(self):
        cfg = LFSConfig(max_inodes=1000)
        assert cfg.imap_entries_per_block == 128
        assert cfg.imap_blocks == 8

    def test_usage_entries_per_block(self):
        assert LFSConfig().seg_usage_entries_per_block == 4096 // 24


def _non_default(value):
    """A valid value of the same type that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, CleaningPolicy):
        return next(p for p in CleaningPolicy if p is not value)
    return value + 0.25 if isinstance(value, float) else value + 1


class TestMountKeepsRuntimeConfig:
    def test_every_runtime_field_survives_mount(self, disk):
        """A field added to LFSConfig must not be dropped at remount."""
        on_disk = small_config()
        LFS.format(disk, on_disk).unmount()
        geometry = {"block_size": 8192, "segment_bytes": 1 << 20, "max_inodes": 64}
        knobs = {
            f.name: _non_default(f.default)
            for f in dataclasses.fields(LFSConfig)
            if f.name not in geometry
        }
        mounted = LFS.mount(disk, LFSConfig(**geometry, **knobs)).config
        for name, value in knobs.items():
            assert getattr(mounted, name) == value, name
        for name, value in geometry.items():
            assert getattr(mounted, name) == getattr(on_disk, name) != value, name


class TestLayout:
    def test_structure_order(self):
        cfg = LFSConfig(max_inodes=1024, segment_bytes=128 * 1024)
        layout = compute_layout(cfg, 8192)
        assert layout.checkpoint_a == 1
        assert layout.checkpoint_b == layout.checkpoint_a + layout.checkpoint_blocks
        assert layout.segment_area_start == layout.checkpoint_b + layout.checkpoint_blocks
        assert layout.num_segments >= 1

    def test_segments_fit_on_device(self):
        cfg = LFSConfig(max_inodes=1024, segment_bytes=128 * 1024)
        layout = compute_layout(cfg, 8192)
        last_end = layout.segment_start(layout.num_segments - 1) + cfg.segment_blocks
        assert last_end <= 8192

    def test_segment_addressing_roundtrip(self):
        cfg = LFSConfig(max_inodes=1024, segment_bytes=128 * 1024)
        layout = compute_layout(cfg, 8192)
        for seg in (0, 1, layout.num_segments - 1):
            start = layout.segment_start(seg)
            assert layout.segment_of(start) == seg
            assert layout.segment_of(start + cfg.segment_blocks - 1) == seg

    def test_segment_of_rejects_fixed_area(self):
        cfg = LFSConfig(max_inodes=1024, segment_bytes=128 * 1024)
        layout = compute_layout(cfg, 8192)
        with pytest.raises(ValueError):
            layout.segment_of(0)

    def test_segment_start_rejects_out_of_range(self):
        cfg = LFSConfig(max_inodes=1024, segment_bytes=128 * 1024)
        layout = compute_layout(cfg, 8192)
        with pytest.raises(ValueError):
            layout.segment_start(layout.num_segments)

    def test_too_small_device_rejected(self):
        cfg = LFSConfig(max_inodes=1024, segment_bytes=512 * 1024)
        with pytest.raises(ValueError):
            compute_layout(cfg, 512)

    def test_checkpoint_region_scales_with_inodes(self):
        small = compute_layout(LFSConfig(max_inodes=1024, segment_bytes=128 * 1024), 65536)
        big = compute_layout(LFSConfig(max_inodes=500000, segment_bytes=128 * 1024), 65536)
        assert big.checkpoint_blocks > small.checkpoint_blocks
