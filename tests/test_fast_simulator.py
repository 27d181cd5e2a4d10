"""The vectorized engine's identity oracle.

``FastSimulator`` exists only for speed: every observable output —
victims cleaned, block counters, write cost, cleaned-segment
utilizations, utilization histogram — must be *bit-identical* to the
reference ``Simulator``. These tests assert
exactly that, over the policy/pattern/utilization matrix, over
hypothesis-generated configurations, and at the sampler layer (the
batched RNG must replay ``random.Random`` draw for draw).

The device-image tests cover the other half of the perf work: the
contiguous ``bytearray`` image must be indistinguishable, byte for
byte, from the old per-block dict — including partial-block padding,
bit-rot injection, snapshot/restore, and image save/load.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.simulator.fast import FastSimulator  # noqa: E402
from repro.simulator.fastrand import make_sampler  # noqa: E402
from repro.simulator.model import SimConfig, Simulator  # noqa: E402
from repro.simulator.patterns import HotColdPattern, UniformPattern  # noqa: E402
from repro.simulator.policies import GroupingPolicy, SelectionPolicy  # noqa: E402
from repro.simulator.sweep import (  # noqa: E402
    SweepPoint,
    derive_point_seed,
    result_digest,
    run_sweep,
)

SELECTIONS = (SelectionPolicy.GREEDY, SelectionPolicy.COST_BENEFIT)
GROUPINGS = (GroupingPolicy.NONE, GroupingPolicy.AGE_SORT)


def make_pattern(spec: str):
    return UniformPattern() if spec == "uniform" else HotColdPattern()


def small_config(util, selection, grouping, seed=7, **overrides) -> SimConfig:
    base = dict(
        num_segments=40,
        blocks_per_segment=32,
        utilization=util,
        clean_threshold=2,
        segments_per_pass=1,
        warmup_factor=3,
        measure_factor=2,
        max_windows=4,
        stable_tol=0.1,
        stable_windows=1,
        selection=selection,
        grouping=grouping,
        seed=seed,
    )
    base.update(overrides)
    return SimConfig(**base)


def matrix_pairs() -> list[tuple[SimConfig, str]]:
    pairs = []
    for selection in SELECTIONS:
        for grouping in GROUPINGS:
            for pattern in ("uniform", "hot-cold"):
                for util in (0.4, 0.75):
                    seed = derive_point_seed(
                        99, util, selection.value, grouping.value, pattern
                    )
                    cfg = small_config(util, selection, grouping, seed=seed)
                    pairs.append((cfg, pattern))
    return pairs


class TestEngineIdentity:
    def test_full_matrix_bit_identical(self):
        """Every selection x grouping x pattern x utilization cell agrees."""
        for cfg, pattern in matrix_pairs():
            ref = Simulator(cfg, make_pattern(pattern)).run()
            fast = FastSimulator(cfg, make_pattern(pattern)).run()
            assert fast == ref, (
                f"engines diverge at {cfg.utilization}/"
                f"{cfg.selection.value}/{cfg.grouping.value}/{pattern}"
            )

    def test_identity_covers_every_oracle_field(self):
        cfg, pattern = matrix_pairs()[0]
        ref = Simulator(cfg, make_pattern(pattern)).run()
        fast = FastSimulator(cfg, make_pattern(pattern)).run()
        assert fast.write_cost == ref.write_cost
        assert fast.new_blocks == ref.new_blocks
        assert fast.moved_blocks == ref.moved_blocks
        assert fast.read_blocks == ref.read_blocks
        assert fast.segments_cleaned == ref.segments_cleaned
        assert fast.total_steps == ref.total_steps
        assert fast.cleaned_utilizations == ref.cleaned_utilizations
        assert fast.utilization_histogram == ref.utilization_histogram

    @settings(max_examples=12, deadline=None)
    @given(
        num_segments=st.integers(8, 60),
        blocks_per_segment=st.sampled_from([4, 8, 16, 32]),
        utilization=st.floats(0.2, 0.9),
        clean_threshold=st.integers(1, 4),
        segments_per_pass=st.integers(1, 3),
        selection=st.sampled_from(SELECTIONS),
        grouping=st.sampled_from(GROUPINGS),
        pattern=st.sampled_from(["uniform", "hot-cold"]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_property_random_configs_bit_identical(
        self,
        num_segments,
        blocks_per_segment,
        utilization,
        clean_threshold,
        segments_per_pass,
        selection,
        grouping,
        pattern,
        seed,
    ):
        try:
            cfg = SimConfig(
                num_segments=num_segments,
                blocks_per_segment=blocks_per_segment,
                utilization=utilization,
                clean_threshold=min(clean_threshold, max(1, num_segments // 4)),
                segments_per_pass=segments_per_pass,
                warmup_factor=2,
                measure_factor=1,
                max_windows=3,
                stable_tol=0.1,
                stable_windows=1,
                selection=selection,
                grouping=grouping,
                seed=seed,
            )
        except ValueError:  # e.g. utilization leaves no cleaner headroom
            assume(False)
        if cfg.num_files < 2:  # hot-cold needs two groups
            pattern = "uniform"
        ref = Simulator(cfg, make_pattern(pattern)).run()
        fast = FastSimulator(cfg, make_pattern(pattern)).run()
        assert fast == ref


class TestSamplerParity:
    """The batched RNG replays ``random.Random`` draw for draw."""

    def test_uniform_sampler_matches_randrange(self):
        for num_files, seed in ((1, 3), (7, 11), (960, 42), (1000, 0)):
            pattern = UniformPattern()
            pattern.bind(num_files, random.Random(seed))
            ref = [pattern.next_file() for _ in range(5000)]
            got = make_sampler(UniformPattern(), num_files, seed)
            # uneven chunks exercise the buffered refill path
            out = np.concatenate([got.take(n) for n in (1, 999, 3000, 1000)])
            assert out.tolist() == ref

    def test_hot_cold_sampler_matches_pattern(self):
        for hot, access in ((0.1, 0.9), (0.05, 0.95), (0.5, 0.6)):
            pattern = HotColdPattern(hot, access)
            pattern.bind(480, random.Random(1234))
            ref = [pattern.next_file() for _ in range(4000)]
            got = make_sampler(HotColdPattern(hot, access), 480, 1234)
            out = np.concatenate([got.take(n) for n in (17, 1983, 2000)])
            assert out.tolist() == ref

    def test_custom_pattern_falls_back_to_generic(self):
        class EveryOther(UniformPattern):
            pass

        sampler = make_sampler(EveryOther(), 16, 5)
        pattern = EveryOther()
        pattern.bind(16, random.Random(5))
        ref = [pattern.next_file() for _ in range(100)]
        assert sampler.take(100).tolist() == ref


class TestFleetIdentity:
    def test_run_sweep_engines_agree_and_digest_matches(self):
        points = [
            SweepPoint(small_config(u, s, GroupingPolicy.AGE_SORT,
                                    seed=derive_point_seed(5, u, s.value, p)), p)
            for u in (0.4, 0.75)
            for s in SELECTIONS
            for p in ("uniform", "hot-cold")
        ]
        ref = run_sweep(points, workers=1, engine="reference")
        vec = run_sweep(points, workers=1, engine="vectorized")
        assert vec == ref
        assert result_digest(vec) == result_digest(ref)


class TestDeviceImageEquivalence:
    """The contiguous image behaves exactly like the old per-block dict."""

    def _disk(self, num_blocks=256, block_size=512):
        from repro.disk.device import Disk
        from repro.disk.geometry import DiskGeometry

        return Disk(DiskGeometry.wren4(block_size=block_size, num_blocks=num_blocks))

    def test_partial_block_write_pads_with_zeroes(self):
        disk = self._disk()
        disk.write_block(3, b"short payload")
        stored = disk.peek(3)
        assert len(stored) == 512
        assert stored == b"short payload" + bytes(512 - 13)

    def test_unwritten_blocks_read_zero_and_stay_unlisted(self):
        disk = self._disk()
        disk.write_block(10, b"x" * 512)
        assert disk.read_block(200) == bytes(512)
        assert sorted(disk.written_addresses()) == [10]

    def test_corrupt_block_changes_bytes_without_stats(self):
        disk = self._disk()
        disk.write_block(7, b"a" * 512)
        before = disk.stats.writes
        disk.corrupt_block(7, b"b" * 100)
        assert disk.stats.writes == before
        assert disk.peek(7) == b"b" * 100 + bytes(412)

    def test_view_is_zero_copy_and_tracks_writes(self):
        disk = self._disk()
        disk.write_block(4, b"c" * 512)
        view = disk.view(4)
        assert isinstance(view, memoryview)
        assert view.readonly
        assert bytes(view) == disk.peek(4)
        # the view aliases live storage: a later write shows through
        disk.write_block(4, b"d" * 512)
        assert bytes(view) == b"d" * 512
        # while peek snapshots are immutable and unaffected
        snap = disk.peek(4)
        disk.write_block(4, b"e" * 512)
        assert snap == b"d" * 512

    def test_multi_block_view_spans_blocks(self):
        disk = self._disk()
        disk.write_blocks(8, [b"1" * 512, b"2" * 512])
        assert bytes(disk.view(8, 3)) == b"1" * 512 + b"2" * 512 + bytes(512)

    def test_snapshot_restore_roundtrip(self):
        disk = self._disk()
        disk.write_block(1, b"keep" * 128)
        snap = disk.snapshot_state()
        disk.write_block(1, b"lost" * 128)
        disk.write_block(99, b"also lost")
        disk.restore_state(snap)
        assert disk.peek(1) == b"keep" * 128
        assert disk.peek(99) == bytes(512)
        assert sorted(disk.written_addresses()) == [1]

    def test_image_save_load_roundtrip_preserves_crc(self, tmp_path):
        import zlib

        from repro.disk.image import load_disk, save_disk

        disk = self._disk()
        rng = random.Random(3)
        addrs = rng.sample(range(256), 40)
        for addr in addrs:
            disk.write_block(addr, rng.randbytes(rng.randrange(1, 513)))
        crc_before = zlib.crc32(b"".join(disk.peek(a) for a in sorted(addrs)))
        path = tmp_path / "img.lfs"
        save_disk(disk, str(path))
        loaded = load_disk(str(path))
        assert sorted(loaded.written_addresses()) == sorted(addrs)
        crc_after = zlib.crc32(b"".join(loaded.peek(a) for a in sorted(addrs)))
        assert crc_after == crc_before
