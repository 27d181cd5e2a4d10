"""Tests for the simulated block device."""

import random

import pytest

from repro.core.errors import DiskRangeError
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry


@pytest.fixture
def disk():
    return Disk(DiskGeometry.wren4(num_blocks=1024))


class TestReadWrite:
    def test_roundtrip(self, disk):
        disk.write_block(5, b"hello")
        assert disk.read_block(5).rstrip(b"\0") == b"hello"

    def test_unwritten_block_reads_zero(self, disk):
        assert disk.read_block(7) == bytes(4096)

    def test_short_payload_padded(self, disk):
        disk.write_block(1, b"x")
        assert len(disk.read_block(1)) == 4096

    def test_oversized_payload_rejected(self, disk):
        with pytest.raises(DiskRangeError):
            disk.write_block(1, b"x" * 5000)

    def test_out_of_range_read(self, disk):
        with pytest.raises(DiskRangeError):
            disk.read_block(1024)

    def test_out_of_range_write(self, disk):
        with pytest.raises(DiskRangeError):
            disk.write_block(-1, b"")

    def test_multiblock_roundtrip(self, disk):
        disk.write_blocks(10, [b"a" * 4096, b"b" * 4096, b"c" * 4096])
        got = disk.read_blocks(10, 3)
        assert got[0][0:1] == b"a" and got[2][0:1] == b"c"

    def test_multiblock_range_check(self, disk):
        with pytest.raises(DiskRangeError):
            disk.write_blocks(1023, [b"a", b"b"])

    def test_empty_multiblock_write_rejected(self, disk):
        with pytest.raises(DiskRangeError):
            disk.write_blocks(0, [])

    def test_peek_does_not_advance_clock(self, disk):
        disk.write_block(3, b"z")
        t = disk.clock.now
        disk.peek(3)
        assert disk.clock.now == t


class TestHeadParking:
    """A fresh arm parks at the start of the platter (head = block 0)."""

    def test_first_access_to_block_zero_is_sequential(self, disk):
        disk.write_block(0, b"x")
        # no seek, no rotational latency: pure streamed transfer
        assert disk.clock.now == pytest.approx(4096 / disk.geometry.transfer_bandwidth)
        assert disk.stats.seeks == 0

    def test_first_access_elsewhere_pays_positioning(self, disk):
        disk.write_block(7, b"x")
        assert disk.clock.now > disk.geometry.rotation_time / 2
        assert disk.stats.seeks == 1

    def test_power_on_reparks_at_block_zero(self, disk):
        disk.write_block(512, b"x")
        disk.crash()
        disk.power_on()
        t0 = disk.clock.now
        disk.read_block(0)
        assert disk.clock.now - t0 == pytest.approx(
            4096 / disk.geometry.transfer_bandwidth
        )


class TestTimeAccounting:
    def test_clock_advances_on_io(self, disk):
        t0 = disk.clock.now
        disk.write_block(0, b"x")
        assert disk.clock.now > t0

    def test_sequential_writes_stream(self, disk):
        disk.write_block(0, b"x")
        t0 = disk.clock.now
        disk.write_block(1, b"x")  # head is at block 1 already
        seq_cost = disk.clock.now - t0
        assert seq_cost == pytest.approx(4096 / disk.geometry.transfer_bandwidth)

    def test_random_write_costs_more_than_sequential(self, disk):
        disk.write_block(0, b"x")
        t0 = disk.clock.now
        disk.write_block(512, b"x")
        rand_cost = disk.clock.now - t0
        assert rand_cost > 2 * (4096 / disk.geometry.transfer_bandwidth)

    def test_large_write_amortizes_seek(self, disk):
        blocks = [b"y" * 4096] * 64
        disk.write_block(512, b"seed")  # park the head far away
        t0 = disk.clock.now
        disk.write_blocks(0, blocks)
        one_big = disk.clock.now - t0

        disk2 = Disk(DiskGeometry.wren4(num_blocks=1024))
        disk2.write_block(512, b"seed")
        t0 = disk2.clock.now
        for i, b in enumerate(blocks):
            disk2.write_block(i, b, force_latency=True)
        many_small = disk2.clock.now - t0
        assert one_big < many_small / 3

    def test_force_latency_charges_rotation_when_adjacent(self, disk):
        disk.write_block(0, b"x")
        t0 = disk.clock.now
        disk.write_block(1, b"x", force_latency=True)
        cost = disk.clock.now - t0
        assert cost >= disk.geometry.rotation_time / 2

    def test_stats_counters(self, disk):
        disk.write_blocks(0, [b"a"] * 4)
        disk.read_block(0)
        assert disk.stats.writes == 1
        assert disk.stats.blocks_written == 4
        assert disk.stats.reads == 1
        assert disk.stats.bytes_written == 4 * 4096

    def test_busy_time_equals_clock_delta_for_pure_io(self, disk):
        disk.write_blocks(0, [b"a"] * 8)
        disk.read_blocks(0, 8)
        assert disk.stats.busy_time == pytest.approx(disk.clock.now)

    def test_reset_stats(self, disk):
        disk.write_block(0, b"a")
        old = disk.reset_stats()
        assert old.writes == 1
        assert disk.stats.writes == 0


class TestCrashSemantics:
    def test_crash_blocks_io(self, disk):
        from repro.disk.faults import DiskCrashed

        disk.crash()
        with pytest.raises(DiskCrashed):
            disk.read_block(0)
        with pytest.raises(DiskCrashed):
            disk.write_block(0, b"x")

    def test_power_on_restores_contents(self, disk):
        disk.write_block(9, b"persist")
        disk.crash()
        disk.power_on()
        assert disk.read_block(9).rstrip(b"\0") == b"persist"

    def test_armed_crash_allows_exact_count(self, disk):
        from repro.disk.faults import DiskCrashed

        disk.crash(after_writes=2)
        disk.write_block(0, b"a")
        disk.write_block(1, b"b")
        with pytest.raises(DiskCrashed):
            disk.write_block(2, b"c")
        disk.power_on()
        assert disk.read_block(1).rstrip(b"\0") == b"b"
        assert disk.read_block(2) == bytes(4096)

    def test_multiblock_write_persists_prefix_on_crash(self, disk):
        from repro.disk.faults import DiskCrashed

        disk.crash(after_writes=2)
        with pytest.raises(DiskCrashed):
            disk.write_blocks(0, [b"a", b"b", b"c", b"d"])
        disk.power_on()
        assert disk.read_block(0).rstrip(b"\0") == b"a"
        assert disk.read_block(1).rstrip(b"\0") == b"b"
        assert disk.read_block(2) == bytes(4096)


class TestDeviceImageEquivalence:
    """The block-map image keeps the device's observable contract.

    Short payloads pad with zeroes, unwritten blocks read zero and stay
    unlisted, bit rot bypasses the stats, views and snapshots see stored
    bytes, and images survive a save/load round trip.
    """

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
        """A one-block view is zero-copy over the stored object.

        A write replaces the stored object instead of editing it, so the
        view keeps showing the bytes it was taken of, as a ``peek`` does.
        """
        disk = self._disk()
        stored = b"c" * 512
        disk.write_block(4, stored)
        view = disk.view(4)
        assert isinstance(view, memoryview)
        assert view.readonly
        assert view.obj is stored is disk.peek(4)
        disk.write_block(4, b"d" * 512)
        assert bytes(view) == stored
        assert disk.peek(4) == b"d" * 512

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


_WRITE_ENTRY_POINTS = {
    "write_block": lambda disk, addr, data: disk.write_block(addr, data),
    "write_blocks": lambda disk, addr, data: disk.write_blocks(addr, [data]),
    "corrupt_block": lambda disk, addr, data: disk.corrupt_block(addr, data),
}


class TestPayloadTypes:
    """Every write entry point accepts any bytes-like payload."""

    @pytest.mark.parametrize("entry", sorted(_WRITE_ENTRY_POINTS))
    @pytest.mark.parametrize("size", [100, 4096], ids=["short", "exact"])
    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_stores_an_immutable_padded_copy(self, disk, entry, size, kind):
        buf = bytearray(b"p" * size)
        data = bytes(buf) if kind is bytes else kind(buf)
        _WRITE_ENTRY_POINTS[entry](disk, 6, data)
        stored = disk.peek(6)
        assert type(stored) is bytes
        assert stored == b"p" * size + bytes(4096 - size)
        buf[0] = ord("q")  # the caller reuses its buffer
        assert disk.peek(6) == stored == b"p" * size + bytes(4096 - size)

    @pytest.mark.parametrize("kind", [bytearray, memoryview])
    def test_oversized_payload_rejected(self, disk, kind):
        with pytest.raises(DiskRangeError):
            disk.write_block(1, kind(b"x" * 5000))


class TestSharedBlocks:
    """The image stores the payload it is handed and hands it back.

    Log blocks are immutable once written, so one object serves the
    image, the block cache, torture recordings and snapshots. A copy
    reintroduced on any of these paths doubles resident memory.
    """

    def test_reads_return_the_stored_object(self, disk):
        a, b = b"a" * 4096, b"b" * 4096
        disk.write_block(3, a)
        disk.write_blocks(10, [a, b])
        assert disk.read_block(3) is a
        assert disk.peek(3) is a
        got = disk.read_blocks(10, 2)
        assert got[0] is a and got[1] is b

    def test_cold_read_caches_the_image_object(self):
        from repro.core.config import LFSConfig
        from repro.core.filesystem import LFS

        config = LFSConfig(segment_bytes=64 * 1024, max_inodes=128)
        disk = Disk(DiskGeometry.wren4(num_blocks=4096))
        fs = LFS.format(disk, config)
        fs.write_file("/f", b"x" * 10000)
        fs.unmount()
        fs = LFS.mount(disk, config)
        assert fs.read("/f") == b"x" * 10000
        inum = fs._resolve("/f")
        for fbn in range(3):
            addr = fs.filemap(inum).get(fbn)
            assert fs.cache.peek(inum, fbn).payload is disk.peek(addr)

    def test_recorded_requests_share_the_image_objects(self):
        from repro.torture.record import RecordingDisk

        rec = RecordingDisk(DiskGeometry.wren4(num_blocks=64))
        rec.recording = True
        rec.write_block(1, b"one")
        rec.write_blocks(2, [b"two" * 1000, bytearray(b"three")])
        (a1, (p1,)), (a2, (p2, p3)) = rec.requests
        assert (a1, a2) == (1, 2)
        assert p1 is rec.peek(1) and p2 is rec.peek(2) and p3 is rec.peek(3)

    def test_snapshot_is_isolated_from_later_writes(self, disk):
        disk.write_block(1, b"old")
        snap = disk.snapshot_state()
        disk.write_block(1, b"new")
        disk.write_block(2, b"more")
        assert set(snap.blocks) == {1}
        assert snap.blocks[1].rstrip(b"\0") == b"old"
        disk.restore_state(snap)
        first = {a: disk.peek(a) for a in range(8)}
        disk.write_block(5, b"after the first restore")
        disk.restore_state(snap)
        assert {a: disk.peek(a) for a in range(8)} == first
        assert sorted(disk.written_addresses()) == [1]

    def test_snapshot_refuses_another_geometry(self, disk):
        snap = disk.snapshot_state()
        with pytest.raises(DiskRangeError):
            Disk(DiskGeometry.wren4(num_blocks=2048)).restore_state(snap)

    def test_snapshot_pickles(self, disk):
        import pickle

        disk.write_blocks(0, [b"a", b"b"])
        other = Disk(DiskGeometry.wren4(num_blocks=1024))
        other.restore_state(pickle.loads(pickle.dumps(disk.snapshot_state())))
        assert other.peek(1) == disk.peek(1)
        assert sorted(other.written_addresses()) == [0, 1]
