"""End-to-end integration scenarios crossing multiple subsystems."""

import random

import pytest

from repro.core.filesystem import LFS
from repro.core.policy import CleaningPolicy
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry

from tests.conftest import small_config


class TestLongLivedFilesystem:
    def test_sustained_churn_with_periodic_crashes(self):
        """Months-of-use analogue: churn, clean, crash, recover, repeat."""
        disk = Disk(DiskGeometry.wren4(num_blocks=8192))
        cfg = small_config(checkpoint_interval=20.0)
        fs = LFS.format(disk, cfg)
        rng = random.Random(77)
        model: dict[str, bytes] = {}
        for era in range(4):
            for _ in range(150):
                name = f"/e{rng.randrange(40)}"
                if rng.random() < 0.3 and name in model:
                    fs.unlink(name)
                    del model[name]
                else:
                    payload = bytes([rng.randrange(256)]) * rng.randrange(500, 15000)
                    fs.write_file(name, payload)
                    model[name] = payload
            fs.sync()
            fs.crash()
            disk.power_on()
            fs = LFS.mount(disk, cfg)
            for name, payload in model.items():
                assert fs.read(name) == payload, (era, name)
        assert fs.cleaner.stats.segments_cleaned >= 0  # survived throughout

    def test_fill_then_free_then_reuse(self):
        """Write to near capacity, delete most, and write again."""
        disk = Disk(DiskGeometry.wren4(num_blocks=8192))
        fs = LFS.format(disk, small_config())
        big = b"F" * 60000
        count = 0
        # fill to ~70%
        while fs.disk_capacity_utilization < 0.70:
            fs.write_file(f"/fill{count}", big)
            count += 1
        for i in range(0, count, 2):
            fs.unlink(f"/fill{i}")
        # second generation reuses cleaned space
        for i in range(count // 2):
            fs.write_file(f"/gen2_{i}", big)
        for i in range(count // 2):
            assert fs.read(f"/gen2_{i}") == big
        for i in range(1, count, 2):
            assert fs.read(f"/fill{i}") == big

    def test_greedy_policy_end_to_end(self):
        disk = Disk(DiskGeometry.wren4(num_blocks=8192))
        fs = LFS.format(disk, small_config(cleaning_policy=CleaningPolicy.GREEDY))
        payloads = {}
        for r in range(12):
            for i in range(70):
                payloads[f"/g{i}"] = bytes([r * 3 + i & 0xFF]) * 8000
                fs.write_file(f"/g{i}", payloads[f"/g{i}"])
        for path, want in payloads.items():
            assert fs.read(path) == want

    def test_deep_tree_survives_remount(self):
        disk = Disk(DiskGeometry.wren4(num_blocks=8192))
        cfg = small_config()
        fs = LFS.format(disk, cfg)
        path = ""
        for depth in range(12):
            path += f"/d{depth}"
            fs.mkdir(path)
        fs.write_file(path + "/leaf", b"deep")
        fs.unmount()
        fs2 = LFS.mount(disk, cfg)
        assert fs2.read(path + "/leaf") == b"deep"
        # directory chain intact at every level
        probe = ""
        for depth in range(12):
            probe += f"/d{depth}"
            assert fs2.exists(probe)

    def test_simulated_time_only_advances_with_work(self):
        disk = Disk(DiskGeometry.wren4(num_blocks=4096))
        fs = LFS.format(disk, small_config())
        t0 = disk.clock.now
        fs.exists("/nothing")  # resolves from memory: no disk traffic
        assert disk.clock.now == t0
        fs.write_file("/f", b"x" * 200000)
        fs.sync()
        assert disk.clock.now > t0


class TestTwoSystemsSameWorkload:
    def test_lfs_and_ffs_agree_on_contents(self):
        """Both file systems, same operations, identical observable state."""
        from repro.ffs.filesystem import FFS, FFSConfig

        lfs_disk = Disk(DiskGeometry.wren4(num_blocks=8192))
        lfs = LFS.format(lfs_disk, small_config())
        ffs_disk = Disk(DiskGeometry.wren4(block_size=8192, num_blocks=4096))
        ffs = FFS.format(ffs_disk, FFSConfig(max_inodes=2048))

        rng = random.Random(5)
        model = {}
        for step in range(120):
            op = rng.choice(["write", "write", "delete", "truncate"])
            name = f"/x{rng.randrange(25)}"
            if op == "write":
                payload = bytes([step % 256]) * rng.randrange(100, 30000)
                lfs.write_file(name, payload)
                ffs.write_file(name, payload)
                model[name] = payload
            elif op == "delete" and name in model:
                lfs.unlink(name)
                ffs.unlink(name)
                del model[name]
            elif op == "truncate" and name in model:
                keep = rng.randrange(len(model[name]) + 1)
                lfs.truncate(name, keep)
                ffs.truncate(name, keep)
                model[name] = model[name][:keep]
        for name, want in model.items():
            assert lfs.read(name) == want
            assert ffs.read(name) == want
        assert lfs.readdir("/") == ffs.readdir("/")
