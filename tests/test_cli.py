"""Tests for the CLI and disk-image persistence."""

import json

import pytest

from repro.cli import main
from repro.core.filesystem import LFS
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.disk.image import load_disk, save_disk
from repro.server import ServerConfig, WorkloadConfig, run_server

from tests.conftest import small_config


class TestDiskImage:
    def test_roundtrip_contents(self, tmp_path):
        disk = Disk(DiskGeometry.wren4(num_blocks=2048))
        disk.write_block(7, b"seven")
        disk.write_block(1000, b"k")
        path = str(tmp_path / "img")
        n = save_disk(disk, path)
        assert n == 2
        loaded = load_disk(path)
        assert loaded.peek(7).rstrip(b"\0") == b"seven"
        assert loaded.peek(1000).rstrip(b"\0") == b"k"
        assert loaded.peek(3) == bytes(4096)

    def test_roundtrip_geometry_and_clock(self, tmp_path):
        disk = Disk(DiskGeometry.modern_hdd(num_blocks=4096))
        disk.write_block(0, b"x")
        t = disk.clock.now
        path = str(tmp_path / "img")
        save_disk(disk, path)
        loaded = load_disk(path)
        assert loaded.geometry == disk.geometry
        assert loaded.clock.now == pytest.approx(t)

    def test_filesystem_survives_image_roundtrip(self, tmp_path):
        disk = Disk(DiskGeometry.wren4(num_blocks=4096))
        fs = LFS.format(disk, small_config())
        fs.write_file("/persist", b"image data")
        fs.unmount()
        path = str(tmp_path / "fs.lfs")
        save_disk(disk, path)
        fs2 = LFS.mount(load_disk(path), small_config())
        assert fs2.read("/persist") == b"image data"

    def test_bad_magic_rejected(self, tmp_path):
        from repro.core.errors import CorruptionError

        path = tmp_path / "junk"
        path.write_bytes(b"\0" * 200)
        with pytest.raises(CorruptionError):
            load_disk(str(path))

    def test_out_of_range_record_rejected(self, tmp_path):
        import struct

        from repro.core.errors import CorruptionError

        disk = Disk(DiskGeometry.wren4(num_blocks=2048))
        disk.write_block(7, b"seven")
        path = tmp_path / "img"
        save_disk(disk, str(path))
        raw = bytearray(path.read_bytes())
        # The one record's address follows the header; point it one past
        # the last block.
        struct.pack_into("<Q", raw, len(raw) - 8 - 4096, 2048)
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError, match="out of range"):
            load_disk(str(path))


class TestCli:
    @pytest.fixture
    def image(self, tmp_path):
        path = str(tmp_path / "t.lfs")
        assert main(["mkfs", path, "--size-mb", "32"]) == 0
        return path

    def test_mkfs_ls(self, image, capsys):
        assert main(["ls", image]) == 0

    def test_put_get_roundtrip(self, image, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_bytes(b"cli payload" * 100)
        assert main(["put", image, str(src), "/file.txt"]) == 0
        out = tmp_path / "out.txt"
        assert main(["get", image, "/file.txt", str(out)]) == 0
        assert out.read_bytes() == src.read_bytes()

    def test_mkdir_and_ls(self, image, capsys):
        assert main(["mkdir", image, "/sub"]) == 0
        main(["ls", image])
        assert "sub" in capsys.readouterr().out

    def test_rm(self, image, tmp_path, capsys):
        src = tmp_path / "x"
        src.write_bytes(b"bye")
        main(["put", image, str(src), "/x"])
        assert main(["rm", image, "/x"]) == 0
        main(["ls", image])
        names = [line.split()[-1] for line in capsys.readouterr().out.splitlines() if line]
        assert "x" not in names

    def test_fsck_clean(self, image, capsys):
        assert main(["fsck", image]) == 0
        assert "clean" in capsys.readouterr().out

    def test_stats(self, image, capsys):
        assert main(["stats", image]) == 0
        out = capsys.readouterr().out
        assert "write cost" in out and "clean segments" in out

    def test_dump(self, image, capsys):
        assert main(["dump", image]) == 0
        out = capsys.readouterr().out
        assert "superblock" in out and "checkpoint" in out
        assert main(["dump", image, "--segment", "0"]) == 0

    def test_state_survives_across_invocations(self, image, tmp_path):
        src = tmp_path / "a"
        src.write_bytes(b"first")
        main(["put", image, str(src), "/a"])
        src.write_bytes(b"second version")
        main(["put", image, str(src), "/b"])
        out = tmp_path / "got"
        main(["get", image, "/a", str(out)])
        assert out.read_bytes() == b"first"
        main(["get", image, "/b", str(out)])
        assert out.read_bytes() == b"second version"


# Small enough to run in a second; the heavy tenant and the SLO give the
# recorder annotations and burn-rate columns to export.
SERVE_ARGS = [
    "--clients", "60", "--tenants", "3", "--ops", "4", "--seed", "7",
    "--policy", "drr", "--slo-latency", "0.5",
]


def small_server(**workload) -> ServerConfig:
    return ServerConfig(
        workload=WorkloadConfig(
            clients=60, tenants=3, ops_per_client=4, seed=7, **workload
        ),
        policy="drr",
        timeline=True,
        slo_latency=0.5,
    )


def digests(result: dict) -> tuple[str, str, str]:
    return result["digest"], result["latency_digest"], result["timeline"]["digest"]


class TestServeCli:
    def test_digests_match_run_server(self, tmp_path, capsys):
        out = tmp_path / "serve.json"
        assert main(["serve", *SERVE_ARGS, "--timeline", "--json-out", str(out)]) == 0
        want = run_server(small_server())
        assert digests(json.loads(out.read_text())) == digests(want.to_dict())

    def test_timeline_run_exports_and_renders(self, tmp_path, capsys):
        out, export, csv = (tmp_path / n for n in ("r.json", "t.jsonl", "t.csv"))
        assert main([
            "serve", *SERVE_ARGS, "--heavy-fraction", "0.4", "--timeline",
            "--export", str(export), "--csv", str(csv), "--width", "32",
            "--json-out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        want = run_server(small_server(heavy_fraction=0.4))
        assert digests(json.loads(out.read_text())) == digests(want.to_dict())
        assert "slo server:" in printed and f"wrote {want.timeline['samples']} samples" in printed
        assert csv.read_text().startswith("time,")

        assert main(["timeline", str(export), "--tenant", "t0"]) == 0
        shown = capsys.readouterr().out
        assert f"digest {want.timeline['digest']}" in shown
        assert "latency.t0.p99" in shown

    def test_timeline_flags_need_the_recorder(self, tmp_path, capsys):
        export = tmp_path / "t.jsonl"
        assert main(["serve", *SERVE_ARGS, "--export", str(export)]) == 2
        assert "--timeline" in capsys.readouterr().err
        assert not export.exists()


WORKLOADS = ("smallfile", "largefile", "andrew", "production")
SIZES = ["--files", "200", "--file-mb", "1"]


class TestObservedWorkloads:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_trace_cross_check_passes(self, workload, capsys):
        assert main(["trace", "--workload", workload, *SIZES]) == 0
        out = capsys.readouterr().out
        assert "Table 2 inputs, from the cleaner counters" in out
        assert "Table 4, from the log-writer counters" in out

    def test_bounded_ring_keeps_the_tables(self, capsys):
        def tables(*ring):
            assert main(["trace", "--workload", "production", *SIZES, *ring]) == 0
            lines = capsys.readouterr().out.splitlines()
            start = next(i for i, l in enumerate(lines) if l.startswith("cleaning (Table 2"))
            return lines[start:start + 12]

        bounded = tables("--ring", "64")
        assert bounded == tables()
        assert bounded[-1].startswith("  summary")

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_report_runs(self, workload, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["report", "--workload", workload, *SIZES, "--json-out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["name"] == workload and report["attribution"]["total"] > 0

    def test_report_with_flash(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["report", "--workload", "smallfile", "--flash", "--json-out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["flash"]["erase_blocks"] > 0
        assert report["flash"]["programmed_pages"] > 0
        assert report["fs"]["total_live_bytes"] > 0
        assert report["fs"]["cleaning"]["segments_quarantined"] == 0
        assert report["tracer"]["emitted"]["log.segment_open"] > 0
        assert "flash wear and TRIM" in capsys.readouterr().out

    def test_flash_needs_a_geometry_workload(self, capsys):
        assert main(["trace", "--workload", "andrew", "--flash"]) == 2
        assert "--flash" in capsys.readouterr().err
