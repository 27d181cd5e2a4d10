"""The crash-consistency torture subsystem: oracle, recorder, runner, CLI."""

import json

import pytest

from repro.cli import main
from repro.core.checkpoint import read_checkpoint, read_latest_checkpoint
from repro.core.errors import CorruptionError
from repro.core.filesystem import LFS
from repro.disk.image import load_disk, save_disk
from repro.torture import (
    ModelFS,
    OpRecord,
    crash_state_bounds,
    explore_point,
    record_workload,
    run_torture,
    select_points,
    snapshot_namespace,
    verify_recovered,
)
from repro.torture.oracle import ABSENT, DIR


# ----------------------------------------------------------------------
# the oracle model


class TestModelFS:
    def test_hard_link_write_touches_all_aliases(self):
        model = ModelFS()
        model.apply(OpRecord("write", path="/a", data=b"one"))
        model.apply(OpRecord("link", path="/a", path2="/b"))
        touched = model.apply(OpRecord("write", path="/b", data=b"two"))
        assert sorted(touched) == ["/a", "/b"]
        assert model.contents("/a") == b"two"

    def test_update_zero_extends_short_files(self):
        model = ModelFS()
        model.apply(OpRecord("write", path="/f", data=b"ab"))
        model.apply(OpRecord("update", path="/f", data=b"XY", offset=5))
        assert model.contents("/f") == b"ab\0\0\0XY"

    def test_rename_moves_identity(self):
        model = ModelFS()
        model.apply(OpRecord("write", path="/old", data=b"v"))
        model.apply(OpRecord("rename", path="/old", path2="/new"))
        assert "/old" not in model.paths
        assert model.contents("/new") == b"v"


class TestOracleBounds:
    def _ops(self):
        # barrier at op 1 (sync, 10 blocks), then post-barrier churn
        ops = [
            OpRecord("write", path="/keep", data=b"durable", start_blocks=0),
            OpRecord("sync", start_blocks=4),
            OpRecord("write", path="/late", data=b"maybe", start_blocks=10),
            OpRecord("unlink", path="/keep", start_blocks=14),
        ]
        model = ModelFS()
        barriers = [model.snapshot(-1, 0)]
        model.apply(ops[0])
        barriers.append(model.snapshot(1, 10))
        return ops, barriers

    def test_untouched_durable_file_must_survive_exactly(self):
        ops, barriers = self._ops()
        guaranteed, acceptable, touched = crash_state_bounds(ops, barriers, 12)
        assert guaranteed["/keep"] == b"durable"
        assert "/keep" not in touched  # the unlink started at 14 >= cut
        violations = verify_recovered({"/": DIR}, guaranteed, acceptable, touched)
        assert any("durable /keep lost" in v for v in violations)

    def test_post_barrier_loss_is_legal(self):
        ops, barriers = self._ops()
        guaranteed, acceptable, touched = crash_state_bounds(ops, barriers, 12)
        ok = {"/": DIR, "/keep": b"durable"}  # /late legally lost
        assert verify_recovered(ok, guaranteed, acceptable, touched) == []
        also_ok = {"/": DIR, "/keep": b"durable", "/late": b"maybe"}
        assert verify_recovered(also_ok, guaranteed, acceptable, touched) == []

    def test_fabricated_content_is_a_violation(self):
        ops, barriers = self._ops()
        guaranteed, acceptable, touched = crash_state_bounds(ops, barriers, 12)
        bad = {"/": DIR, "/keep": b"durable", "/late": b"corrupted!"}
        violations = verify_recovered(bad, guaranteed, acceptable, touched)
        assert any("never a real state" in v for v in violations)

    def test_post_barrier_delete_makes_absence_legal(self):
        ops, barriers = self._ops()
        guaranteed, acceptable, touched = crash_state_bounds(ops, barriers, 20)
        assert "/keep" in touched
        assert ABSENT in acceptable["/keep"]
        gone = {"/": DIR, "/late": b"maybe"}
        assert verify_recovered(gone, guaranteed, acceptable, touched) == []

    def test_phantom_path_is_a_violation(self):
        ops, barriers = self._ops()
        guaranteed, acceptable, touched = crash_state_bounds(ops, barriers, 12)
        phantom = {"/": DIR, "/keep": b"durable", "/ghost": b"??"}
        violations = verify_recovered(phantom, guaranteed, acceptable, touched)
        assert any("phantom path /ghost" in v for v in violations)


# ----------------------------------------------------------------------
# the recorder


class TestRecording:
    def test_same_seed_records_identical_streams(self):
        a = record_workload("smallfile", 5)
        b = record_workload("smallfile", 5)
        assert a.total_blocks == b.total_blocks
        assert a.requests == b.requests
        assert [(o.kind, o.path, o.start_blocks) for o in a.ops] == [
            (o.kind, o.path, o.start_blocks) for o in b.ops
        ]
        assert [bar.blocks for bar in a.barriers] == [bar.blocks for bar in b.barriers]

    def test_different_seeds_diverge(self):
        assert (
            record_workload("smallfile", 5).requests
            != record_workload("smallfile", 6).requests
        )

    def test_barriers_fall_on_request_boundaries(self):
        rec = record_workload("largefile", 2)
        boundaries = {0}
        total = 0
        for _, payloads in rec.requests:
            total += len(payloads)
            boundaries.add(total)
        for barrier in rec.barriers:
            assert barrier.blocks in boundaries

    def test_replay_reproduces_final_image(self):
        rec = record_workload("andrew", 3)
        disk = rec.fresh_disk()
        assert rec.replay(disk) is None
        fs = LFS.mount(disk, rec.config)
        recovered = snapshot_namespace(fs)
        guaranteed, acceptable, touched = crash_state_bounds(
            rec.ops, rec.barriers, rec.total_blocks
        )
        assert verify_recovered(recovered, guaranteed, acceptable, touched) == []


# ----------------------------------------------------------------------
# the oracle catches real durability bugs (sabotage tests)


def _replay_to(recording, cut: int):
    disk = recording.fresh_disk()
    if cut < recording.total_blocks:
        disk.crash(after_writes=cut)
    recording.replay(disk)
    return disk


class TestOracleCatchesSabotage:
    def test_skipping_roll_forward_loses_synced_data(self):
        """Mounting without roll-forward must trip the oracle at some sync."""
        rec = record_workload("smallfile", 7)
        sync_barriers = [
            b for b in rec.barriers if b.op_index >= 0 and rec.ops[b.op_index].kind == "sync"
        ]
        assert sync_barriers
        caught = 0
        for barrier in sync_barriers:
            disk = _replay_to(rec, barrier.blocks)
            fs = LFS.mount(disk, rec.config, roll_forward=False)
            recovered = snapshot_namespace(fs)
            guaranteed, acceptable, touched = crash_state_bounds(
                rec.ops, rec.barriers, barrier.blocks
            )
            if verify_recovered(recovered, guaranteed, acceptable, touched):
                caught += 1
        assert caught > 0

    def test_corrupted_durable_content_is_flagged(self):
        rec = record_workload("smallfile", 7)
        cut = rec.barriers[-1].blocks
        disk = _replay_to(rec, cut)
        fs = LFS.mount(disk, rec.config)
        recovered = snapshot_namespace(fs)
        guaranteed, _, touched = crash_state_bounds(rec.ops, rec.barriers, cut)
        victim = next(
            p for p, v in guaranteed.items() if v != DIR and p not in touched
        )
        recovered[victim] = b"bitrot" + bytes(recovered[victim][6:])
        _, acceptable, _ = crash_state_bounds(rec.ops, rec.barriers, cut)
        violations = verify_recovered(recovered, guaranteed, acceptable, touched)
        assert any(victim in v for v in violations)


# ----------------------------------------------------------------------
# checkpoint-region CRC (torn/reordered checkpoint writes)


class TestCheckpointRegionCRC:
    def test_corrupted_region_fails_crc_and_older_region_wins(self, fs, disk):
        fs.write_file("/a", b"first")
        fs.checkpoint()
        fs.write_file("/b", b"second")
        fs.checkpoint()
        newest, region_b = read_latest_checkpoint(disk, fs.layout)
        # Splice stale bytes into a middle block of the newest region,
        # as an out-of-order commit of the region write would.
        start = fs.layout.checkpoint_b if region_b else fs.layout.checkpoint_a
        disk.corrupt_block(start + 1, bytes(disk.geometry.block_size))
        with pytest.raises(CorruptionError, match="CRC"):
            read_checkpoint(disk, fs.layout, region_b=region_b)
        survivor, _ = read_latest_checkpoint(disk, fs.layout)
        assert survivor.seq == newest.seq - 1


# ----------------------------------------------------------------------
# the runner


class TestRunner:
    def test_sampled_points_recover_with_zero_violations(self):
        res = run_torture("smallfile", sample=24, seed=13, workers=1)
        assert res.violation_count == 0
        assert len(res.points) == 24
        variants = {p.variant for p in res.points}
        assert {"clean", "torn", "reorder"} == variants

    def test_cleaning_workload_survives_mid_clean_crashes(self):
        res = run_torture("cleaning", sample=12, seed=21, workers=1)
        assert res.violation_count == 0

    def test_digest_is_worker_count_invariant(self):
        one = run_torture("checkpoint", sample=10, seed=3, workers=1)
        two = run_torture("checkpoint", sample=10, seed=3, workers=2)
        assert one.outcome_digest == two.outcome_digest
        assert [p.digest_line() for p in one.points] == [
            p.digest_line() for p in two.points
        ]

    def test_select_points_is_deterministic_and_seeded(self):
        rec = record_workload("checkpoint", 3)
        a = select_points(rec, sample=20, seed=5)
        b = select_points(rec, sample=20, seed=5)
        c = select_points(rec, sample=20, seed=6)
        assert a == b
        assert a != c

    def test_exhaustive_covers_whole_population(self):
        rec = record_workload("smallfile", 1)
        points = select_points(rec, sample=5, seed=0, exhaustive=True)
        assert len(points) == (rec.total_blocks + 1) * 3

    def test_unknown_variant_rejected(self):
        rec = record_workload("smallfile", 1)
        with pytest.raises(ValueError, match="unknown fault variant"):
            select_points(rec, sample=5, seed=0, variants=("clean", "gamma-ray"))

    def test_torn_point_drops_torn_partial_write(self):
        """Somewhere in the exhaustive torn sweep a torn summary/payload
        must actually be detected and dropped by recovery."""
        rec = record_workload("smallfile", 7)
        dropped = 0
        for cut in range(0, rec.total_blocks, 7):
            from repro.simulator.sweep import derive_point_seed

            point = explore_point(
                rec, cut, "torn", derive_point_seed(7, "smallfile", cut, "torn")
            )
            assert point.ok, point.violations
            dropped += point.torn_writes_dropped
        assert dropped > 0


# ----------------------------------------------------------------------
# CLI: repro torture and the fsck exit-code contract


class TestTortureCLI:
    def test_torture_writes_bench_json_and_exits_zero(self, tmp_path, capsys):
        code = main(
            [
                "torture",
                "--workload",
                "checkpoint",
                "--sample",
                "15",
                "--seed",
                "3",
                "--workers",
                "1",
                "--json",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "torture — checkpoint" in out
        bench = json.loads((tmp_path / "BENCH_torture.json").read_text())
        assert bench["bench"] == "torture"
        assert bench["schema"] == 2
        assert bench["violations"] == 0
        assert bench["steps"] == 15
        assert bench["workload"] == "checkpoint"
        assert len(bench["outcome_digest"]) == 8
        assert bench["wall_seconds"] > 0
        assert bench["git_sha"]

    def test_empty_json_flag_disables_recording(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["torture", "--workload", "smallfile", "--sample", "6", "--workers", "1", "--json", ""]
        )
        assert code == 0
        assert not (tmp_path / "benchmarks").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--variants", "clean,gamma-ray"], "unknown fault variant 'gamma-ray'"),
            (["--variants", "nvm-dead"], "needs a two-domain recording"),
            (["--sample", "-1"], "sample must be non-negative"),
            (["--variants", ""], "no fault variant"),
        ],
        ids=["unknown-variant", "nvm-without-nvram", "negative-sample", "no-variants"],
    )
    def test_bad_input_exits_two(self, argv, message, tmp_path, capsys, monkeypatch):
        # Exit 1 means an oracle violation; a request that cannot run is 2.
        monkeypatch.chdir(tmp_path)
        code = main(["torture", "--workload", "smallfile", "--workers", "1", *argv])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("torture: ") and message in err
        assert list(tmp_path.iterdir()) == []

    def test_no_json_flag_records_nothing(self, tmp_path, capsys, monkeypatch):
        # An ad-hoc run from the repo root must not overwrite the
        # checked-in benchmarks/results baseline.
        monkeypatch.chdir(tmp_path)
        code = main(["torture", "--workload", "smallfile", "--sample", "3", "--workers", "1"])
        assert code == 0
        assert list(tmp_path.iterdir()) == []
        assert "recorded" not in capsys.readouterr().out


class TestFsckCLI:
    def _make_image(self, tmp_path):
        img = tmp_path / "t.lfs"
        assert main(["mkfs", str(img), "--size-mb", "8"]) == 0
        return img

    def test_clean_image_exits_zero(self, tmp_path, capsys):
        img = self._make_image(tmp_path)
        assert main(["fsck", str(img)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        img = self._make_image(tmp_path)
        capsys.readouterr()  # drop mkfs output
        assert main(["fsck", str(img), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["errors"] == []
        assert report["checkpoint_seq"] >= 1

    def test_corrupt_image_exits_one(self, tmp_path, capsys):
        img = self._make_image(tmp_path)
        disk = load_disk(str(img))
        disk.corrupt_block(0, bytes(disk.geometry.block_size))  # zero the superblock
        save_disk(disk, str(img))
        assert main(["fsck", str(img)]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_unreadable_image_exits_two(self, tmp_path, capsys):
        junk = tmp_path / "junk.lfs"
        junk.write_bytes(b"this is not a disk image at all")
        assert main(["fsck", str(junk)]) == 2
        assert "cannot read image" in capsys.readouterr().err

    def test_missing_image_exits_two(self, tmp_path):
        assert main(["fsck", str(tmp_path / "nope.lfs")]) == 2
