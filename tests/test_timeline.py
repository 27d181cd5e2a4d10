"""The flight recorder: store, SLO burn, phase detection, wiring."""

from __future__ import annotations

import json

import pytest

from repro.analysis.ascii_chart import render_sparkline
from repro.core.filesystem import LFS
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.obs import (
    Observation,
    SLOObjective,
    SLOTracker,
    TimelineAnnotation,
    TimelineFormatError,
    TimelineRecorder,
    TimelineStore,
    load_timeline_jsonl,
    render_dashboard,
)
from repro.obs.events import Event, FS_READONLY, FS_SYNC
from repro.obs.timeline import (
    CLEANING_STORM,
    COL_CLEANER_SHARE,
    COL_WRITE_COST,
    NVM_STALL,
    PhaseDetector,
    READ_ONLY,
    TIMELINE_SCHEMA,
)
from repro.server.clients import WorkloadConfig
from repro.server.frontend import ServerConfig, run_server
from tests.conftest import small_config


# ----------------------------------------------------------------------
# the columnar store


class TestTimelineStore:
    def test_lazy_columns_backfill_none(self):
        store = TimelineStore(max_samples=16)
        store.append(0.0, {"a": 1})
        store.append(1.0, {"a": 2, "b": 10})
        store.append(2.0, {"b": 20})
        assert store.column("a") == [1, 2, None]
        assert store.column("b") == [None, 10, 20]
        assert store.times == [0.0, 1.0, 2.0]

    def test_thinning_halves_history_and_doubles_stride(self):
        store = TimelineStore(max_samples=4)
        thins = [store.append(float(t), {"v": t}) for t in range(5)]
        # The fifth append crosses the bound: survivors are [1::2] of the
        # five, and the stride doubles.
        assert thins == [False, False, False, False, True]
        assert store.times == [1.0, 3.0]
        assert store.column("v") == [1, 3]
        assert store.stride == 2

    def test_memory_stays_bounded_over_long_runs(self):
        store = TimelineStore(max_samples=8)
        for t in range(1000):
            store.append(float(t), {"v": t})
        assert len(store) <= 8
        assert store.stride >= 64  # several thinning passes

    def test_digest_deterministic_and_data_sensitive(self):
        def build(value):
            store = TimelineStore(max_samples=16)
            store.append(0.5, {"a": value})
            store.annotate(TimelineAnnotation(type="x", start=0.0, end=0.5))
            return store

        assert build(1).digest() == build(1).digest()
        assert build(1).digest() != build(2).digest()

    def test_sample_lines_omit_gaps(self):
        store = TimelineStore(max_samples=16)
        store.append(0.0, {"a": 1})
        store.append(1.0, {"b": 2})
        first, second = store.sample_lines()
        assert json.loads(first)["v"] == {"a": 1}
        assert json.loads(second)["v"] == {"b": 2}

    def test_jsonl_round_trip(self, tmp_path):
        store = TimelineStore(max_samples=4)
        for t in range(6):  # forces one thin: stride 2
            store.append(float(t), {"v": t * 10, "w": t % 2})
        store.annotate(TimelineAnnotation(
            type=CLEANING_STORM, start=1.0, end=3.0, severity=0.8,
            fields={"samples": 3},
        ))
        path = tmp_path / "t.jsonl"
        assert store.export_jsonl(str(path), header_fields={"cadence": 0.25}) == len(store)

        header, loaded = load_timeline_jsonl(str(path))
        assert header["schema"] == TIMELINE_SCHEMA
        assert header["cadence"] == 0.25
        assert loaded.times == store.times
        assert loaded.columns == store.columns
        assert loaded.stride == store.stride
        assert len(loaded.annotations) == 1
        ann = loaded.annotations[0]
        assert ann.type == CLEANING_STORM
        assert ann.severity == 0.8
        assert ann.fields == {"samples": 3}
        assert header["trailer"]["digest"] == store.digest()
        assert loaded.digest() == store.digest()

    def test_export_is_bit_stable(self, tmp_path):
        def export(path):
            store = TimelineStore(max_samples=8)
            store.append(0.25, {"a": 1, "b": 2.5})
            store.export_jsonl(str(path))
            return path.read_bytes()

        assert export(tmp_path / "a.jsonl") == export(tmp_path / "b.jsonl")

    def test_csv_export(self, tmp_path):
        store = TimelineStore(max_samples=8)
        store.append(0.0, {"a": 1})
        store.append(1.0, {"b": 2})
        path = tmp_path / "t.csv"
        assert store.export_csv(str(path)) == 2
        lines = path.read_text().splitlines()
        assert lines[0] == "time,a,b"
        assert lines[1] == "0.0,1,"
        assert lines[2] == "1.0,,2"

    def test_reader_rejects_sample_before_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "timeline.sample", "t": 0.0, "v": {}}\n')
        with pytest.raises(TimelineFormatError, match="before header"):
            load_timeline_jsonl(str(path))

    def test_reader_rejects_newer_schema(self, tmp_path):
        path = tmp_path / "new.jsonl"
        path.write_text(
            json.dumps({"kind": "timeline.header", "schema": TIMELINE_SCHEMA + 1})
            + "\n"
        )
        with pytest.raises(TimelineFormatError, match="newer"):
            load_timeline_jsonl(str(path))

    def test_reader_rejects_unknown_kind_and_non_json(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"kind": "timeline.header", "schema": 1}\n{"kind": "mystery"}\n')
        with pytest.raises(TimelineFormatError, match="unknown line kind"):
            load_timeline_jsonl(str(path))
        path.write_text("not json at all\n")
        with pytest.raises(TimelineFormatError, match="not valid JSON"):
            load_timeline_jsonl(str(path))

    def test_trailer_only_file_is_not_a_timeline(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trailer.jsonl"
        path.write_text('{"kind": "timeline.trailer", "schema": 1, "stride": 1}\n')
        with pytest.raises(TimelineFormatError, match="before header"):
            load_timeline_jsonl(str(path))
        assert main(["timeline", str(path)]) == 2
        assert "before header" in capsys.readouterr().err

    @pytest.mark.parametrize("lines, message", [
        (['{"kind": "timeline.header", "schema": 1}'] * 2, "not the first line"),
        (['{"kind": "timeline.header", "schema": 1}',
          '{"kind": "timeline.trailer", "schema": 1}',
          '{"kind": "timeline.sample", "t": 0.0, "v": {}}'], "after the timeline.trailer"),
        (['{"kind": "timeline.header", "schema": 1}',
          '{"kind": "timeline.trailer", "schema": 1}'] * 2, "after the timeline.trailer"),
        (['{"kind": "timeline.header", "schema": "1"}'], "integer 'schema'"),
        (['{"kind": "timeline.header", "schema": 1}', '[1, 2]'], "expected a JSON object"),
        ([], "no timeline.header line"),
    ])
    def test_reader_rejects_broken_frames(self, tmp_path, lines, message):
        path = tmp_path / "broken.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(TimelineFormatError, match=message):
            load_timeline_jsonl(str(path))


class TestSparkline:
    def test_width_and_gaps(self):
        spark = render_sparkline([0.0, None, 1.0], width=3)
        assert len(spark) == 3
        assert spark[0] == "_" and spark[1] == " " and spark[2] == "@"

    def test_constant_series_renders_top(self):
        # zero span pins every cell to the top glyph
        assert set(render_sparkline([5.0] * 4, width=4)) == {"@"}

    def test_long_series_buckets_to_width(self):
        spark = render_sparkline(list(range(100)), width=10)
        assert len(spark) == 10
        # bucketed means must still be monotone for a monotone series
        glyphs = "_.:-=+*#%@"
        assert [glyphs.index(c) for c in spark] == sorted(
            glyphs.index(c) for c in spark
        )


# ----------------------------------------------------------------------
# SLO burn rates


class TestSLOTracker:
    def test_objective_validation(self):
        with pytest.raises(ValueError):
            SLOObjective(name="x", threshold=0.0)
        with pytest.raises(ValueError):
            SLOObjective(name="x", threshold=1.0, target=1.0)
        with pytest.raises(ValueError):
            SLOObjective(name="x", threshold=1.0, windows=())

    def test_burn_rate_math(self):
        # 2 breaches out of 10 in-window against a 10% budget: burn 2.0.
        tracker = SLOTracker(SLOObjective(
            name="t", threshold=1.0, target=0.9, windows=(10.0,)))
        for i in range(10):
            tracker.record(float(i) * 0.5, 2.0 if i < 2 else 0.5)
        assert tracker.burn_rates(5.0)[10.0] == pytest.approx(2.0)

    def test_window_eviction(self):
        tracker = SLOTracker(SLOObjective(
            name="t", threshold=1.0, target=0.9, windows=(5.0,)))
        tracker.record(0.0, 9.0)   # breach, soon out of window
        tracker.record(8.0, 0.5)
        tracker.record(9.0, 0.5)
        # At t=10 the breach at t=0 left the 5s window: burn is zero.
        assert tracker.burn_rates(10.0)[5.0] == 0.0
        assert tracker.total == 3 and tracker.bad == 1

    def test_empty_window_burns_zero(self):
        tracker = SLOTracker(SLOObjective(name="t", threshold=1.0))
        assert tracker.burn_rates(100.0) == {5.0: 0.0, 60.0: 0.0}

    def test_observe_tracks_worst_and_time_above(self):
        tracker = SLOTracker(SLOObjective(
            name="t", threshold=1.0, target=0.9, windows=(5.0,)))
        tracker.record(0.5, 9.0)  # 1/1 bad: burn 10
        tracker.observe(1.0, 1.0)
        tracker.record(1.5, 0.1)
        tracker.record(2.0, 0.1)
        tracker.observe(2.0, 1.0)
        summary = tracker.summary()
        assert summary["worst_burn"]["5s"] == pytest.approx(10.0)
        # burn was above 1.0 at both observations: both dts accumulate
        assert summary["time_above_slo"] == pytest.approx(2.0)
        assert summary["requests"] == 3 and summary["breaches"] == 1

    def test_compaction_preserves_counts(self):
        def feed(tracker, poll):
            for i in range(6000):
                tracker.record(i * 0.01, 2.0 if i % 10 == 0 else 0.1)
                if poll and i % 100 == 0:
                    tracker.burn_rates(i * 0.01)
            return tracker.burn_rates(6000 * 0.01)[1.0]

        objective = SLOObjective(name="t", threshold=1.0, target=0.9,
                                 windows=(1.0,))
        # Polling every 100 events advances the head pointers far enough
        # to trigger list compaction; the final burn rate must match a
        # control tracker that never compacted.
        compacted = feed(SLOTracker(objective), poll=True)
        control = feed(SLOTracker(objective), poll=False)
        assert compacted == pytest.approx(control)
        assert compacted > 0


# ----------------------------------------------------------------------
# phase detection


class TestPhaseDetector:
    def _detector(self, out, **kw):
        return PhaseDetector(out.append, **kw)

    def test_storm_needs_consecutive_samples(self):
        out: list[TimelineAnnotation] = []
        det = self._detector(out, storm_threshold=0.5, storm_min_samples=2)
        det.on_sample(1.0, 0.0, 0.8)   # one hot sample...
        det.on_sample(2.0, 1.0, 0.1)   # ...then cool: no storm
        assert out == []
        det.on_sample(3.0, 2.0, 0.6)
        det.on_sample(4.0, 3.0, 0.9)
        det.on_sample(5.0, 4.0, 0.2)   # closes the storm
        assert len(out) == 1
        storm = out[0]
        assert storm.type == CLEANING_STORM
        assert (storm.start, storm.end) == (3.0, 4.0)
        assert storm.severity == pytest.approx(0.9)
        assert storm.fields["samples"] == 2

    def test_finish_closes_open_storm(self):
        out: list[TimelineAnnotation] = []
        det = self._detector(out)
        det.on_sample(1.0, 0.0, 0.7)
        det.on_sample(2.0, 1.0, 0.7)
        det.finish()
        assert [a.type for a in out] == [CLEANING_STORM]

    def test_none_share_closes_storm(self):
        out: list[TimelineAnnotation] = []
        det = self._detector(out)
        det.on_sample(1.0, 0.0, 0.7)
        det.on_sample(2.0, 1.0, 0.7)
        det.on_sample(3.0, 2.0, None)  # idle window: no share at all
        assert len(out) == 1

    def test_readonly_event_annotates_instant(self):
        out: list[TimelineAnnotation] = []
        det = self._detector(out)
        event = Event(time=4.2, kind=FS_READONLY, cause=None,
                      fields={"media_errors": 3, "budget": 2})
        det.on_event(event, nvm_attached=False)
        assert out[0].type == READ_ONLY
        assert out[0].start == out[0].end == 4.2
        assert out[0].fields == {"media_errors": 3, "budget": 2}

    def test_nvm_stall_window_counts_fallbacks(self):
        out: list[TimelineAnnotation] = []
        det = self._detector(out)
        sync = Event(time=1.0, kind=FS_SYNC, cause=None,
                     fields={"staged": False})
        det.on_event(sync, nvm_attached=True)
        det.on_event(sync, nvm_attached=True)
        det.on_sample(2.0, 0.5, 0.0)
        assert out[0].type == NVM_STALL
        assert (out[0].start, out[0].end) == (0.5, 2.0)
        assert out[0].fields == {"fallback_syncs": 2}

    def test_staged_sync_without_nvm_is_not_a_stall(self):
        out: list[TimelineAnnotation] = []
        det = self._detector(out)
        sync = Event(time=1.0, kind=FS_SYNC, cause=None,
                     fields={"staged": False})
        det.on_event(sync, nvm_attached=False)
        det.on_sample(2.0, 0.5, 0.0)
        assert out == []


# ----------------------------------------------------------------------
# recorder wiring: plain FS runs


def small_fs(obs):
    disk = Disk(DiskGeometry.wren4(num_blocks=4096))
    return LFS.format(disk, small_config(), obs=obs)


class TestRecorderOnFilesystem:
    def test_flush_and_checkpoint_ticks_sample(self):
        obs = Observation()
        recorder = TimelineRecorder(cadence=0.001).install(obs)
        fs = small_fs(obs)
        for i in range(20):
            fs.write_file(f"/f{i}", b"x" * 8192)
        fs.checkpoint()
        recorder.finish()
        assert recorder.samples_taken > 1
        assert obs.timeline is recorder
        costs = [v for v in recorder.store.column(COL_WRITE_COST)
                 if v is not None]
        assert costs and all(c >= 1.0 for c in costs)

    def test_cleaning_shows_in_share_column(self):
        obs = Observation()
        recorder = TimelineRecorder(cadence=0.001).install(obs)
        fs = small_fs(obs)
        for round_ in range(6):
            for i in range(40):
                fs.write_file(f"/f{i}", bytes([round_]) * 4096)
        fs.clean_now(target_clean=10**6)  # clean everything cleanable
        recorder.finish()
        shares = [v for v in recorder.store.column(COL_CLEANER_SHARE)
                  if v is not None]
        assert shares and max(shares) > 0.0

    def test_cadence_gates_sampling(self):
        obs = Observation()
        recorder = TimelineRecorder(cadence=1e9).install(obs)
        fs = small_fs(obs)
        for i in range(10):
            fs.write_file(f"/f{i}", b"x" * 4096)
        # First opportunity samples immediately; the huge cadence then
        # suppresses everything else until finish().
        assert recorder.samples_taken == 1
        recorder.finish()
        assert recorder.samples_taken == 2

    def test_finish_is_idempotent(self):
        obs = Observation()
        recorder = TimelineRecorder(cadence=0.01).install(obs)
        small_fs(obs)
        recorder.finish()
        taken = recorder.samples_taken
        recorder.finish()
        assert recorder.samples_taken == taken

    def test_effective_cadence_follows_stride(self):
        obs = Observation()
        recorder = TimelineRecorder(cadence=0.001, max_samples=8).install(obs)
        fs = small_fs(obs)
        for i in range(60):
            fs.write_file(f"/f{i}", b"x" * 8192)
        recorder.finish()
        assert recorder.store.stride > 1
        assert recorder.effective_cadence == pytest.approx(
            0.001 * recorder.store.stride)
        assert len(recorder.store) <= 8

    def test_summary_shape(self):
        obs = Observation()
        recorder = TimelineRecorder(cadence=0.01).install(obs)
        fs = small_fs(obs)
        fs.write_file("/f", b"x" * 4096)
        recorder.finish()
        summary = recorder.summary()
        assert summary["schema"] == TIMELINE_SCHEMA
        assert summary["samples"] == len(recorder.store)
        assert summary["digest"] == recorder.store.digest()
        json.dumps(summary)  # must be JSON-serializable as-is


# ----------------------------------------------------------------------
# server integration (the acceptance scenarios)


def timeline_server(**overrides) -> ServerConfig:
    workload = WorkloadConfig(
        clients=overrides.pop("clients", 40),
        tenants=overrides.pop("tenants", 4),
        ops_per_client=overrides.pop("ops_per_client", 4),
        seed=overrides.pop("seed", 7),
        heavy_fraction=overrides.pop("heavy_fraction", 0.0),
    )
    return ServerConfig(workload=workload, **overrides)


class TestServerTimeline:
    def test_recorder_never_perturbs_digests(self):
        bare = run_server(timeline_server())
        sampled = run_server(timeline_server(timeline=True, slo_latency=0.05))
        assert bare.digest == sampled.digest
        assert bare.latency_digest == sampled.latency_digest
        assert sampled.timeline["samples"] > 0
        assert bare.timeline is None

    def test_timeline_digest_deterministic(self):
        a = run_server(timeline_server(timeline=True, slo_latency=0.05))
        b = run_server(timeline_server(timeline=True, slo_latency=0.05))
        assert a.timeline["digest"] == b.timeline["digest"]
        assert a.timeline["samples"] == b.timeline["samples"]

    def test_export_bit_identical_across_runs(self, tmp_path):
        paths = []
        for name in ("a", "b"):
            obs = Observation(ring_capacity=1024)
            run_server(timeline_server(timeline=True, slo_latency=0.05),
                       obs=obs)
            path = tmp_path / f"{name}.jsonl"
            obs.timeline.export_jsonl(str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_per_tenant_latency_and_slo_columns(self):
        result = run_server(timeline_server(timeline=True, slo_latency=0.05))
        obs_summary = result.timeline
        assert obs_summary["slo"].keys() == {"t0", "t1", "t2", "t3", "server"}
        assert obs_summary["slo"]["server"]["requests"] == result.requests

    def test_aggressor_run_detects_cleaning_storm(self):
        # The acceptance scenario: one tenant hammers a small log until
        # the cleaner dominates busy time, which must surface as at
        # least one cleaning-storm annotation and a nonzero burn window.
        result = run_server(timeline_server(
            clients=150, ops_per_client=10, heavy_fraction=0.5,
            segment_bytes=64 * 1024,
            timeline=True, timeline_cadence=0.1, slo_latency=0.05,
        ))
        timeline = result.timeline
        storms = [a for a in timeline["annotations"]
                  if a["type"] == CLEANING_STORM]
        assert storms, timeline["annotations"]
        assert all(a["severity"] >= 0.5 for a in storms)
        assert timeline["peaks"]["peak_cleaner_share"] >= 0.5
        assert timeline["slo"]["server"]["worst_burn"]["60s"] > 0.0
        assert timeline["slo"]["server"]["time_above_slo"] > 0.0

    def test_dashboard_renders_key_rows(self):
        obs = Observation(ring_capacity=1024)
        run_server(timeline_server(
            clients=150, ops_per_client=10, heavy_fraction=0.5,
            segment_bytes=64 * 1024,
            timeline=True, timeline_cadence=0.1, slo_latency=0.05,
        ), obs=obs)
        recorder = obs.timeline
        text = render_dashboard(recorder.store, summary=recorder.summary())
        assert "write cost" in text
        assert "cleaner share" in text
        assert "latency.server.p99" in text
        assert "cleaning_storm" in text
        assert "slo server:" in text
        tenant_view = render_dashboard(recorder.store, tenant="t0")
        assert "latency.t0.p99" in tenant_view
        assert "latency.t1.p99" not in tenant_view
        source_view = render_dashboard(recorder.store, source="cleaner")
        assert "cleaner." in source_view
        assert "latency." not in source_view

    def test_loop_sampler_drives_cadence_between_events(self):
        # With an SLO but no trace-event sampling pressure the loop's
        # post-event sampler must still fire on the cadence grid.
        result = run_server(timeline_server(
            timeline=True, timeline_cadence=0.25))
        span = result.timeline["span"]
        expected = (span[1] - span[0]) / 0.25
        assert result.timeline["samples"] >= expected * 0.5


# ----------------------------------------------------------------------
# torture integration


class TestTortureTimeline:
    @pytest.mark.parametrize(
        "workload, nvram, variant",
        [
            ("smallfile", False, "clean"),
            ("smallfile", False, "media"),
            ("syncheavy", True, "nvm-dead"),
            ("syncheavy", True, "nvm-media"),
        ],
        ids=["clean", "media", "nvm-dead", "nvm-media"],
    )
    def test_timeline_point_samples_without_changing_outcome(self, workload, nvram, variant):
        from repro.simulator.sweep import derive_point_seed
        from repro.torture.runner import explore_point
        from repro.torture.workloads import record_workload

        recording = record_workload(workload, 3, nvram=nvram)
        cut = recording.total_blocks // 2
        seed = derive_point_seed(3, workload, cut, variant)
        plain = explore_point(recording, cut, variant, seed)
        sampled = explore_point(recording, cut, variant, seed, timeline=True)
        assert sampled.timeline_samples > 0
        assert plain.timeline_samples == 0
        assert plain.digest_line() == sampled.digest_line()
        assert sampled.ok
