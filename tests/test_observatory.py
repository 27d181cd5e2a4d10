"""Tests for the segment-lifecycle observatory: spans, the per-segment
ledger (bit-identical against the legacy counters), the usage table
against lfsck's exact recount, the invariant watchdog (clean runs +
seeded violations), trace JSONL framing, and the report / bench-diff
machinery."""

import json

import pytest

from repro.core.filesystem import LFS
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.obs import (
    CHECKPOINT,
    CLEANING_READ,
    InvariantViolation,
    Observation,
    SegmentLedger,
    TRACE_SCHEMA,
    TraceFormatError,
    Watchdog,
    bench_diff,
    build_report,
    build_span_tree,
    load_bench,
    load_trace_jsonl,
    render_bench_diff,
    render_report,
    render_span_tree,
)
from repro.obs.events import (
    CHECKPOINT_WRITE,
    DISK_READ,
    DISK_WRITE,
    LOG_SEGMENT_OPEN,
    LOG_WRITE,
    MEDIA_RETRY,
    SPAN_BEGIN,
    SPAN_END,
)
from repro.obs.report import BenchFormatError
from repro.tools.lfsck import check_filesystem

from tests.conftest import small_config
from tests.test_obs import assert_trace_matches_counters


def observed_fs(num_blocks=4096, **overrides):
    """A small traced LFS with ledger + watchdog installed."""
    obs = Observation(ring_capacity=None)
    ledger = SegmentLedger()
    ledger.install(obs)
    watchdog = Watchdog().install(obs)
    disk = Disk(DiskGeometry.wren4(num_blocks=num_blocks))
    fs = LFS.format(disk, small_config(**overrides), obs=obs)
    return obs, ledger, watchdog, disk, fs


def churn(fs, rounds=10, nfiles=60):
    for r in range(rounds):
        for i in range(nfiles):
            fs.write_file(f"/f{i}", bytes([(r * 7 + i) % 256]) * 9000)
        for i in range(0, nfiles, 3):
            if fs.exists(f"/f{i}"):
                fs.unlink(f"/f{i}")


def overwrite_churn(fs, nfiles=60):
    """Write files, then overwrite just their first block.

    Whole-file deletes (plain :func:`churn`) leave fully dead segments
    that the cleaner reclaims through its zero-I/O empty fast path;
    partial overwrites leave every victim partially live, forcing real
    (non-empty) clean passes that read, move, and emit spans.
    """
    for i in range(nfiles):
        p = f"/o{i}"
        fs.create(p)
        fs.write(p, bytes([i % 256]) * 9000)
    fs.sync()
    for i in range(nfiles):
        fs.write(f"/o{i}", b"y" * 4096, 0)
    fs.sync()


# ----------------------------------------------------------------------
# spans


class TestSpans:
    def test_nested_spans_and_event_tagging(self):
        obs = Observation(ring_capacity=None)
        disk = Disk(DiskGeometry.wren4(num_blocks=1024))
        obs.attach_disk(disk)
        with obs.span("outer", label="x"):
            disk.write_block(5, b"a")
            with obs.span("inner"):
                disk.read_block(5)
        begins = obs.tracer.events(SPAN_BEGIN)
        ends = obs.tracer.events(SPAN_END)
        assert [e.fields["name"] for e in begins] == ["outer", "inner"]
        assert begins[0].fields.get("parent") is None
        assert begins[1].fields["parent"] == begins[0].fields["span"]
        assert {e.fields["name"] for e in ends} == {"outer", "inner"}
        # disk events inside a span carry the innermost open span's id
        write = obs.tracer.events(DISK_WRITE)[0]
        read = obs.tracer.events(DISK_READ)[0]
        assert write.fields["span"] == begins[0].fields["span"]
        assert read.fields["span"] == begins[1].fields["span"]

    def test_build_span_tree_durations_and_causes(self):
        obs = Observation(ring_capacity=None)
        disk = Disk(DiskGeometry.wren4(num_blocks=1024))
        obs.attach_disk(disk)
        with obs.span("outer"):
            disk.write_block(9, b"b")
            with obs.span("inner"):
                disk.read_block(40)
        roots = build_span_tree(obs.tracer.events())
        assert len(roots) == 1
        outer = roots[0]
        assert outer.name == "outer" and len(outer.children) == 1
        inner = outer.children[0]
        assert inner.name == "inner"
        assert outer.dur is not None and outer.dur > 0.0
        assert inner.dur is not None and 0.0 < inner.dur <= outer.dur
        assert outer.events == 1 and inner.events == 1
        assert sum(outer.cause_seconds.values()) > 0.0
        text = render_span_tree(obs.tracer.events())
        assert "outer" in text and "inner" in text and "dur=" in text

    def test_span_closes_on_exception(self):
        obs = Observation(ring_capacity=None)
        disk = Disk(DiskGeometry.wren4(num_blocks=64))
        obs.attach_disk(disk)
        with pytest.raises(RuntimeError):
            with obs.span("doomed"):
                raise RuntimeError("boom")
        assert obs.spans.depth == 0
        assert len(obs.tracer.events(SPAN_END)) == 1

    def test_checkpoint_emits_nested_spans(self):
        obs, _, _, _, fs = observed_fs()
        fs.write_file("/f", b"x" * 20000)
        fs.checkpoint()
        names = [e.fields["name"] for e in obs.tracer.events(SPAN_BEGIN)]
        assert "checkpoint" in names
        assert "checkpoint.region" in names
        roots = build_span_tree(obs.tracer.events())
        cp = next(n for n in roots if n.name == "checkpoint")
        assert any(c.name == "checkpoint.region" for c in cp.children)

    def test_clean_pass_emits_span(self):
        obs, _, _, _, fs = observed_fs()
        overwrite_churn(fs)
        fs.clean_now(fs.usage.clean_count + 4)
        fs.checkpoint()
        names = [e.fields["name"] for e in obs.tracer.events(SPAN_BEGIN)]
        assert "clean.pass" in names

    def test_render_empty_tree(self):
        assert render_span_tree([]) == "(no spans recorded)"


# ----------------------------------------------------------------------
# the segment ledger: bit-identical against the legacy counters


class TestSegmentLedger:
    def test_figure6_and_table2_bit_identical(self):
        obs, ledger, _, _, fs = observed_fs()
        churn(fs, rounds=6)
        overwrite_churn(fs)
        fs.clean_now(fs.usage.clean_count + 6)
        fs.checkpoint()
        stats = fs.cleaner.stats
        assert stats.segments_cleaned > 0, "workload never triggered cleaning"
        report = build_report(obs, fs, ledger)
        legacy_fig6 = [0] * 20
        for u in stats.cleaned_utilizations:
            legacy_fig6[min(19, int(u * 20))] += 1
        assert report["figure6_distribution"] == legacy_fig6
        nonempty = [u for u in stats.cleaned_utilizations if u > 0.0]
        assert report["table2"] == {
            "segments_cleaned": stats.segments_cleaned,
            "empty_segments_cleaned": stats.empty_segments_cleaned,
            "fraction_empty": stats.empty_segments_cleaned / stats.segments_cleaned,
            "avg_nonempty_utilization": (sum(nonempty) / len(nonempty)) if nonempty else 0.0,
        }
        assert report["ledger"]["segments_cleaned"] == stats.segments_cleaned

    def test_lifecycles_recorded(self):
        obs, ledger, _, _, fs = observed_fs()
        overwrite_churn(fs)
        fs.clean_now(fs.usage.clean_count + 6)
        fs.checkpoint()
        assert ledger.history, "no segment ever died"
        for life in ledger.history:
            assert life.closed
            assert life.death_cause in ("cleaned", "cleaned-empty", "quarantined")
            assert life.death_time is not None
            assert life.age_at_death is not None and life.age_at_death >= 0.0
        # at least one non-empty victim has a real biography
        cleaned = [l for l in ledger.history if l.death_cause == "cleaned"]
        assert any(l.writes > 0 for l in cleaned)
        stats = ledger.stats()
        assert stats["lives_closed"] == len(ledger.history)
        assert stats["segments_cleaned"] == fs.cleaner.stats.segments_cleaned
        json.dumps(stats)  # must be JSON-serializable for reports

    def test_media_aborted_pass_counts_no_deaths(self):
        # A latent sector in a victim aborts its pass into a rescue. The
        # victims that pass never cleaned must not reach the trace: the
        # ledger's deaths, the clean.segment utilizations and the counters
        # agree after it.
        obs, ledger, _, disk, fs = observed_fs()
        overwrite_churn(fs)
        fs.checkpoint()
        sick = next(
            s
            for s in fs.cleaner.select_segments(fs.config.segments_per_pass)
            if fs.usage.get(s).live_bytes > 0
        )
        disk.media.add_latent(fs.layout.segment_start(sick) + 1)
        fs.clean_now(fs.usage.clean_count + 6)
        fs.checkpoint()
        stats = fs.cleaner.stats
        assert stats.segments_quarantined == 1, "no pass aborted into a rescue"
        assert fs.usage.get(sick).quarantined
        assert stats.segments_cleaned > 0
        assert ledger.segments_cleaned == stats.segments_cleaned
        cleaned = [l for l in ledger.history if l.death_cause.startswith("cleaned")]
        assert len(cleaned) == stats.segments_cleaned
        assert_trace_matches_counters(obs)

    def test_survives_remount(self):
        obs, ledger, _, disk, fs = observed_fs()
        churn(fs, rounds=4)
        fs.checkpoint()
        fs.unmount()
        assert check_filesystem(disk).ok
        obs2 = Observation(ring_capacity=None)
        ledger2 = SegmentLedger()
        ledger2.install(obs2)
        Watchdog().install(obs2)
        fs2 = LFS.mount(disk, small_config(), obs=obs2)
        churn(fs2, rounds=2, nfiles=20)
        fs2.checkpoint()
        assert ledger2.stats()["total_live_bytes"] == fs2.usage.total_live_bytes()
        fs2.unmount()
        report = check_filesystem(disk)
        assert report.ok, report.errors


# ----------------------------------------------------------------------
# the usage table against lfsck's exact recount


class TestUsageRecount:
    def test_matches_recount_after_cleaning(self):
        obs, _, _, disk, fs = observed_fs()
        churn(fs, rounds=4)
        overwrite_churn(fs)
        fs.clean_now(fs.usage.clean_count + 4)
        fs.checkpoint()
        assert fs.cleaner.stats.segments_cleaned > 0
        fs.unmount()
        report = check_filesystem(disk)
        assert report.ok, report.errors

    @pytest.mark.parametrize("delta", [512, -512])
    def test_lfsck_names_tampered_segment(self, delta):
        obs, _, _, disk, fs = observed_fs()
        for i in range(8):
            fs.write_file(f"/f{i}", b"x" * 60000)
        fs.checkpoint()
        # Seed a byte-accounting bug in a *sealed* data segment (the
        # checkpoint below will not write there, so nothing hides it).
        active = (fs.writer.current_segment, fs.writer.next_segment)
        seg = next(
            s
            for s in fs.usage.dirty_segments()
            if fs.usage.get(s).live_bytes > 0 and s not in active
        )
        live = fs.usage.get(seg).live_bytes
        if delta > 0:
            fs.usage.add_live(seg, delta, 0.0)
        else:
            fs.usage.remove_live(seg, -delta)
        fs.checkpoint()
        fs.unmount()
        assert check_filesystem(disk).errors == [
            f"segment {seg}: usage table records {live + delta} live bytes "
            f"but a recount finds {live}"
        ]


# ----------------------------------------------------------------------
# the watchdog


class TestWatchdog:
    def test_clean_over_smallfile_bench(self):
        # the Figure 8 configuration, shrunk: create/read/delete phases
        from repro.workloads.smallfile import run_smallfile

        obs = Observation(ring_capacity=None)
        watchdog = Watchdog().install(obs)
        run_smallfile(
            "lfs",
            num_files=300,
            geometry=DiskGeometry.wren4(block_size=1024, num_blocks=16384),
            obs=obs,
        )
        assert watchdog.events_seen > 0
        assert watchdog.checks_run > 0

    def test_clean_over_largefile_bench(self):
        # the Figure 9 configuration, shrunk: seq/random write+read phases
        from repro.workloads.largefile import run_largefile

        obs = Observation(ring_capacity=None)
        watchdog = Watchdog().install(obs)
        run_largefile("lfs", file_size=2 * 1024 * 1024, io_unit=8192, obs=obs)
        assert watchdog.checks_run > 0

    def test_clean_under_churn_and_cleaning(self):
        obs, _, watchdog, _, fs = observed_fs()
        churn(fs, rounds=6)
        overwrite_churn(fs)
        fs.clean_now(fs.usage.clean_count + 4)
        fs.checkpoint()
        assert fs.cleaner.stats.segments_cleaned > 0
        assert watchdog.checks_run > 0

    def test_fires_on_quarantined_reopen(self):
        obs, _, watchdog, _, fs = observed_fs()
        for i in range(8):  # span several segments so one is sealed
            fs.write_file(f"/f{i}", b"x" * 60000)
        fs.sync()
        victim = next(
            s
            for s in fs.usage.dirty_segments()
            if s not in (fs.writer.current_segment, fs.writer.next_segment)
        )
        fs.usage.quarantine(victim)
        with pytest.raises(InvariantViolation) as exc_info:
            obs.emit(LOG_SEGMENT_OPEN, segment=victim)
        assert exc_info.value.invariant == "no-reopen-quarantined"
        assert exc_info.value.event.fields["segment"] == victim

    def test_fires_on_drifted_clean_count(self):
        obs, _, _, _, fs = observed_fs()
        fs.write_file("/f", b"x" * 60000)
        fs.checkpoint()  # passes: the running count equals the scan
        fs.usage.clean_count += 1  # a lost flag edge
        with pytest.raises(InvariantViolation) as exc_info:
            fs.checkpoint()
        assert exc_info.value.invariant == "clean-count-matches-scan"

    def test_fires_on_cleaner_counter_drift(self):
        obs, _, _, _, fs = observed_fs()
        fs.write_file("/f", b"x" * 9000)
        fs.cleaner.stats.live_blocks_seen += 3  # a block seen but unaccounted
        with pytest.raises(InvariantViolation) as exc_info:
            fs.checkpoint()
        assert exc_info.value.invariant == "cleaner-conservation"

    def test_violation_is_an_assertion_error(self):
        assert issubclass(InvariantViolation, AssertionError)
        err = InvariantViolation("some-invariant", "message")
        assert "[some-invariant]" in str(err)


# ----------------------------------------------------------------------
# torture smoke under the watchdog


class TestTortureWatchdog:
    def test_watchdog_torture_smoke_digest_identical(self):
        from repro.torture.runner import run_torture

        plain = run_torture(
            "smallfile", sample=6, seed=7, workers=1,
            variants=("clean", "torn", "media"),
        )
        watched = run_torture(
            "smallfile", sample=6, seed=7, workers=1,
            variants=("clean", "torn", "media"), watchdog=True,
        )
        assert not watched.violations
        # pure bookkeeping: the observatory must not perturb outcomes
        assert watched.outcome_digest == plain.outcome_digest


# ----------------------------------------------------------------------
# satellite: attribution under media retries


class TestAttributionUnderMediaRetries:
    def test_backoff_charges_clock_not_busy(self):
        obs = Observation(ring_capacity=None)
        disk = Disk(DiskGeometry.wren4(num_blocks=1024))
        obs.attach_disk(disk)
        disk.write_block(10, b"a")
        disk.media.add_transient(10, failures=2)  # fail, fail, succeed
        with obs.cause(CHECKPOINT):
            with obs.cause(CLEANING_READ):  # innermost scope wins
                disk.read_block(10)
        assert disk.stats.retries == 2
        assert disk.stats.retry_time > 0.0
        # backoff advanced the clock but charged no busy time...
        assert disk.clock.now >= disk.stats.busy_time + disk.stats.retry_time - 1e-12
        # ...and the per-cause seconds still sum exactly to busy_time
        assert obs.attribution.total == pytest.approx(disk.stats.busy_time, abs=1e-12)
        assert obs.attribution.seconds[CLEANING_READ] > 0.0
        # retry events carry the cause active at the time
        retries = obs.tracer.events(MEDIA_RETRY)
        assert len(retries) == 2
        assert all(e.cause == CLEANING_READ for e in retries)

    def test_watchdog_holds_during_retries(self):
        obs = Observation(ring_capacity=None)
        watchdog = Watchdog().install(obs)
        disk = Disk(DiskGeometry.wren4(num_blocks=1024))
        obs.attach_disk(disk)
        disk.write_block(3, b"z")
        disk.media.add_transient(3, failures=2)
        disk.read_block(3)  # attribution checks run on each disk event
        assert watchdog.checks_run > 0


# ----------------------------------------------------------------------
# satellite: trace JSONL framing and tolerant readers


class TestTraceJsonl:
    def test_trailer_reports_drops_with_warning(self, tmp_path):
        from repro.obs.tracer import Tracer

        path = tmp_path / "t.jsonl"
        tracer = Tracer(capacity=2, jsonl_path=str(path))
        for i in range(5):
            tracer.emit("disk.read", float(i), addr=i)
        assert tracer.dropped == 3
        tracer.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["kind"] == "trace.header"
        trailer = lines[-1]
        assert trailer["kind"] == "trace.trailer"
        assert trailer["events"] == 5
        assert trailer["ring_dropped"] == 3
        assert "warning" in trailer
        # write-through keeps every event even though the ring dropped
        assert len(lines) == 7

    def test_load_framed_trace(self, tmp_path):
        from repro.obs.tracer import Tracer

        path = tmp_path / "t.jsonl"
        tracer = Tracer(jsonl_path=str(path))
        tracer.emit("log.write", 1.0, segment=3)
        tracer.close()
        header, events = load_trace_jsonl(str(path))
        assert header["schema"] == TRACE_SCHEMA
        assert header["trailer"]["events"] == 1
        assert [(e.kind, e.fields["segment"]) for e in events] == [("log.write", 3)]

    def test_load_legacy_headerless_trace(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        path.write_text('{"t": 0.5, "kind": "disk.read", "addr": 1}\n')
        header, events = load_trace_jsonl(str(path))
        assert header["schema"] == 1
        assert events[0].kind == "disk.read"
        assert events[0].fields["addr"] == 1

    def test_load_rejects_garbage_with_clear_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("this is not json\n")
        with pytest.raises(TraceFormatError, match="not valid JSON"):
            load_trace_jsonl(str(path))

    def test_load_rejects_kindless_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 1.0, "addr": 5}\n')
        with pytest.raises(TraceFormatError, match="no 'kind' field"):
            load_trace_jsonl(str(path))

    def test_load_rejects_newer_schema(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"kind": "trace.header", "schema": TRACE_SCHEMA + 1}) + "\n"
        )
        with pytest.raises(TraceFormatError, match="newer than this reader"):
            load_trace_jsonl(str(path))

    def test_load_rejects_trailer_before_header(self, tmp_path):
        path = tmp_path / "swapped.jsonl"
        path.write_text(
            '{"kind": "trace.trailer", "schema": 2, "events": 1, "ring_dropped": 0}\n'
            '{"kind": "trace.header", "schema": 2}\n'
            '{"t": 0.5, "kind": "disk.read", "addr": 1}\n'
        )
        with pytest.raises(TraceFormatError, match="trace.trailer before header"):
            load_trace_jsonl(str(path))

    def test_load_rejects_misplaced_frame_lines(self, tmp_path):
        path = tmp_path / "late.jsonl"
        path.write_text(
            '{"t": 0.5, "kind": "disk.read", "addr": 1}\n'
            '{"kind": "trace.header", "schema": 2}\n'
        )
        with pytest.raises(TraceFormatError, match="not the first line"):
            load_trace_jsonl(str(path))
        path.write_text(
            '{"kind": "trace.header", "schema": 2}\n'
            '{"kind": "trace.trailer", "schema": 2, "events": 0, "ring_dropped": 0}\n'
            '{"t": 0.5, "kind": "disk.read", "addr": 1}\n'
        )
        with pytest.raises(TraceFormatError, match="after the trace.trailer"):
            load_trace_jsonl(str(path))

    def test_format_errors_share_one_base(self):
        from repro.obs import FormatError, TimelineFormatError

        for error in (TraceFormatError, TimelineFormatError, BenchFormatError):
            assert issubclass(error, FormatError) and issubclass(error, ValueError)


# ----------------------------------------------------------------------
# run reports and bench diffing


class TestRunReport:
    def test_build_and_render(self):
        obs, ledger, _, _, fs = observed_fs()
        churn(fs, rounds=4)
        overwrite_churn(fs)
        fs.clean_now(fs.usage.clean_count + 4)
        fs.checkpoint()
        report = build_report(obs, fs, ledger, name="churn")
        json.dumps(report)  # JSON-serializable end to end
        assert report["schema"] == 1
        assert report["attribution"]["total"] > 0.0
        assert report["fs"]["write_cost"] >= 1.0
        assert report["fs"]["cleaning"]["live_blocks_seen"] == (
            fs.cleaner.stats.live_blocks_seen
        )
        assert report["ledger"]["segments_cleaned"] == (
            fs.cleaner.stats.segments_cleaned
        )
        assert report["table2"] == fs.cleaner.stats.table2()
        text = render_report(report)
        assert "write cost" in text
        assert "busy-time attribution" in text


def bench(tmp_path, name, **fields):
    record = {"schema": 1, "bench": name}
    record.update(fields)
    path = tmp_path / f"BENCH_{name}.json"
    path.write_text(json.dumps(record))
    return str(path)


class TestBenchDiff:
    def test_violations_regress_on_any_increase(self, tmp_path):
        old = load_bench(bench(tmp_path, "a", violations=0, wall_seconds=1.0))
        new = load_bench(bench(tmp_path, "b", violations=1, wall_seconds=1.0))
        diff = bench_diff(old, new, threshold=0.5)
        assert diff["verdict"] == "regressed"
        assert "violations" in diff["regressed"]

    def test_perf_threshold_and_no_perf(self, tmp_path):
        old = load_bench(bench(tmp_path, "a", wall_seconds=1.0, steps_per_sec=100.0))
        new = load_bench(bench(tmp_path, "b", wall_seconds=1.2, steps_per_sec=100.0))
        diff = bench_diff(old, new, threshold=0.05)
        assert "wall_seconds" in diff["regressed"]
        relaxed = bench_diff(old, new, threshold=0.05, include_perf=False)
        assert relaxed["verdict"] == "unchanged"
        entry = next(
            m for m in relaxed["metrics"] if m["metric"] == "wall_seconds"
        )
        assert entry["verdict"] == "informational"

    def test_write_costs_flatten_and_improve(self, tmp_path):
        old = load_bench(
            bench(tmp_path, "a", write_costs={"0.75/greedy": 4.0})
        )
        new = load_bench(
            bench(tmp_path, "b", write_costs={"0.75/greedy": 3.0})
        )
        diff = bench_diff(old, new)
        assert diff["verdict"] == "improved"
        assert "write_cost[0.75/greedy]" in diff["improved"]

    def test_unknown_metrics_informational(self, tmp_path):
        old = load_bench(bench(tmp_path, "a", mystery=1.0))
        new = load_bench(bench(tmp_path, "b", mystery=99.0))
        diff = bench_diff(old, new)
        assert diff["verdict"] == "unchanged"
        render_bench_diff(diff)  # smoke

    def test_load_bench_rejects_schemaless(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"bench": "x"}))
        with pytest.raises(BenchFormatError, match="schema"):
            load_bench(str(path))

    def test_load_bench_rejects_garbage(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text("nope")
        with pytest.raises(BenchFormatError, match="not valid JSON"):
            load_bench(str(path))

    def test_cli_exit_codes(self, tmp_path):
        from repro.cli import main

        old = bench(tmp_path, "old", violations=0)
        worse = bench(tmp_path, "worse", violations=2)
        assert main(["bench-diff", old, old]) == 0
        assert main(["bench-diff", old, worse]) == 1
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{")
        assert main(["bench-diff", old, str(garbage)]) == 2


# ----------------------------------------------------------------------
# CLI trace --load


class TestTraceLoadCli:
    def test_load_and_render(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.tracer import Tracer

        path = tmp_path / "t.jsonl"
        tracer = Tracer(jsonl_path=str(path))
        tracer.emit("span.begin", 0.0, span=1, name="outer")
        tracer.emit("log.write", 0.5, segment=2, span=1)
        tracer.emit("span.end", 1.0, span=1, name="outer", dur=1.0)
        tracer.close()
        assert main(["trace", "--load", str(path), "--spans"]) == 0
        out = capsys.readouterr().out
        assert "outer" in out and "schema 2" in out

    def test_load_filters(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.tracer import Tracer

        path = tmp_path / "t.jsonl"
        tracer = Tracer(jsonl_path=str(path))
        tracer.emit("log.write", 0.5, segment=2)
        tracer.emit("disk.read", 1.5, addr=9)
        tracer.close()
        assert main(["trace", "--load", str(path), "--kind", "disk.read"]) == 0
        out = capsys.readouterr().out
        assert "disk.read" in out and "log.write" not in out

    def test_load_rejects_garbage(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.jsonl"
        path.write_text("garbage\n")
        assert main(["trace", "--load", str(path)]) == 2
