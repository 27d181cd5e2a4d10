"""Tests for the observability layer: tracer, attribution, registry,
unmetered cache peeks, and trace-vs-counter agreement."""

import json

import pytest

from repro.core.cache import BlockCache
from repro.core.cleaner import Cleaner, CleanerStats
from repro.core.filesystem import LFS
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.obs import (
    APPLICATION_READ,
    CHECKPOINT,
    CLEANING_READ,
    CLEANING_WRITE,
    DATA_WRITE,
    MetricsRegistry,
    Observation,
    TRACE_SCHEMA,
    TimeAttribution,
    Tracer,
    load_trace_jsonl,
    scrape,
)
from repro.obs.events import (
    CHECKPOINT_WRITE,
    CLEAN_SEGMENT,
    DISK_READ,
    DISK_WRITE,
    LOG_SEGMENT_OPEN,
    LOG_WRITE,
)

from tests.conftest import small_config


def assert_trace_matches_counters(obs) -> None:
    """The trace records what the counters count: each cleaned
    segment's utilization, in order, and each log write's blocks by kind."""
    cleaner = obs.registry.source("cleaner")
    utils = [e.fields["utilization"] for e in obs.tracer.events(CLEAN_SEGMENT)]
    assert utils == cleaner.cleaned_utilizations
    kinds: dict[str, int] = {}
    for event in obs.tracer.events(LOG_WRITE):
        for name, count in event.fields["kinds"].items():
            kinds[name] = kinds.get(name, 0) + count
    log = obs.registry.source("log")
    assert kinds == {kind.name: n for kind, n in log.blocks_by_kind.items() if n}
    assert sum(kinds.values()) == log.total_blocks


# ----------------------------------------------------------------------
# tracer


class TestTracer:
    def test_ring_drops_oldest(self):
        tracer = Tracer(capacity=4)
        for i in range(6):
            tracer.emit("disk.read", float(i), addr=i)
        assert len(tracer) == 4
        assert tracer.total_emitted == 6
        assert tracer.dropped == 2
        assert [e.fields["addr"] for e in tracer.events()] == [2, 3, 4, 5]

    def test_unbounded_ring(self):
        tracer = Tracer(capacity=None)
        for i in range(100):
            tracer.emit("disk.read", float(i))
        assert len(tracer) == 100
        assert tracer.dropped == 0

    def test_kind_filter(self):
        tracer = Tracer(capacity=None, kinds=(LOG_WRITE,))
        tracer.emit(DISK_READ, 0.0)
        tracer.emit(LOG_WRITE, 1.0, segment=3)
        assert len(tracer) == 1
        assert tracer.events()[0].kind == LOG_WRITE
        # emitted_counts is pre-filter; dropped excludes filtered kinds
        assert tracer.emitted_counts == {DISK_READ: 1, LOG_WRITE: 1}
        assert tracer.dropped == 0

    def test_events_by_kind(self):
        tracer = Tracer()
        tracer.emit("a", 0.0)
        tracer.emit("b", 1.0)
        tracer.emit("a", 2.0)
        assert len(tracer.events("a")) == 2
        assert len(tracer.events("b")) == 1

    def test_jsonl_write_through(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(jsonl_path=str(path))
        tracer.emit(DISK_WRITE, 1.5, cause=DATA_WRITE, addr=7, blocks=2)
        tracer.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        # Schema-2 framing: header line first, trailer line last.
        assert lines[0] == {"kind": "trace.header", "schema": TRACE_SCHEMA}
        assert lines[1] == {
            "t": 1.5, "kind": DISK_WRITE, "cause": DATA_WRITE, "addr": 7, "blocks": 2
        }
        assert lines[-1]["kind"] == "trace.trailer"
        assert lines[-1]["events"] == 1
        assert lines[-1]["ring_dropped"] == 0
        assert "warning" not in lines[-1]

    def test_export_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer()
        tracer.emit("x", 0.0, n=1)
        tracer.emit("y", 1.0, n=2)
        path = tmp_path / "out.jsonl"
        assert tracer.export_jsonl(str(path)) == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [l["kind"] for l in lines] == ["trace.header", "x", "y", "trace.trailer"]
        header, events = load_trace_jsonl(str(path))
        assert header["schema"] == TRACE_SCHEMA
        assert [(e.kind, e.fields["n"]) for e in events] == [("x", 1), ("y", 2)]


# ----------------------------------------------------------------------
# attribution


class TestTimeAttribution:
    def test_direction_defaults(self):
        attr = TimeAttribution()
        attr.charge(1.0, write=True)
        attr.charge(2.0, write=False)
        assert attr.seconds[DATA_WRITE] == 1.0
        assert attr.seconds[APPLICATION_READ] == 2.0

    def test_scope_overrides_direction(self):
        attr = TimeAttribution()
        with attr.cause(CLEANING_READ):
            attr.charge(3.0, write=False)
        assert attr.seconds[CLEANING_READ] == 3.0
        assert attr.seconds[APPLICATION_READ] == 0.0

    def test_innermost_scope_wins(self):
        attr = TimeAttribution()
        with attr.cause(CLEANING_WRITE):
            with attr.cause(CHECKPOINT):
                attr.charge(1.0, write=True)
            attr.charge(2.0, write=True)
        assert attr.seconds[CHECKPOINT] == 1.0
        assert attr.seconds[CLEANING_WRITE] == 2.0

    def test_scope_pops_on_exception(self):
        attr = TimeAttribution()
        with pytest.raises(RuntimeError):
            with attr.cause(CHECKPOINT):
                raise RuntimeError("boom")
        assert attr.current_cause(write=True) == DATA_WRITE

    def test_total_and_fractions(self):
        attr = TimeAttribution()
        attr.charge(1.0, write=True)
        attr.charge(3.0, write=False)
        assert attr.total == 4.0
        fractions = attr.fractions()
        assert fractions[DATA_WRITE] == 0.25
        assert abs(sum(fractions.values()) - 1.0) < 1e-12
        assert "data_write" in attr.render()


# ----------------------------------------------------------------------
# metrics registry


class TestMetricsRegistry:
    def test_scrape_skips_non_numeric(self):
        class Bag:
            def __init__(self):
                self.count = 3
                self.ratio = 0.5
                self.flag = True
                self.name = "x"
                self.items = [1, 2, 3]
                self._private = 9

        scraped = scrape(Bag())
        assert scraped == {"count": 3, "ratio": 0.5, "items_count": 3}

    def test_scrape_enum_keyed_dict(self, fs):
        fs.write_file("/f", b"x" * 5000)
        fs.checkpoint()
        scraped = scrape(fs.writer.stats)
        assert scraped["blocks_by_kind"]["DATA"] >= 2
        assert scraped["total_blocks"] == fs.writer.stats.total_blocks

    def test_snapshot_delta(self, disk):
        obs = Observation().attach_disk(disk)
        disk.read_block(0)
        first = obs.registry.snapshot()
        disk.read_block(100)
        second = obs.registry.snapshot()
        delta = MetricsRegistry.delta(second, first)
        assert delta["io"]["reads"] == 1
        assert delta["io"]["busy_time"] > 0.0

    def test_callable_source_survives_reset(self, disk):
        obs = Observation().attach_disk(disk)
        disk.read_block(0)
        disk.reset_stats()
        assert obs.registry.snapshot()["io"]["reads"] == 0

    def test_callable_source_re_resolves_each_snapshot(self, disk):
        # reset_stats swaps the stats object out from under the
        # registration; the callable must chase the new object, and the
        # registry delta across the swap goes negative, not undefined.
        obs = Observation().attach_disk(disk)
        disk.read_block(0)
        disk.read_block(64)
        first = obs.registry.snapshot()
        disk.reset_stats()
        second = obs.registry.snapshot()
        delta = MetricsRegistry.delta(second, first)
        assert first["io"]["reads"] == 2
        assert second["io"]["reads"] == 0
        assert delta["io"]["reads"] == -2

    def test_scrape_mixed_dict_keeps_numeric_entries(self):
        class Bag:
            def __init__(self):
                self.by_kind = {"DATA": 7, "note": "hi", "ok": True, "ratio": 0.5}

        scraped = scrape(Bag())
        # Numeric entries survive individually; the string and the bool
        # are skipped and counted, not the whole dict dropped.
        assert scraped["by_kind"] == {"DATA": 7, "ratio": 0.5}
        assert scraped["by_kind_skipped"] == 2

    def test_scrape_all_numeric_dict_has_no_skip_counter(self):
        class Bag:
            def __init__(self):
                self.by_kind = {"DATA": 7, "META": 1}

        scraped = scrape(Bag())
        assert scraped["by_kind"] == {"DATA": 7, "META": 1}
        assert "by_kind_skipped" not in scraped

    def test_scrape_bool_dict_values_are_skipped(self):
        class Bag:
            def __init__(self):
                self.flags = {"a": True, "b": False, "n": 2}

        scraped = scrape(Bag())
        assert scraped["flags"] == {"n": 2}
        assert scraped["flags_skipped"] == 2

    def test_delta_field_only_in_earlier_goes_negative(self):
        earlier = {"src": {"gauge": 5, "by_kind": {"A": 3, "B": 1}}}
        later = {"src": {"by_kind": {"A": 4}}}
        delta = MetricsRegistry.delta(later, earlier)
        assert delta["src"]["gauge"] == -5
        assert delta["src"]["by_kind"] == {"A": 1, "B": -1}

    def test_delta_source_only_in_earlier_goes_negative(self):
        earlier = {"gone": {"reads": 2, "by_kind": {"X": 4}}}
        delta = MetricsRegistry.delta({}, earlier)
        assert delta["gone"]["reads"] == -2
        assert delta["gone"]["by_kind"] == {"X": -4}

    def test_delta_sums_across_phases(self):
        # The reason disappearing fields go negative: deltas over
        # consecutive phases must telescope to the end-to-end delta.
        s0 = {"src": {"n": 0, "tmp": 0}}
        s1 = {"src": {"n": 3, "tmp": 7}}
        s2 = {"src": {"n": 5}}  # tmp deregistered mid-run
        d01 = MetricsRegistry.delta(s1, s0)
        d12 = MetricsRegistry.delta(s2, s1)
        d02 = MetricsRegistry.delta(s2, s0)
        total = {
            f: d01["src"].get(f, 0) + d12["src"].get(f, 0)
            for f in set(d01["src"]) | set(d12["src"])
        }
        assert total == d02["src"]

    def test_render_smoke(self, disk):
        obs = Observation().attach_disk(disk)
        disk.read_block(0)
        assert "busy_time" in obs.registry.render()


# ----------------------------------------------------------------------
# unmetered cache peeks


class TestCachePeek:
    def test_peek_is_unmetered(self):
        cache = BlockCache(capacity_blocks=4)
        cache.insert_clean(1, 0, b"a")
        assert cache.peek(1, 0) is not None
        assert cache.peek(1, 1) is None
        assert cache.hits == 0 and cache.misses == 0
        assert cache.lookup(1, 0) is not None
        assert cache.hits == 1

    def test_peek_does_not_refresh_lru(self):
        cache = BlockCache(capacity_blocks=2)
        cache.insert_clean(1, 0, b"a")
        cache.insert_clean(1, 1, b"b")
        cache.peek(1, 0)  # must NOT move (1,0) to the MRU end
        cache.insert_clean(1, 2, b"c")  # evicts the true LRU: (1,0)
        assert not cache.contains(1, 0)
        assert cache.contains(1, 1) and cache.contains(1, 2)

    def test_lookup_does_refresh_lru(self):
        cache = BlockCache(capacity_blocks=2)
        cache.insert_clean(1, 0, b"a")
        cache.insert_clean(1, 1, b"b")
        cache.lookup(1, 0)  # refreshes: (1,1) becomes LRU
        cache.insert_clean(1, 2, b"c")
        assert cache.contains(1, 0)
        assert not cache.contains(1, 1)


class TestCacheEvictionPressure:
    def test_mixed_dirty_clean_pressure_at_capacity(self):
        cache = BlockCache(capacity_blocks=4)
        events = []

        class StubObs:
            def emit(self, kind, **fields):
                events.append((kind, fields))

        cache.obs = StubObs()
        cache.write(1, 0, b"d0", mtime=0.0)
        cache.write(1, 1, b"d1", mtime=0.0)
        cache.insert_clean(2, 0, b"c0")
        cache.insert_clean(2, 1, b"c1")
        cache.insert_clean(2, 2, b"c2")  # over capacity: clean LRU goes
        assert len(cache) == 4
        # dirty blocks are pinned; the clean LRU (2,0) was evicted
        assert cache.contains(1, 0) and cache.contains(1, 1)
        assert not cache.contains(2, 0)
        assert ("cache.evict", {"inum": 2, "fbn": 0}) in events

    def test_all_dirty_exceeds_capacity_without_eviction(self):
        cache = BlockCache(capacity_blocks=2)
        for fbn in range(4):
            cache.write(1, fbn, b"d", mtime=0.0)
        assert len(cache) == 4  # nothing evictable; flush policy bounds this
        assert cache.dirty_count == 4


# ----------------------------------------------------------------------
# cleaner vs cache metering


def churn(fs, rounds=10, nfiles=60):
    for r in range(rounds):
        for i in range(nfiles):
            fs.write_file(f"/f{i}", bytes([(r * 7 + i) % 256]) * 9000)
        for i in range(0, nfiles, 3):
            if fs.exists(f"/f{i}"):
                fs.unlink(f"/f{i}")


class TestCleanerDoesNotPerturbCache:
    def _dirty_victim(self, fs):
        for seg in fs.usage.dirty_segments():
            if seg in (fs.writer.current_segment, fs.writer.next_segment):
                continue
            if fs.usage.get(seg).live_bytes > 0:
                return seg
        pytest.fail("no dirty victim segment found")

    def test_hit_rate_invariant_across_clean_pass(self, fs):
        churn(fs)
        fs.checkpoint()
        seg = self._dirty_victim(fs)
        before = (fs.cache.hits, fs.cache.misses)
        moved0 = fs.cleaner.stats.live_blocks_moved
        fs._in_cleaner = True
        fs.writer.exempt = True
        try:
            fs.cleaner._clean_pass([seg])
        finally:
            fs._in_cleaner = False
            fs.writer.exempt = False
        assert fs.cleaner.stats.live_blocks_moved > moved0
        assert (fs.cache.hits, fs.cache.misses) == before

    def test_hit_rate_invariant_across_clean_now(self, fs):
        churn(fs, rounds=12)
        fs.checkpoint()
        before = (fs.cache.hits, fs.cache.misses)
        cleaned = fs.clean_now(fs.usage.clean_count + 2)
        assert cleaned > 0
        assert (fs.cache.hits, fs.cache.misses) == before

    def test_data_survives_metered_only_by_reads(self, fs):
        fs.write_file("/keep", b"k" * 20000)
        fs.checkpoint()
        # a segment of padding closes /keep's segment, so it can be a victim
        fs.write_file("/pad", b"p" * fs.config.segment_bytes)
        fs.checkpoint()
        seg = self._dirty_victim(fs)
        fs._in_cleaner = True
        fs.writer.exempt = True
        try:
            fs.cleaner._clean_pass([seg])
        finally:
            fs._in_cleaner = False
            fs.writer.exempt = False
        assert fs.read("/keep") == b"k" * 20000


# ----------------------------------------------------------------------
# the _fit_to_headroom fallback margin (the bugfix)


class TestFallbackHeadroomMargin:
    def test_blocks_needed_includes_margin(self):
        assert Cleaner._blocks_needed(0) == 4
        assert Cleaner._blocks_needed(16) == 16 + 4 + 2

    def test_fallback_uses_full_margin(self, fs, monkeypatch):
        """The single-victim fallback must apply the same ``live // 8``
        margin as the main loop; the old ``live + 4`` formula accepted
        victims whose move would overflow headroom."""
        for i in range(60):
            fs.write_file(f"/f{i}", b"z" * 8000)
        fs.checkpoint()
        seg_blocks = fs.config.segment_blocks
        candidates = fs.cleaner._candidates()
        target = min(candidates, key=fs.usage.utilization)
        live = int(fs.usage.utilization(target) * seg_blocks)
        assert live >= 8, "victim too empty to distinguish the formulas"
        need = Cleaner._blocks_needed(live)
        # mirror the slack the fit computation itself will see
        slack = (
            16
            + len(fs.imap.dirty_block_indexes())
            + len(fs.usage.dirty_block_indexes())
            + fs.cache.dirty_count
        )

        # headroom one block short of the true need: the old formula
        # (live + 4 <= headroom) would wrongly accept the fallback
        monkeypatch.setattr(fs.cleaner, "_free_blocks", lambda: need - 1 + slack)
        assert live + 4 <= need - 1  # the old acceptance condition held
        assert fs.cleaner._fit_to_headroom([target]) == []

        # with exactly enough headroom the victim is accepted
        monkeypatch.setattr(fs.cleaner, "_free_blocks", lambda: need + slack)
        assert fs.cleaner._fit_to_headroom([target]) == [target]


# ----------------------------------------------------------------------
# observation wiring


class TestObservationWiring:
    def make_traced_fs(self, num_blocks=4096, **overrides):
        obs = Observation(ring_capacity=None)
        disk = Disk(DiskGeometry.wren4(num_blocks=num_blocks))
        fs = LFS.format(disk, small_config(**overrides), obs=obs)
        return obs, disk, fs

    def test_format_time_checkpoint_is_traced(self):
        obs, _, _ = self.make_traced_fs()
        assert obs.tracer.events(CHECKPOINT_WRITE)

    def test_disk_events_and_attribution_totals(self):
        obs, disk, fs = self.make_traced_fs()
        fs.write_file("/f", b"x" * 30000)
        fs.checkpoint()
        fs.cache.clear_all()
        fs.read("/f")
        assert obs.tracer.events(DISK_WRITE)
        assert obs.tracer.events(DISK_READ)
        assert obs.attribution.seconds[APPLICATION_READ] > 0.0
        assert obs.attribution.seconds[DATA_WRITE] > 0.0
        assert obs.attribution.seconds[CHECKPOINT] > 0.0
        assert abs(obs.attribution.total - disk.stats.busy_time) < 1e-9
        assert disk.stats.busy_time <= disk.clock.now + 1e-9

    def test_segment_open_events_match_counter(self):
        obs, _, fs = self.make_traced_fs()
        for i in range(40):
            fs.write_file(f"/f{i}", b"y" * 9000)
        fs.checkpoint()
        assert (
            len(obs.tracer.events(LOG_SEGMENT_OPEN)) == fs.writer.stats.segments_opened
        )

    def test_cleaning_attribution_and_events(self):
        obs, disk, fs = self.make_traced_fs()
        churn(fs, rounds=12)
        fs.checkpoint()
        # clean a victim that is guaranteed to hold live data, so the
        # pass performs both cleaning reads and cleaning writes
        seg = next(
            s
            for s in fs.usage.dirty_segments()
            if s not in (fs.writer.current_segment, fs.writer.next_segment)
            and fs.usage.get(s).live_bytes > 0
        )
        fs._in_cleaner = True
        fs.writer.exempt = True
        try:
            fs.cleaner._clean_pass([seg])
        finally:
            fs._in_cleaner = False
            fs.writer.exempt = False
        assert fs.cleaner.stats.live_blocks_moved > 0
        assert obs.attribution.seconds[CLEANING_READ] > 0.0
        assert obs.attribution.seconds[CLEANING_WRITE] > 0.0
        assert fs.cleaner.stats.cleaned_utilizations
        assert_trace_matches_counters(obs)

    def test_untraced_fs_has_no_obs(self, fs):
        assert fs.obs is None
        assert fs.disk.obs is None
        assert fs.cache.obs is None


# ----------------------------------------------------------------------
# trace-vs-legacy agreement on the paper workloads


class TestWorkloadAgreement:
    def test_smallfile_trace_matches_counters(self):
        from repro.workloads.smallfile import run_smallfile

        obs = Observation(ring_capacity=None)
        run_smallfile(
            "lfs",
            num_files=300,
            geometry=DiskGeometry.wren4(block_size=1024, num_blocks=16384),
            obs=obs,
        )
        assert_trace_matches_counters(obs)
        assert obs.tracer.events(LOG_WRITE)

    def test_andrew_trace_matches_counters(self):
        from repro.workloads.andrew import run_andrew

        obs = Observation(ring_capacity=None)
        result = run_andrew("lfs", obs=obs)
        assert result.total > 0
        assert_trace_matches_counters(obs)

    def test_filtered_ring_still_derives_tables(self):
        from repro.workloads.smallfile import run_smallfile

        tables = []
        for kinds in (None, (DISK_WRITE,)):
            obs = Observation(ring_capacity=None, kinds=kinds)
            run_smallfile(
                "lfs",
                num_files=200,
                geometry=DiskGeometry.wren4(block_size=1024, num_blocks=16384),
                obs=obs,
            )
            fs = obs._fs
            tables.append((fs.cleaner.stats.table2(), fs.log_bandwidth_breakdown()))
        # The filter drops every clean.segment and log.write event, and
        # the tables come from the counters, so they do not move.
        assert not obs.tracer.events(LOG_WRITE)
        assert tables[0] == tables[1]
        assert tables[0][1]["data"] > 0

    def test_cleaning_summary_arithmetic(self):
        stats = CleanerStats(cleaned_utilizations=[0.0, 0.5, 0.0, 0.25])
        summary = stats.table2()
        assert summary["segments_cleaned"] == 4
        assert summary["empty_segments_cleaned"] == 2
        assert summary["fraction_empty"] == 0.5
        assert summary["avg_nonempty_utilization"] == 0.375
        # windowed: only the cleanings after a baseline count
        assert stats.table2(since=2) == {
            "segments_cleaned": 2,
            "empty_segments_cleaned": 1,
            "fraction_empty": 0.5,
            "avg_nonempty_utilization": 0.25,
        }
        assert CleanerStats().table2()["avg_nonempty_utilization"] == 0.0
        assert stats.figure6(bins=4) == [2, 1, 1, 0]
