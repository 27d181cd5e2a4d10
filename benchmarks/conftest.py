"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures, prints
it, and archives the rendered text under ``benchmarks/results/`` so a run
leaves a reviewable record. Benchmarks with a perf story additionally
record a machine-readable ``BENCH_*.json`` (via
:func:`repro.simulator.sweep.record_bench`) so wall-clock and
steps-per-second are tracked from commit to commit.
"""

from __future__ import annotations

import pathlib
import time

from repro.obs.events import CLEAN_SEGMENT, LOG_WRITE
from repro.simulator.sweep import record_bench as _record_bench

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def save_result(name: str, text: str) -> None:
    """Print a rendered figure/table and archive it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def run_once_timed(benchmark, fn):
    """Like :func:`run_once`, also returning measured wall-clock seconds."""
    t0 = time.perf_counter()
    result = benchmark.pedantic(fn, rounds=1, iterations=1)
    return result, time.perf_counter() - t0


def assert_time_sane(obs) -> None:
    """Debug invariant: the traced disk's busy-time never exceeds elapsed.

    Uses the *unclamped* ``raw_utilization`` — the clamped display value
    would silently mask double-charged busy time.
    """
    io = obs.registry.source("io")
    now = obs._clock.now
    assert io.busy_time <= now + 1e-9, (
        f"busy_time {io.busy_time:.9f}s exceeds simulated time {now:.9f}s"
    )
    assert io.raw_utilization(now) <= 1.0 + 1e-9
    assert abs(obs.attribution.total - io.busy_time) < 1e-6, (
        "attributed seconds do not sum to the disk's busy_time"
    )


def assert_trace_matches_counters(obs) -> None:
    """The trace records what the counters count.

    Every ``clean.segment`` utilization equals ``CleanerStats``'s, in
    order, and the ``log.write`` kinds sum to ``LogWriteStats``'s blocks
    by kind. Needs every such event retained: an unbounded ring, filtered
    to those two kinds at most.
    """
    if "cleaner" in obs.registry.names():
        cleaner = obs.registry.source("cleaner")
        utils = [e.fields["utilization"] for e in obs.tracer.events(CLEAN_SEGMENT)]
        assert utils == cleaner.cleaned_utilizations, (
            f"trace has {len(utils)} cleaned utilizations, "
            f"counters {len(cleaner.cleaned_utilizations)} (or values differ)"
        )
    if "log" in obs.registry.names():
        kinds: dict[str, int] = {}
        for event in obs.tracer.events(LOG_WRITE):
            for name, count in event.fields["kinds"].items():
                kinds[name] = kinds.get(name, 0) + count
        log = obs.registry.source("log")
        counted = {kind.name: n for kind, n in log.blocks_by_kind.items() if n}
        assert kinds == counted, f"trace blocks by kind {kinds} != counters {counted}"
        assert sum(kinds.values()) == log.total_blocks


def record_bench(name: str, *, wall_seconds: float, **kwargs) -> pathlib.Path:
    """Record ``benchmarks/results/BENCH_<name>.json`` (schema in sweep.py)."""
    return _record_bench(
        name, wall_seconds=wall_seconds, results_dir=RESULTS_DIR, **kwargs
    )
