"""Smoke-check that tracing is cheap and that disabled tracing is free.

Runs the Figure 8 small-file workload three ways — tracer disabled (the
default: no Observation attached at all), tracer enabled with an
unbounded ring, and tracer plus the timeline flight recorder — and
asserts the traced run stays within 10% wall-clock of the untraced one,
and the sampled run within 10% of the traced one (plus a small floor so
tiny runs aren't noise-bound). A sample of the trace is exported as
JSONL *after* timing, so export cost never pollutes the overhead
measurement. The traced run's ``clean.segment`` and ``log.write`` events
must also match the cleaner and log-writer counters.

Standalone on purpose (not pytest-collected): CI runs it directly.

    PYTHONPATH=src python benchmarks/trace_overhead_smoke.py \
        --files 2000 --jsonl trace_smoke.jsonl
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))  # for conftest helpers

from conftest import RESULTS_DIR, assert_time_sane, assert_trace_matches_counters, record_bench

from repro.disk.geometry import DiskGeometry
from repro.obs import Observation, TimelineRecorder
from repro.workloads.smallfile import run_smallfile


def _geometry() -> DiskGeometry:
    return DiskGeometry.wren4(block_size=1024, num_blocks=65536)


def _run(files: int, obs: Observation | None) -> float:
    t0 = time.perf_counter()
    run_smallfile("lfs", num_files=files, geometry=_geometry(), obs=obs)
    return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--files", type=int, default=2000)
    parser.add_argument("--rounds", type=int, default=3, help="best-of-N timing")
    parser.add_argument("--max-overhead", type=float, default=0.10)
    parser.add_argument("--jsonl", default=None, help="export a sample trace here")
    parser.add_argument("--timeline-cadence", type=float, default=0.05,
                        help="flight-recorder cadence for the sampled leg")
    args = parser.parse_args(argv)

    base = min(_run(args.files, None) for _ in range(args.rounds))

    obs = None
    traced = float("inf")
    for _ in range(args.rounds):
        candidate = Observation(ring_capacity=None)
        elapsed = _run(args.files, candidate)
        if elapsed < traced:
            traced, obs = elapsed, candidate

    assert obs is not None
    assert_trace_matches_counters(obs)
    assert_time_sane(obs)

    # Third leg: tracer + flight recorder, gated against the traced run
    # (the recorder rides the tracer, so that's its marginal cost).
    sampled = float("inf")
    sampled_obs = None
    for _ in range(args.rounds):
        candidate = Observation(ring_capacity=None)
        TimelineRecorder(cadence=args.timeline_cadence).install(candidate)
        elapsed = _run(args.files, candidate)
        if elapsed < sampled:
            sampled, sampled_obs = elapsed, candidate
    assert sampled_obs is not None
    sampled_obs.timeline.finish()

    overhead = (traced - base) / base if base > 0 else 0.0
    sample_overhead = (sampled - traced) / traced if traced > 0 else 0.0
    # the +0.2s floor keeps sub-second runs from failing on scheduler noise
    limit = base * (1.0 + args.max_overhead) + 0.2
    sample_limit = traced * (1.0 + args.max_overhead) + 0.2
    print(
        f"untraced {base:.3f}s, traced {traced:.3f}s "
        f"({overhead * 100:+.1f}%, {obs.tracer.total_emitted} events)"
    )
    print(
        f"sampled {sampled:.3f}s ({sample_overhead * 100:+.1f}% over traced, "
        f"{sampled_obs.timeline.samples_taken} samples)"
    )

    if args.jsonl:
        lines = obs.tracer.export_jsonl(args.jsonl)
        print(f"exported {lines} events to {args.jsonl}")

    RESULTS_DIR.mkdir(exist_ok=True)
    path = record_bench(
        "trace_overhead",
        wall_seconds=traced,
        extra={
            "files": args.files,
            "untraced_seconds": round(base, 6),
            "traced_seconds": round(traced, 6),
            "overhead_fraction": round(overhead, 6),
            "events": obs.tracer.total_emitted,
            "sampled_seconds": round(sampled, 6),
            "sample_overhead_fraction": round(sample_overhead, 6),
            "timeline_samples": sampled_obs.timeline.samples_taken,
        },
    )
    print(f"recorded {path}")
    print(json.dumps({"base": base, "traced": traced, "sampled": sampled,
                      "limit": limit, "sample_limit": sample_limit}))

    if traced > limit:
        print(
            f"FAIL: traced run {traced:.3f}s exceeds limit {limit:.3f}s "
            f"(>{args.max_overhead * 100:.0f}% overhead)"
        )
        return 1
    if sampled > sample_limit:
        print(
            f"FAIL: sampled run {sampled:.3f}s exceeds limit {sample_limit:.3f}s "
            f"(>{args.max_overhead * 100:.0f}% overhead over traced)"
        )
        return 1
    print("OK: tracing and sampling overhead within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
