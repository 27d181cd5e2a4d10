"""Parallel sweep runner for the cleaning simulator.

Every figure-level result in the paper (Figures 4-7) comes from sweeping
the simulator across disk utilizations x policies x access patterns.
The sweep points are entirely independent, so this module fans them
across a :class:`~concurrent.futures.ProcessPoolExecutor` with
deterministic per-point seeds: the same :class:`SweepPoint` list yields
bit-identical :class:`SimResult` values whether run in-process, with one
worker, or with sixteen.

It also owns benchmark regression tracking: :func:`record_bench` writes
machine-readable ``BENCH_*.json`` files (wall-clock seconds, simulated
steps/sec, write costs, worker count, git SHA) so the perf trajectory of
the repo is measurable from run to run.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.simulator.model import SimConfig, SimResult, Simulator
from repro.simulator.patterns import AccessPattern, HotColdPattern, UniformPattern

WORKERS_ENV = "REPRO_SWEEP_WORKERS"

PATTERN_SPECS = ("uniform", "hot-cold")


def make_pattern(spec: str) -> AccessPattern:
    """Build an access pattern from a picklable string spec.

    ``"uniform"`` or ``"hot-cold"`` (the paper's 90/10 default); a
    custom split is ``"hot-cold:HOT/ACCESS"``, e.g. ``"hot-cold:0.05/0.95"``.
    """
    if spec == "uniform":
        return UniformPattern()
    if spec in ("hot-cold", "hot-and-cold"):
        return HotColdPattern()
    if spec.startswith("hot-cold:"):
        try:
            hot, access = spec.split(":", 1)[1].split("/")
            return HotColdPattern(float(hot), float(access))
        except (ValueError, IndexError) as exc:
            raise ValueError(f"bad hot-cold spec {spec!r}") from exc
    raise ValueError(f"unknown access pattern {spec!r}")


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation: a full config plus a pattern spec.

    Patterns travel as string specs (not objects) so points pickle
    cheaply and identically under any executor start method.
    """

    config: SimConfig
    pattern: str = "uniform"


def run_point(point: SweepPoint) -> SimResult:
    """Run one sweep point to steady state (the pool's work function)."""
    return Simulator(point.config, make_pattern(point.pattern)).run()


def result_digest(results: Iterable[SimResult]) -> str:
    """A short stable digest of a result list's oracle fields.

    Covers every measured field — write cost, the block/segment
    counters, the cleaned-segment utilizations, and the utilization
    histogram — so any change in simulated behaviour changes it, and a
    change that only makes the simulator faster must not. Floats are
    hashed via ``repr``, which is exact for Python floats.
    """
    h = hashlib.sha256()
    for r in results:
        h.update(
            repr(
                (
                    r.write_cost,
                    r.new_blocks,
                    r.moved_blocks,
                    r.read_blocks,
                    r.segments_cleaned,
                    r.total_steps,
                    r.cleaned_utilizations,
                    r.utilization_histogram,
                )
            ).encode("utf-8")
        )
    return h.hexdigest()[:16]


def derive_point_seed(base_seed: int, *parts: object) -> int:
    """A deterministic per-point seed from the sweep's base seed.

    Stable across processes and Python versions (CRC32, not ``hash()``),
    so a sweep is reproducible from ``SimConfig.seed`` alone while every
    point still gets decorrelated randomness.
    """
    text = "|".join(str(p) for p in parts)
    return (base_seed * 1_000_003 + zlib.crc32(text.encode("utf-8"))) % (2**31)


def resolve_workers(workers: int | None, njobs: int) -> int:
    """Worker count to use: explicit > $REPRO_SWEEP_WORKERS > cpu count."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        try:
            workers = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            raise ValueError(f"${WORKERS_ENV} must be an integer, got {env!r}") from None
    return max(1, min(workers, njobs))


def run_sweep(
    points: Iterable[SweepPoint], workers: int | None = None
) -> list[SimResult]:
    """Run every point, in order, fanning across a process pool.

    ``workers=1`` (or a single point, or a single-core host) runs
    in-process; results are bit-identical either way because each point
    carries its own seed and the simulator is deterministic.
    """
    return parallel_map(run_point, [(p,) for p in points], workers)


def parallel_map(
    fn: Callable, args_list: Sequence[tuple], workers: int | None = None
) -> list:
    """``[fn(*args) for args in args_list]`` across a process pool.

    For benchmark sweeps whose points are not simulator runs (the
    file-system ablations). ``fn`` must be a module-level function.
    """
    args_list = list(args_list)
    nworkers = resolve_workers(workers, len(args_list))
    if nworkers <= 1:
        return [fn(*args) for args in args_list]
    with ProcessPoolExecutor(max_workers=nworkers) as pool:
        futures = [pool.submit(fn, *args) for args in args_list]
        return [f.result() for f in futures]


# ----------------------------------------------------------------------
# benchmark regression tracking


def git_sha() -> str:
    """Short SHA of the repo this module lives in ('unknown' outside git)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def record_bench(
    name: str,
    *,
    wall_seconds: float,
    results_dir: str | Path,
    workers: int | None = None,
    steps: int | None = None,
    write_costs: dict[str, list] | list | None = None,
    digest: str | None = None,
    extra: dict | None = None,
) -> Path:
    """Write ``BENCH_<name>.json`` and return its path.

    Schema (version 2): ``bench``, ``schema``, ``wall_seconds``,
    ``steps`` (simulated steps, if known), ``steps_per_sec``,
    ``workers``, ``write_costs``, ``result_digest`` (see
    :func:`result_digest` — ties the perf number to the exact outputs it
    was measured on), ``cpu_count`` (perf numbers are meaningless without
    knowing the host's parallelism), ``git_sha``, ``created_at`` (UTC
    ISO-8601), plus any ``extra`` keys at top level. Schema 1 lacked
    ``result_digest`` and ``cpu_count``; older schema-2 records also
    carry an ``engine`` key from when there were two simulator engines.
    Readers treat unknown keys as informational, so all of these diff
    cleanly against each other.
    """
    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    payload: dict = {
        "bench": name,
        "schema": 2,
        "wall_seconds": round(wall_seconds, 6),
        "steps": steps,
        "steps_per_sec": (
            round(steps / wall_seconds, 1) if steps and wall_seconds > 0 else None
        ),
        "workers": workers,
        "write_costs": write_costs,
        "result_digest": digest,
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if extra:
        payload.update(extra)
    path = results_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    return path
