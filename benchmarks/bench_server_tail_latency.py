"""Server tail latency: percentiles vs client count, FIFO vs DRR, cleaner on/off.

The multi-tenant front-end's headline experiment. For every point on the
``clients x policy x cleaner`` grid this runs one closed-loop serving
experiment (40% of clients piled onto tenant 0 as the aggressor, the
rest spread round-robin) and records p50/p99/p999 of global request
latency plus the p99 a *light* tenant sees — the fairness number DRR
exists to protect.

Everything is simulated time, so every metric is deterministic per seed
and regression-gates cleanly::

    PYTHONPATH=src python benchmarks/bench_server_tail_latency.py \
        --workers 2 --out BENCH_server_smoke.json     # the full grid, as CI runs it
    PYTHONPATH=src python benchmarks/bench_server_tail_latency.py \
        --clients 512 --out BENCH_server_subset.json  # a subset

The recorded metrics are keyed ``latency_p99[c1000/drr/cleaner]`` so
``repro bench-diff`` treats them as lower-better; a run over a subset
grid diffs against the checked-in baseline on the shared keys. CI runs
the full grid and pins its ``result_digest`` (``6d2e55c685ce1b68``).

Every point also runs with the flight recorder attached (sampling is
passive, so the event and latency digests are identical to a bare run)
and records curve-level metrics from the sampled timeline: the peak
instantaneous write cost, the worst 1-minute SLO burn rate, and the
total simulated time spent above the SLO — so a regression in the
*shape* of a run (a cleaning storm mid-run, say) gates even when the
end-of-run percentiles survive it.
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.server import ServerConfig, WorkloadConfig, run_server  # noqa: E402
from repro.simulator.sweep import (  # noqa: E402
    derive_point_seed,
    parallel_map,
    record_bench,
    resolve_workers,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: fraction of clients piled onto tenant 0 (the aggressor)
HEAVY_FRACTION = 0.4
TENANTS = 8
#: a tenant that only has its round-robin share — DRR's beneficiary
LIGHT_TENANT = "t1"
#: request-latency SLO threshold (simulated seconds) for burn tracking;
#: sits between the grid's p50s and p99s so burn rates are neither
#: pinned at zero nor saturated.
SLO_LATENCY = 5.0


def run_point(clients: int, policy: str, cleaner: bool, base_seed: int) -> dict:
    """One grid point; module-level so the process pool can pickle it."""
    seed = derive_point_seed(base_seed, clients, policy, cleaner)
    config = ServerConfig(
        workload=WorkloadConfig(
            clients=clients,
            tenants=TENANTS,
            ops_per_client=4,
            files_per_client=2,
            seed=seed,
            heavy_fraction=HEAVY_FRACTION,
        ),
        policy=policy,
        cleaner=cleaner,
        timeline=True,
        slo_latency=SLO_LATENCY,
    )
    result = run_server(config)
    label = f"c{clients}/{policy}/{'cleaner' if cleaner else 'nocleaner'}"
    timeline = result.timeline
    slo = timeline["slo"]["server"]
    return {
        "label": label,
        "requests": result.requests,
        "failed": result.failed,
        "elapsed": result.elapsed_seconds,
        "cleaner_passes": result.cleaner_passes,
        "digest": result.digest,
        "latency_digest": result.latency_digest,
        "p50": result.latency["server"]["p50"],
        "p99": result.latency["server"]["p99"],
        "p999": result.latency["server"]["p999"],
        "light_p99": result.latency[LIGHT_TENANT]["p99"],
        "peak_write_cost": timeline["peaks"].get("peak_write_cost", 1.0),
        "worst_burn_1m": slo["worst_burn"]["60s"],
        "time_above_slo": slo["time_above_slo"],
        "timeline_samples": timeline["samples"],
        "timeline_digest": timeline["digest"],
        "annotations": len(timeline["annotations"]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--clients", default="1000,10000",
        help="comma-separated client counts (CI smoke uses a subset)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default benchmarks/results/BENCH_server_tail_latency.json)",
    )
    parser.add_argument("--bench-name", default="server_tail_latency")
    args = parser.parse_args(argv)

    grid = [
        (clients, policy, cleaner)
        for clients in (int(c) for c in args.clients.split(",") if c)
        for policy in ("fifo", "drr")
        for cleaner in (True, False)
    ]
    jobs = [(c, p, cl, args.seed) for (c, p, cl) in grid]
    workers = resolve_workers(args.workers, len(jobs))

    t0 = time.perf_counter()
    points = parallel_map(run_point, jobs, workers=workers)
    wall = time.perf_counter() - t0

    digest = hashlib.sha256()
    metrics: dict[str, float] = {}
    total_requests = 0
    failed = 0
    header = (
        f"{'config':<24} {'reqs':>6} {'p50':>8} {'p99':>8} {'p999':>8} "
        f"{'light p99':>10} {'peak wc':>8} {'burn 1m':>8} {'>SLO':>8}"
    )
    print(header)
    print("-" * len(header))
    for point in points:
        label = point["label"]
        digest.update(f"{label}:{point['digest']}:{point['latency_digest']}".encode())
        metrics[f"latency_p50[{label}]"] = round(point["p50"], 6)
        metrics[f"latency_p99[{label}]"] = round(point["p99"], 6)
        metrics[f"latency_p999[{label}]"] = round(point["p999"], 6)
        metrics[f"latency_p99_light[{label}]"] = round(point["light_p99"], 6)
        metrics[f"peak_write_cost[{label}]"] = round(point["peak_write_cost"], 6)
        metrics[f"worst_burn_1m[{label}]"] = round(point["worst_burn_1m"], 6)
        metrics[f"time_above_slo[{label}]"] = round(point["time_above_slo"], 6)
        total_requests += point["requests"]
        failed += point["failed"]
        print(
            f"{label:<24} {point['requests']:>6} {point['p50']:>8.3f} "
            f"{point['p99']:>8.3f} {point['p999']:>8.3f} {point['light_p99']:>10.3f} "
            f"{point['peak_write_cost']:>8.3f} {point['worst_burn_1m']:>8.2f} "
            f"{point['time_above_slo']:>8.2f}"
        )
    print(
        f"\n{len(points)} configs, {total_requests} requests ({failed} failed), "
        f"{workers} worker(s), {wall:.1f}s wall"
    )
    if failed:
        print("FAILED REQUESTS — disk undersized for this grid", file=sys.stderr)
        return 1

    out = pathlib.Path(args.out) if args.out else None
    path = record_bench(
        args.bench_name,
        wall_seconds=wall,
        results_dir=out.parent if out else RESULTS_DIR,
        workers=workers,
        steps=total_requests,
        digest=digest.hexdigest()[:16],
        extra={
            "base_seed": args.seed,
            "grid": [p["label"] for p in points],
            "heavy_fraction": HEAVY_FRACTION,
            "tenants": TENANTS,
            "failed_requests": failed,
            "slo_latency": SLO_LATENCY,
            "point_digests": {p["label"]: p["digest"] for p in points},
            "timeline_digests": {p["label"]: p["timeline_digest"] for p in points},
            **metrics,
        },
    )
    if out is not None and path != out:
        path.rename(out)
        path = out
    print(f"recorded {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
