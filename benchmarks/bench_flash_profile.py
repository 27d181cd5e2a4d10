"""Flash profile: the paper's benchmarks replayed on an SSD-class device.

Three experiments, all in simulated time (deterministic per seed):

1. **smallfile** (Figure 8) and **largefile** (Figure 9) on the NAND
   profile vs the Wren IV — how each 1991 phase moves when seeks are
   free, reads are cheap, and programs are slow.
2. **Cleaning migration under a hot/cold skew**, flash only, with
   hot/cold segregation off vs on: cold blocks written once keep getting
   dragged along by the cleaner when they share segments with hot data;
   routing cleaner output through a separate cold cursor lets cold
   segments settle. The headline metrics are
   ``migration_ratio_unsegregated`` / ``migration_ratio_segregated``
   (cleaner blocks moved per application block written, lower better);
   the run **asserts** segregation reduces the ratio.
3. **Wear accounting** from the same churn: total erases, erases by
   reason (reuse vs TRIM erase-ahead), and the max-min ``wear_spread``
   across erase blocks. (Wear leveling itself stays off here so the
   segregation comparison is single-variable; the nudge has its own
   test coverage.)

Usage::

    PYTHONPATH=src python benchmarks/bench_flash_profile.py
    PYTHONPATH=src python benchmarks/bench_flash_profile.py --quick \
        --out BENCH_flash_smoke.json    # CI smoke

``repro bench-diff`` gates the recorded metrics: migration ratios,
``wear_spread``, ``write_cost[...]``, and ``violations`` (the watchdog
runs over the churn experiment; any invariant break counts).
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core.config import LFSConfig  # noqa: E402
from repro.core.filesystem import LFS  # noqa: E402
from repro.disk.device import Disk  # noqa: E402
from repro.disk.geometry import DiskGeometry, FlashGeometry  # noqa: E402
from repro.obs import Observation, Watchdog  # noqa: E402
from repro.obs.events import FLASH_ERASE  # noqa: E402
from repro.simulator.sweep import record_bench  # noqa: E402
from repro.workloads.largefile import run_largefile  # noqa: E402
from repro.workloads.smallfile import run_smallfile  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: churn device: 8 MB, 32-block segments, 64-block erase blocks (2 seg/EB)
#: — ~60 segments, with the cold working set holding ~27% of them live,
#: so the cleaner runs steadily but victim *selection* still matters.
CHURN_BLOCKS = 2048
CHURN_CONFIG = dict(
    segment_bytes=128 * 1024,
    max_inodes=1024,
    clean_low_water=4,
    clean_high_water=8,
    reserved_segments=3,
    segments_per_pass=4,
    write_buffer_blocks=16,
    checkpoint_interval=0.0,
    cache_blocks=2048,
)


def _payload(rng: random.Random, size: int) -> bytes:
    tag = rng.randrange(256)
    return bytes((tag + i) % 256 for i in range(size))


def run_paper_benches(seed: int, *, quick: bool) -> dict[str, float]:
    """Figure 8 / Figure 9 phases on the Wren IV vs the NAND profile."""
    metrics: dict[str, float] = {}
    num_files = 200 if quick else 1000
    for label, geometry in (
        ("wren4", DiskGeometry.wren4(block_size=1024, num_blocks=65536)),
        ("flash", FlashGeometry.nand(block_size=1024, num_blocks=65536)),
    ):
        small = run_smallfile("lfs", num_files=num_files, geometry=geometry)
        for ph in small.phases:
            metrics[f"smallfile_seconds[{label}/{ph.name}]"] = round(ph.elapsed, 6)

    file_size = (4 if quick else 16) * 1024 * 1024
    for label, geometry in (
        ("wren4", None),  # run_largefile's own Wren IV sizing
        ("flash", FlashGeometry.nand(block_size=4096, num_blocks=81920)),
    ):
        # Cache far smaller than the file, as in the paper's setup, so
        # the read phases hit the device rather than returning in 0s.
        large = run_largefile(
            "lfs", file_size=file_size, geometry=geometry, seed=seed,
            cache_blocks=256,
        )
        for ph in large.phases:
            metrics[f"largefile_kbps[{label}/{ph.name}]"] = round(ph.kb_per_second, 3)
    return metrics


def run_churn(seed: int, *, segregated: bool, rounds: int) -> dict:
    """Hot/cold skewed overwrite churn on the tiny flash device.

    The paper's hot-cold skew, interleaved: 90% of overwrites hit 8 hot
    files, 10% are spread across 384 cold ones, so every segment fills
    with a mixture. The cleaner has to dig hot segments' dead space out
    from under the cold blocks that landed beside them — and without
    segregation the survivors land next to fresh hot writes and get
    dragged along again; the cold cursor lets them settle instead.
    """
    rng = random.Random(seed)
    geo = FlashGeometry.nand(num_blocks=CHURN_BLOCKS, erase_block_blocks=64)
    disk = Disk(geo)
    obs = Observation(ring_capacity=None)
    Watchdog().install(obs)
    # Wear leveling stays OFF in both runs: the nudge deliberately trades
    # some migration efficiency for wear spread, and this experiment
    # isolates what segregation alone buys.
    config = LFSConfig(hot_cold_segregation=segregated, **CHURN_CONFIG)
    fs = LFS.format(disk, config, obs=obs)

    cold = [f"/cold{i}" for i in range(384)]
    hot = [f"/hot{i}" for i in range(8)]
    stride = len(cold) // 16
    for i, path in enumerate(cold):  # interleave so segments start out mixed
        fs.write_file(path, _payload(rng, 8192))
        if i % stride == 0:
            fs.write_file(hot[(i // stride) % len(hot)], _payload(rng, 8192))
    for path in hot:
        fs.write_file(path, _payload(rng, 8192))
    fs.sync()
    for round_ in range(rounds):
        for _ in range(20):
            path = rng.choice(hot) if rng.random() < 0.9 else rng.choice(cold)
            fs.write_file(path, _payload(rng, rng.randrange(6000, 10000)))
        if round_ % 2 == 0:
            fs.sync()
        fs.clean_now()
        if round_ % 4 == 3:
            fs.checkpoint()
    fs.checkpoint()

    log = fs.writer.stats
    app_blocks = log.total_blocks - log.cleaner_blocks
    flash = disk.flash_metrics()
    reasons = collections.Counter(e.fields["reason"] for e in obs.tracer.events(FLASH_ERASE))
    out = {
        "migration_ratio": log.cleaner_blocks / app_blocks,
        "app_blocks": app_blocks,
        "cleaner_blocks": log.cleaner_blocks,
        "cold_blocks": log.cold_blocks,
        "segments_cleaned": fs.cleaner.stats.segments_cleaned,
        "erases_total": flash.erases_total,
        "wear_spread": flash.wear_spread,
        "trimmed_pages": flash.trimmed_pages,
        "erases_by_reason": dict(sorted(reasons.items())),
        "elapsed": disk.clock.now,
        "write_cost": fs.write_cost,
    }
    fs.unmount()
    LFS.mount(disk, config).unmount()  # remount must replay cleanly
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--rounds", type=int, default=None,
                        help="churn rounds (default 64, --quick 32)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller figure-8/9 volumes and fewer churn rounds")
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default benchmarks/results/BENCH_flash_profile.json)",
    )
    parser.add_argument("--bench-name", default="flash_profile")
    args = parser.parse_args(argv)
    rounds = args.rounds if args.rounds is not None else (32 if args.quick else 64)

    t0 = time.perf_counter()
    metrics = run_paper_benches(args.seed, quick=args.quick)
    unseg = run_churn(args.seed, segregated=False, rounds=rounds)
    seg = run_churn(args.seed, segregated=True, rounds=rounds)
    wall = time.perf_counter() - t0

    print(f"{'phase':<36} {'wren4':>12} {'flash':>12}")
    print("-" * 62)
    for key in sorted(k for k in metrics if k.startswith("smallfile_seconds[wren4")):
        name = key.split("/", 1)[1].rstrip("]")
        flash_key = key.replace("wren4", "flash")
        print(f"smallfile {name + ' (s)':<26} {metrics[key]:>12.4f} "
              f"{metrics[flash_key]:>12.4f}")
    for key in sorted(k for k in metrics if k.startswith("largefile_kbps[wren4")):
        name = key.split("/", 1)[1].rstrip("]")
        flash_key = key.replace("wren4", "flash")
        print(f"largefile {name + ' (KB/s)':<26} {metrics[key]:>12.1f} "
              f"{metrics[flash_key]:>12.1f}")

    print(f"\nchurn ({rounds} rounds, hot/cold skew, flash):")
    header = f"{'mode':<14} {'moved/written':>14} {'cleaned':>8} {'erases':>7} {'wear spread':>12}"
    print(header)
    print("-" * len(header))
    for label, r in (("unsegregated", unseg), ("segregated", seg)):
        print(f"{label:<14} {r['migration_ratio']:>14.4f} {r['segments_cleaned']:>8} "
              f"{r['erases_total']:>7} {r['wear_spread']:>12}")

    if seg["migration_ratio"] >= unseg["migration_ratio"]:
        print(
            "FAIL: hot/cold segregation did not reduce blocks moved per block "
            f"written ({seg['migration_ratio']:.4f} >= {unseg['migration_ratio']:.4f})",
            file=sys.stderr,
        )
        return 1

    digest = hashlib.sha256()
    for key in sorted(metrics):
        digest.update(f"{key}={metrics[key]!r};".encode())
    for label, r in (("unseg", unseg), ("seg", seg)):
        digest.update(
            f"{label}:{r['app_blocks']}:{r['cleaner_blocks']}:{r['cold_blocks']}:"
            f"{r['erases_total']}:{r['wear_spread']}:{r['elapsed']:.9f};".encode()
        )

    out = pathlib.Path(args.out) if args.out else None
    path = record_bench(
        args.bench_name,
        wall_seconds=wall,
        results_dir=out.parent if out else RESULTS_DIR,
        workers=1,
        steps=rounds,
        digest=digest.hexdigest()[:16],
        extra={
            "base_seed": args.seed,
            "quick": args.quick,
            "rounds": rounds,
            "violations": 0,  # the watchdog raised on none
            "migration_ratio_unsegregated": round(unseg["migration_ratio"], 6),
            "migration_ratio_segregated": round(seg["migration_ratio"], 6),
            "wear_spread": seg["wear_spread"],
            "erases_total_segregated": seg["erases_total"],
            "erases_total_unsegregated": unseg["erases_total"],
            "trimmed_pages_segregated": seg["trimmed_pages"],
            "write_costs": {
                "churn_unsegregated": round(unseg["write_cost"], 6),
                "churn_segregated": round(seg["write_cost"], 6),
            },
            "churn_unsegregated": unseg,
            "churn_segregated": seg,
            **metrics,
        },
    )
    if out is not None and path != out:
        path.rename(out)
        path = out
    print(f"\nsegregation cut migration {unseg['migration_ratio']:.4f} -> "
          f"{seg['migration_ratio']:.4f}; recorded {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
