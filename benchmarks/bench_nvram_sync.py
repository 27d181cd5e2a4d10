"""Sync-write throughput: NVM staging vs. forced partial-segment flushes.

The paper's §5.1 office/engineering discussion and its NVRAM note in one
experiment: a mail-server-shaped client commits many small writes, each
followed by ``fsync``. Without the staging board every commit forces a
synchronous partial-segment flush (with the half-rotation barrier a lone
synchronous writer really pays); with the board each commit is one
CRC-framed staging append and the disk sees only batched destages.

Both arms run ``sync_flush_barrier=True`` so the baseline pays the
honest small-sync cost, and both end with a checkpoint so the staged arm
settles its deferred destage before the clock is read. Everything is
simulated time — deterministic per seed, regression-gated by
``repro bench-diff`` on three metrics:

- ``sync_throughput`` (bytes/sec of committed payload, higher better)
- ``speedup`` (baseline elapsed / staged elapsed, higher better; the
  acceptance floor is 5x)
- ``bound_ratio`` (staged elapsed / the board's own busy time, lower
  better; the staged arm must stay within 2x of the NVM bandwidth
  bound — if it drifts, staging is no longer the dominant cost and the
  absorption path has regressed)

::

    PYTHONPATH=src python benchmarks/bench_nvram_sync.py
    PYTHONPATH=src python benchmarks/bench_nvram_sync.py \
        --commits 120 --out BENCH_nvram_smoke.json   # CI smoke
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core.config import LFSConfig  # noqa: E402
from repro.core.filesystem import LFS  # noqa: E402
from repro.disk.device import Disk  # noqa: E402
from repro.disk.geometry import DiskGeometry  # noqa: E402
from repro.disk.nvram import NVMDevice  # noqa: E402
from repro.simulator.sweep import record_bench  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

NUM_FILES = 8
FILE_SIZE = 4096


def build_config() -> LFSConfig:
    return LFSConfig(
        segment_bytes=512 * 1024,
        max_inodes=256,
        cache_blocks=4096,
        checkpoint_interval=0.0,
        clean_low_water=0,
        clean_high_water=0,
        sync_flush_barrier=True,
    )


def run_arm(staging: bool, commits: int, payload: int, seed: int) -> dict:
    """One arm of the experiment; returns simulated-time measurements."""
    disk = Disk(DiskGeometry.wren4(num_blocks=16384))
    nvm = NVMDevice(clock=disk.clock) if staging else None
    fs = LFS.format(disk, build_config(), nvram=nvm)
    rng = random.Random(seed)
    for i in range(NUM_FILES):
        fs.write_file(f"/f{i}", b"\x00" * FILE_SIZE)
    fs.checkpoint()

    t0 = disk.clock.now
    for n in range(commits):
        path = f"/f{n % NUM_FILES}"
        offset = rng.randrange(0, FILE_SIZE - payload)
        fs.write(path, bytes([n % 256]) * payload, offset)
        fs.fsync(path)
    fs.checkpoint()  # the staged arm settles its destage debt here
    elapsed = disk.clock.now - t0

    content = hashlib.sha256()
    for i in range(NUM_FILES):
        content.update(fs.read(f"/f{i}"))
    fs.unmount()
    return {
        "elapsed": elapsed,
        "nvm_busy": nvm.stats.busy_time if nvm else 0.0,
        "nvm_appends": nvm.stats.appends if nvm else 0,
        "content_digest": content.hexdigest()[:16],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--commits", type=int, default=400)
    parser.add_argument("--payload", type=int, default=1024)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default benchmarks/results/BENCH_nvram_sync.json)",
    )
    parser.add_argument("--bench-name", default="nvram_sync")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    baseline = run_arm(False, args.commits, args.payload, args.seed)
    staged = run_arm(True, args.commits, args.payload, args.seed)
    wall = time.perf_counter() - t0

    if staged["content_digest"] != baseline["content_digest"]:
        print("FAILED — the two arms disagree on file contents", file=sys.stderr)
        return 1

    committed = args.commits * args.payload
    speedup = baseline["elapsed"] / staged["elapsed"]
    bound_ratio = staged["elapsed"] / staged["nvm_busy"]
    throughput = committed / staged["elapsed"]

    print(f"{args.commits} commits x {args.payload} B, seed {args.seed}")
    print(f"  baseline (no board):  {baseline['elapsed']:.3f} s simulated")
    print(f"  staged   (NVM board): {staged['elapsed']:.3f} s simulated "
          f"({staged['nvm_appends']} appends, board busy {staged['nvm_busy']:.3f} s)")
    print(f"  sync throughput: {throughput:,.0f} B/s")
    print(f"  speedup:         {speedup:.1f}x   (floor 5x)")
    print(f"  bound ratio:     {bound_ratio:.2f}    (ceiling 2x)")

    ok = True
    if speedup < 5.0:
        print("FAILED — staging is less than 5x the no-NVM baseline", file=sys.stderr)
        ok = False
    if bound_ratio > 2.0:
        print("FAILED — staged arm exceeds 2x the NVM bandwidth bound", file=sys.stderr)
        ok = False

    digest = hashlib.sha256(
        f"{baseline['elapsed']:.9f}:{staged['elapsed']:.9f}:"
        f"{staged['nvm_busy']:.9f}:{staged['content_digest']}".encode()
    ).hexdigest()[:16]

    out = pathlib.Path(args.out) if args.out else None
    path = record_bench(
        args.bench_name,
        wall_seconds=wall,
        results_dir=out.parent if out else RESULTS_DIR,
        steps=args.commits,
        digest=digest,
        extra={
            "commits": args.commits,
            "payload_bytes": args.payload,
            "base_seed": args.seed,
            "elapsed_baseline": round(baseline["elapsed"], 6),
            "elapsed_staged": round(staged["elapsed"], 6),
            "nvm_busy_seconds": round(staged["nvm_busy"], 6),
            "nvm_appends": staged["nvm_appends"],
            "sync_throughput": round(throughput, 3),
            "speedup": round(speedup, 3),
            "bound_ratio": round(bound_ratio, 4),
        },
    )
    if out is not None and path != out:
        path.rename(out)
        path = out
    print(f"recorded {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
