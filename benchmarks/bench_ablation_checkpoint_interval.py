"""Ablation — checkpoint interval (Sections 4.1 and 5.4).

Paper: the 30-second interval is "probably much too short"; the inode map
alone was 7.8% of the log bandwidth, and "we expect the log bandwidth
overhead for metadata to drop substantially when we ... increase the
checkpoint interval". Production traffic trickles (3.2 MB/hour on
/user6), so checkpoints fire far more often than the write buffer fills —
this sweep reproduces that with per-operation think time, then measures
the recovery-time price of the longer intervals.
"""

from conftest import run_once, save_result

from repro.analysis.ascii_chart import render_table
from repro.core.config import LFSConfig
from repro.core.constants import BlockKind
from repro.core.filesystem import LFS
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.simulator.sweep import parallel_map

INTERVALS = (10.0, 30.0, 120.0, 600.0)
THINK_TIME = 2.0  # seconds of idle time between operations (trickle)


def measure(interval: float) -> tuple[float, float]:
    disk = Disk(DiskGeometry.wren4(num_blocks=32768))
    fs = LFS.format(disk, LFSConfig(checkpoint_interval=interval, max_inodes=8192))
    base_total = fs.writer.stats.total_blocks
    for i in range(600):
        fs.write_file(f"/f{i % 200}", bytes([i % 256]) * 12288)
        disk.clock.advance(THINK_TIME)
    fs.sync()
    kinds = fs.writer.stats.blocks_by_kind
    total = fs.writer.stats.total_blocks - base_total
    meta = kinds.get(BlockKind.INODE_MAP, 0) + kinds.get(BlockKind.SEG_USAGE, 0)
    meta_share = meta / total if total else 0.0

    # Crash every interval at the same phase, 90 % of the way to its next
    # checkpoint, and measure the roll-forward price of the interval: a
    # crash at one fixed time would land at an arbitrary phase of each.
    fs.checkpoint()
    for i in range(int(0.9 * interval / THINK_TIME)):
        fs.write_file(f"/f{i % 200}", bytes([i % 256]) * 12288)
        disk.clock.advance(THINK_TIME)
    fs.sync()
    fs.crash()
    disk.power_on()
    recovered = LFS.mount(disk)
    return meta_share, recovered.last_recovery.elapsed


def run_sweep():
    values = parallel_map(measure, [(interval,) for interval in INTERVALS])
    return dict(zip(INTERVALS, values))


def test_ablation_checkpoint_interval(benchmark):
    results = run_once(benchmark, run_sweep)
    rows = [
        [f"{interval:.0f}s", f"{share * 100:.1f}%", f"{rec:.2f}s"]
        for interval, (share, rec) in results.items()
    ]
    save_result(
        "ablation_checkpoint_interval",
        render_table(
            ["checkpoint interval", "map blocks share of log", "recovery time"],
            rows,
            title="Ablation — checkpoint interval: metadata overhead vs recovery time",
        ),
    )
    shares = {k: v[0] for k, v in results.items()}
    recoveries = {k: v[1] for k, v in results.items()}
    # metadata overhead falls substantially as the interval grows
    assert shares[600.0] < 0.5 * shares[10.0]
    assert shares[120.0] < shares[10.0]
    # short intervals keep metadata a double-digit-ish share (paper: ~10%)
    assert shares[10.0] > 0.05
    # and recovery after a crash gets more expensive with long intervals
    assert recoveries[600.0] >= recoveries[10.0]
