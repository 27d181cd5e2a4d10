"""One entry point per paper table (Tables 2, 3, and 4).

Table 1 is a design inventory rather than an experiment; it is documented
in DESIGN.md and enforced by the structure tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.ascii_chart import render_table
from repro.core.config import LFSConfig
from repro.core.filesystem import LFS
from repro.workloads.production import (
    PAPER_TABLE2,
    ProductionConfig,
    ProductionResult,
    default_configs,
    run_production,
)
from repro.workloads.recovery_bench import PAPER_TABLE3, RecoveryCell, run_recovery_grid


@dataclass
class Table2Result:
    """Cleaning statistics for the five synthetic production systems."""

    rows: list[ProductionResult] = field(default_factory=list)

    def render(self) -> str:
        table_rows = []
        for r in self.rows:
            paper = PAPER_TABLE2.get(r.name, {})
            table_rows.append(
                [
                    r.name,
                    f"{r.disk_mb}MB",
                    f"{r.avg_file_kb:.1f}KB",
                    f"{r.in_use * 100:.0f}%",
                    r.segments_cleaned,
                    f"{r.fraction_empty * 100:.0f}%",
                    f"{r.avg_cleaned_u:.3f}",
                    f"{r.write_cost:.2f}",
                    f"{paper.get('write_cost', '-')}",
                ]
            )
        return render_table(
            [
                "file system",
                "disk",
                "avg file",
                "in use",
                "segs cleaned",
                "empty",
                "u (non-empty)",
                "write cost",
                "paper wc",
            ],
            table_rows,
            title="Table 2 — segment cleaning statistics, synthetic production workloads",
        )


def table2_production(
    configs: list[ProductionConfig] | None = None, *, obs_factory=None
) -> Table2Result:
    """Run the five Table 2 workloads (or a custom list).

    ``obs_factory``, if given, is called once per config and must return a
    :class:`repro.obs.Observation` (or None); the benchmark harness uses
    it to check each run's trace against its counters.
    """
    cfgs = configs if configs is not None else default_configs()
    rows = []
    for c in cfgs:
        obs = obs_factory(c) if obs_factory is not None else None
        rows.append(run_production(c, obs=obs))
    return Table2Result(rows=rows)


@dataclass
class Table3Result:
    """Recovery-time grid."""

    cells: list[RecoveryCell] = field(default_factory=list)

    def render(self) -> str:
        sizes = sorted({c.file_size for c in self.cells})
        mbs = sorted({c.data_mb for c in self.cells})
        rows = []
        for size in sizes:
            row: list[object] = [f"{size // 1024}KB" if size >= 1024 else f"{size}B"]
            for mb in mbs:
                cell = next(c for c in self.cells if c.file_size == size and c.data_mb == mb)
                paper = PAPER_TABLE3.get((size, mb))
                paper_txt = f" (paper {paper:.0f})" if paper is not None else ""
                row.append(f"{cell.recovery_seconds:.2f}s{paper_txt}")
            rows.append(row)
        return render_table(
            ["file size"] + [f"{mb}MB recovered" for mb in mbs],
            rows,
            title="Table 3 — recovery time by file size and data recovered",
        )


def table3_recovery(
    file_sizes: tuple[int, ...] = (1024, 10240, 102400),
    data_mbs: tuple[int, ...] = (1, 10, 50),
) -> Table3Result:
    """Run the Table 3 crash-recovery grid."""
    return Table3Result(cells=run_recovery_grid(file_sizes, data_mbs))


@dataclass
class Table4Result:
    """Live-data vs. log-bandwidth breakdown by block type."""

    live: dict[str, int]
    log: dict[str, int]

    # Paper's /user6 numbers for reference.
    PAPER = {
        "data": (98.0, 85.2),
        "indirect": (1.0, 1.6),
        "inode": (0.2, 2.7),
        "inode_map": (0.2, 7.8),
        "seg_usage": (0.0, 2.1),
        "summary": (0.6, 0.5),
        "dirop_log": (0.0, 0.1),
    }

    def render(self) -> str:
        live_total = sum(self.live.values()) or 1
        log_total = sum(self.log.values()) or 1
        rows = []
        for kind in ("data", "indirect", "inode", "inode_map", "seg_usage", "summary", "dirop_log"):
            live_pct = 100.0 * self.live.get(kind, 0) / live_total
            log_pct = 100.0 * self.log.get(kind, 0) / log_total
            paper = self.PAPER.get(kind, ("-", "-"))
            rows.append(
                [kind, f"{live_pct:.1f}%", f"{log_pct:.1f}%", f"{paper[0]}%", f"{paper[1]}%"]
            )
        return render_table(
            ["block type", "live data", "log bandwidth", "paper live", "paper log bw"],
            rows,
            title="Table 4 — disk space and log bandwidth usage by block type",
        )


def table4_block_types(
    config: ProductionConfig | None = None, *, obs=None
) -> Table4Result:
    """Run a /user6-style workload and break down the log by block type."""
    import random

    from repro.disk.device import Disk
    from repro.disk.geometry import DiskGeometry
    from repro.workloads.production import _FileChurn

    cfg = config if config is not None else ProductionConfig(disk_mb=64, traffic_mb=96)
    rng = random.Random(cfg.seed)
    disk = Disk(DiskGeometry.wren4(num_blocks=cfg.disk_mb * 256))
    num_segments = cfg.disk_mb * 2
    low_water = max(4, num_segments // 24)
    fs = LFS.format(
        disk,
        LFSConfig(
            segment_bytes=512 * 1024,
            checkpoint_interval=30.0,
            cache_blocks=4096,
            clean_low_water=low_water,
            clean_high_water=low_water * 2,
            segments_per_pass=8,
        ),
        obs=obs,
    )
    capacity = fs.layout.num_segments * fs.config.segment_bytes
    driver = _FileChurn(fs, rng, cfg, capacity)
    driver.age()
    driver.churn(cfg.traffic_mb * 1024 * 1024)
    fs.checkpoint()
    live = fs.live_data_breakdown()
    log = fs.log_bandwidth_breakdown()
    return Table4Result(live=live, log=log)
