"""One entry point per paper figure.

Each ``figNN_*`` function runs the relevant experiment(s) and returns a
result object with the raw data plus a ``render()`` that prints the
paper-style figure. Benchmarks call these with their default (paper)
parameters; tests call them with scaled-down ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.ascii_chart import render_histogram, render_series, render_table
from repro.core.config import LFSConfig
from repro.core.filesystem import LFS
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.ffs.filesystem import FFS, FFSConfig
from repro.simulator.model import SimConfig
from repro.simulator.policies import GroupingPolicy, SelectionPolicy
from repro.simulator.sweep import SweepPoint, run_sweep
from repro.simulator.writecost import (
    FFS_IMPROVED_WRITE_COST,
    FFS_TODAY_WRITE_COST,
    lfs_write_cost,
)
from repro.workloads.largefile import PHASES, run_largefile
from repro.workloads.production import ProductionConfig, run_production
from repro.workloads.smallfile import predicted_scaling, run_smallfile

DEFAULT_UTILS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9)


# ----------------------------------------------------------------------
# Figure 1 — disk I/O to create two small files


@dataclass
class Fig01Result:
    """Write-operation counts for creating two one-block files."""

    lfs_write_ops: int
    lfs_blocks_written: int
    ffs_write_ops: int
    ffs_blocks_written: int

    def render(self) -> str:
        return render_table(
            ["system", "disk write ops", "blocks written"],
            [
                ["Sprite LFS", self.lfs_write_ops, self.lfs_blocks_written],
                ["Unix FFS", self.ffs_write_ops, self.ffs_blocks_written],
            ],
            title=(
                "Figure 1 — creating dir1/file1 and dir2/file2 (paper: LFS does it\n"
                "in one large sequential write; FFS needs ten small ones)"
            ),
        )


def fig01_create_layout() -> Fig01Result:
    """Count the disk writes each system needs to create two files."""
    lfs_disk = Disk(DiskGeometry.wren4(num_blocks=16384))
    lfs = LFS.format(lfs_disk, LFSConfig(max_inodes=1024, checkpoint_interval=0))
    before = lfs_disk.stats.snapshot()
    lfs.mkdir("/dir1")
    lfs.mkdir("/dir2")
    f1 = lfs.create("/dir1/file1")
    lfs.write_inum(f1, b"1" * 4096)
    f2 = lfs.create("/dir2/file2")
    lfs.write_inum(f2, b"2" * 4096)
    lfs.flush()
    lfs_delta = lfs_disk.stats.delta(before)

    ffs_disk = Disk(DiskGeometry.wren4(block_size=8192, num_blocks=16384))
    ffs = FFS.format(ffs_disk, FFSConfig(max_inodes=1024))
    ffs.mkdir("/dir1")
    ffs.mkdir("/dir2")
    before = ffs_disk.stats.snapshot()
    g1 = ffs.create("/dir1/file1")
    ffs.write_inum(g1, b"1" * 8192)
    g2 = ffs.create("/dir2/file2")
    ffs.write_inum(g2, b"2" * 8192)
    ffs.sync()
    ffs_delta = ffs_disk.stats.delta(before)

    return Fig01Result(
        lfs_write_ops=lfs_delta.writes,
        lfs_blocks_written=lfs_delta.blocks_written,
        ffs_write_ops=ffs_delta.writes,
        ffs_blocks_written=ffs_delta.blocks_written,
    )


# ----------------------------------------------------------------------
# Figure 3 — the write-cost formula


@dataclass
class Fig03Result:
    """Formula (1) curve plus the FFS reference lines."""

    points: list[tuple[float, float]]

    def render(self) -> str:
        series = {
            "log-structured (formula 1)": self.points,
            "FFS today": [(u, FFS_TODAY_WRITE_COST) for u, _ in self.points],
            "FFS improved": [(u, FFS_IMPROVED_WRITE_COST) for u, _ in self.points],
        }
        chart = render_series(
            series,
            x_label="fraction alive in segment cleaned (u)",
            y_label="write cost",
            y_max=14.0,
        )
        return "Figure 3 — write cost as a function of u\n" + chart


def fig03_writecost_formula(us: tuple[float, ...] | None = None) -> Fig03Result:
    """Evaluate formula (1) over a range of cleaned-segment utilizations."""
    if us is None:
        us = tuple(i / 20 for i in range(19))
    return Fig03Result(points=[(u, lfs_write_cost(u)) for u in us])


# ----------------------------------------------------------------------
# Figures 4-7 — the cleaning simulator


def _sim_config(
    util: float, selection, grouping, *, fast: bool, seed: int = 42
) -> SimConfig:
    return SimConfig(
        utilization=util,
        selection=selection,
        grouping=grouping,
        num_segments=60 if fast else 100,
        blocks_per_segment=64 if fast else 128,
        warmup_factor=4 if fast else 8,
        measure_factor=2 if fast else 4,
        max_windows=10 if fast else 25,
        stable_tol=0.05 if fast else 0.02,
        stable_windows=2 if fast else 3,
        seed=seed,
    )


@dataclass
class WriteCostCurves:
    """Write-cost vs. disk-utilization curves (Figures 4 and 7)."""

    title: str
    curves: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    sim_steps: int = 0  # total simulated steps behind the curves

    def render(self) -> str:
        series = dict(self.curves)
        utils = sorted({u for pts in self.curves.values() for u, _ in pts})
        series["no variance (formula)"] = [(u, lfs_write_cost(u)) for u in utils]
        series["FFS today"] = [(u, FFS_TODAY_WRITE_COST) for u in utils]
        series["FFS improved"] = [(u, FFS_IMPROVED_WRITE_COST) for u in utils]
        chart = render_series(
            series,
            x_label="disk capacity utilization",
            y_label="write cost",
            y_max=14.0,
        )
        rows = []
        for u in utils:
            row: list[object] = [u]
            for name in self.curves:
                val = dict(self.curves[name]).get(u)
                row.append(val if val is not None else "-")
            rows.append(row)
        table = render_table(["util"] + list(self.curves.keys()), rows)
        return f"{self.title}\n{chart}\n\n{table}"


def fig04_greedy_simulation(
    utils: tuple[float, ...] = DEFAULT_UTILS,
    *,
    fast: bool = False,
    workers: int | None = None,
) -> WriteCostCurves:
    """Figure 4: greedy cleaning under uniform and hot-and-cold access.

    All points fan out through the parallel sweep runner; seeds are
    per-point, so results match the legacy sequential loop exactly.
    """
    result = WriteCostCurves(
        title="Figure 4 — write cost vs disk utilization (greedy cleaner)"
    )
    points = [
        SweepPoint(_sim_config(u, SelectionPolicy.GREEDY, GroupingPolicy.NONE, fast=fast), "uniform")
        for u in utils
    ] + [
        SweepPoint(_sim_config(u, SelectionPolicy.GREEDY, GroupingPolicy.AGE_SORT, fast=fast), "hot-cold")
        for u in utils
    ]
    runs = run_sweep(points, workers=workers)
    n = len(utils)
    result.curves["LFS uniform"] = [(u, r.write_cost) for u, r in zip(utils, runs[:n])]
    result.curves["LFS hot-and-cold"] = [(u, r.write_cost) for u, r in zip(utils, runs[n:])]
    result.sim_steps = sum(r.total_steps for r in runs)
    return result


@dataclass
class DistributionResult:
    """Segment-utilization distributions (Figures 5, 6, and 10)."""

    title: str
    distributions: dict[str, list[float]] = field(default_factory=dict)
    sim_steps: int = 0  # total simulated steps behind the distributions

    def render(self) -> str:
        parts = [self.title]
        for name, values in self.distributions.items():
            parts.append(f"\n-- {name}")
            parts.append(render_histogram(values, label="segment utilization"))
        return "\n".join(parts)


def fig05_greedy_distributions(
    util: float = 0.75, *, fast: bool = False, workers: int | None = None
) -> DistributionResult:
    """Figure 5: distributions seen by a greedy cleaner at 75% utilization."""
    result = DistributionResult(
        title="Figure 5 — segment utilization distributions, greedy cleaner"
    )
    names_points = [
        ("uniform", SweepPoint(_sim_config(util, SelectionPolicy.GREEDY, GroupingPolicy.NONE, fast=fast), "uniform")),
        ("hot-and-cold", SweepPoint(_sim_config(util, SelectionPolicy.GREEDY, GroupingPolicy.AGE_SORT, fast=fast), "hot-cold")),
    ]
    runs = run_sweep([p for _, p in names_points], workers=workers)
    for (name, _), r in zip(names_points, runs):
        result.distributions[name] = r.utilization_histogram
    result.sim_steps = sum(r.total_steps for r in runs)
    return result


def fig06_costbenefit_distribution(
    util: float = 0.75, *, fast: bool = False, workers: int | None = None
) -> DistributionResult:
    """Figure 6: the bimodal distribution produced by cost-benefit."""
    result = DistributionResult(
        title="Figure 6 — segment utilization distribution, cost-benefit policy"
    )
    names_points = [
        ("LFS cost-benefit", SweepPoint(_sim_config(util, SelectionPolicy.COST_BENEFIT, GroupingPolicy.AGE_SORT, fast=fast), "hot-cold")),
        ("LFS greedy", SweepPoint(_sim_config(util, SelectionPolicy.GREEDY, GroupingPolicy.AGE_SORT, fast=fast), "hot-cold")),
    ]
    runs = run_sweep([p for _, p in names_points], workers=workers)
    for (name, _), r in zip(names_points, runs):
        result.distributions[name] = r.utilization_histogram
    result.sim_steps = sum(r.total_steps for r in runs)
    return result


def fig07_costbenefit_writecost(
    utils: tuple[float, ...] = DEFAULT_UTILS,
    *,
    fast: bool = False,
    workers: int | None = None,
) -> WriteCostCurves:
    """Figure 7: cost-benefit vs greedy under hot-and-cold access."""
    result = WriteCostCurves(
        title="Figure 7 — write cost including the cost-benefit policy"
    )
    points = [
        SweepPoint(_sim_config(u, SelectionPolicy.GREEDY, GroupingPolicy.AGE_SORT, fast=fast), "hot-cold")
        for u in utils
    ] + [
        SweepPoint(_sim_config(u, SelectionPolicy.COST_BENEFIT, GroupingPolicy.AGE_SORT, fast=fast), "hot-cold")
        for u in utils
    ]
    runs = run_sweep(points, workers=workers)
    n = len(utils)
    result.curves["LFS greedy"] = [(u, r.write_cost) for u, r in zip(utils, runs[:n])]
    result.curves["LFS cost-benefit"] = [(u, r.write_cost) for u, r in zip(utils, runs[n:])]
    result.sim_steps = sum(r.total_steps for r in runs)
    return result


# ----------------------------------------------------------------------
# Figure 8 — small files


@dataclass
class Fig08Result:
    """Measured phases plus the CPU-scaling prediction."""

    lfs: object
    ffs: object
    scaling: dict[str, list[tuple[float, float]]]

    def render(self) -> str:
        rows = []
        for phase in ("create", "read", "delete"):
            lp = self.lfs.phase(phase)
            fp = self.ffs.phase(phase)
            rows.append(
                [
                    phase,
                    f"{lp.files_per_second:.0f}",
                    f"{fp.files_per_second:.0f}",
                    f"{lp.files_per_second / fp.files_per_second:.1f}x",
                    f"{lp.disk_utilization * 100:.0f}%",
                    f"{fp.disk_utilization * 100:.0f}%",
                ]
            )
        table = render_table(
            ["phase", "LFS files/s", "FFS files/s", "speedup", "LFS disk busy", "FFS disk busy"],
            rows,
            title=(
                f"Figure 8(a) — {self.lfs.num_files} x {self.lfs.file_size}B files "
                "(create / read / delete)"
            ),
        )
        rows_b = []
        for speedup, _ in self.scaling["lfs"]:
            lfs_fps = dict(self.scaling["lfs"])[speedup]
            ffs_fps = dict(self.scaling["ffs"])[speedup]
            rows_b.append([f"{speedup:.0f}x CPU", f"{lfs_fps:.0f}", f"{ffs_fps:.0f}"])
        table_b = render_table(
            ["CPU speed", "LFS create files/s", "FFS create files/s"],
            rows_b,
            title="Figure 8(b) — predicted create rate vs CPU speed (same disk)",
        )
        return table + "\n\n" + table_b


def fig08_smallfile(
    num_files: int = 10000, *, scaling_files: int = 1000, speedups: tuple[float, ...] = (1.0, 2.0, 4.0)
) -> Fig08Result:
    """Figure 8: the small-file benchmark plus CPU-scaling prediction."""
    lfs = run_smallfile("lfs", num_files=num_files)
    ffs = run_smallfile("ffs", num_files=num_files)
    scaling = {
        "lfs": predicted_scaling("lfs", list(speedups), num_files=scaling_files),
        "ffs": predicted_scaling("ffs", list(speedups), num_files=scaling_files),
    }
    return Fig08Result(lfs=lfs, ffs=ffs, scaling=scaling)


# ----------------------------------------------------------------------
# Figure 9 — large files


@dataclass
class Fig09Result:
    """Five-phase bandwidths for both systems."""

    lfs: object
    ffs: object

    def render(self) -> str:
        rows = []
        for phase in PHASES:
            rows.append(
                [
                    phase,
                    f"{self.lfs.phase(phase).kb_per_second:.0f}",
                    f"{self.ffs.phase(phase).kb_per_second:.0f}",
                ]
            )
        return render_table(
            ["phase", "Sprite LFS KB/s", "SunOS (FFS) KB/s"],
            rows,
            title=(
                f"Figure 9 — {self.lfs.file_size // (1024 * 1024)}MB file, "
                f"{self.lfs.io_unit // 1024}KB transfers"
            ),
        )


def fig09_largefile(file_size: int = 100 * 1024 * 1024) -> Fig09Result:
    """Figure 9: the large-file benchmark on both systems."""
    return Fig09Result(
        lfs=run_largefile("lfs", file_size=file_size),
        ffs=run_largefile("ffs", file_size=file_size),
    )


# ----------------------------------------------------------------------
# Figure 10 — production segment-utilization snapshot


def fig10_user6_snapshot(config: ProductionConfig | None = None) -> DistributionResult:
    """Figure 10: /user6's segment utilizations after months of use."""
    cfg = config if config is not None else ProductionConfig()
    res = run_production(cfg)
    result = DistributionResult(
        title=(
            "Figure 10 — segment utilization snapshot of the synthetic "
            f"{res.name} file system (in use: {res.in_use * 100:.0f}%)"
        )
    )
    result.distributions[res.name] = res.seg_utilizations
    return result
