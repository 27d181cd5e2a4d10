"""Synthetic production workloads (Table 2, Figure 10).

Table 2 reports four months of cleaning statistics for five production
Sprite LFS disks. The headline — more than half the segments cleaned were
*totally empty*, and write costs of 1.2-1.6 beat the simulator's
prediction — comes from two properties of real traffic the paper calls
out: files are created and deleted *as wholes* (a deleted large file
leaves whole empty segments), and there is a large population of files
that are almost never written (far colder than the simulator's cold
group).

The generators here reproduce those properties, scaled down so a run
completes quickly: lognormal file sizes around the reported mean, a
frozen never-rewritten population, and a die-young lifetime skew for the
churning files. ``/swap2`` gets its own model: large sparse files written
randomly in place (virtual-memory backing store).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.core.config import LFSConfig
from repro.core.filesystem import LFS
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.obs.attribution import write_cost


@dataclass
class ProductionConfig:
    """One synthetic production file system.

    Attributes:
        name: label, e.g. "/user6".
        disk_mb: device size (scaled down from the paper's).
        mean_file_kb: mean file size (Table 2's "Avg File Size").
        target_utilization: Table 2's "In Use".
        traffic_mb: total write traffic to generate.
        frozen_fraction: fraction of the initial bytes never touched
            again ("cold segments in reality are much colder than the
            cold segments in the simulations").
        die_young: probability a churn step deletes a recently created
            file rather than a uniformly random one.
        sparse_random: model /swap2 — random in-place block writes to
            large sparse files instead of whole-file create/delete.
        seed: RNG seed.
    """

    name: str = "/user6"
    disk_mb: int = 96
    mean_file_kb: float = 23.5
    target_utilization: float = 0.75
    traffic_mb: int = 192
    frozen_fraction: float = 0.6
    die_young: float = 0.75
    sparse_random: bool = False
    seed: int = 7


@dataclass
class ProductionResult:
    """Measured analogue of one Table 2 row."""

    name: str
    disk_mb: int
    avg_file_kb: float
    traffic_mb: float
    in_use: float
    segments_cleaned: int
    fraction_empty: float
    avg_cleaned_u: float
    write_cost: float
    seg_utilizations: list[float] = field(repr=False, default_factory=list)


# The paper's Table 2, for side-by-side reporting (write cost column).
PAPER_TABLE2 = {
    "/user6": {"in_use": 0.75, "empty": 0.69, "u": 0.133, "write_cost": 1.4},
    "/pcs": {"in_use": 0.63, "empty": 0.52, "u": 0.137, "write_cost": 1.6},
    "/src/kernel": {"in_use": 0.72, "empty": 0.83, "u": 0.122, "write_cost": 1.2},
    "/tmp": {"in_use": 0.11, "empty": 0.78, "u": 0.130, "write_cost": 1.3},
    "/swap2": {"in_use": 0.65, "empty": 0.66, "u": 0.535, "write_cost": 1.6},
}


def default_configs(scale: float = 1.0) -> list[ProductionConfig]:
    """The five Table 2 file systems, scaled by ``scale``."""

    def mb(x: float) -> int:
        return max(32, int(x * scale))

    return [
        ProductionConfig("/user6", mb(96), 23.5, 0.75, mb(192), seed=7),
        ProductionConfig("/pcs", mb(80), 10.5, 0.63, mb(160), seed=8),
        ProductionConfig("/src/kernel", mb(96), 37.5, 0.72, mb(192), frozen_fraction=0.7, die_young=0.85, seed=9),
        ProductionConfig("/tmp", mb(48), 28.9, 0.11, mb(96), frozen_fraction=0.1, die_young=0.9, seed=10),
        ProductionConfig("/swap2", mb(64), 68.1, 0.65, mb(128), sparse_random=True, seed=11),
    ]


def _lognormal_size(rng: random.Random, mean_kb: float) -> int:
    """File sizes: a lognormal body plus a heavy tail of big files.

    The tail matters: the paper's empty-segment phenomenon comes largely
    from files "much longer than a segment" whose whole-file deletion
    yields totally empty segments. The mixture is tuned so the overall
    mean stays near ``mean_kb``: the body carries half of it, the
    occasional multi-segment file the other half.
    """
    tail_mean = 1.1 * 1024 * 1024  # uniform(256KB, 2MB)
    tail_prob = min(0.05, (mean_kb * 1024) / 2.0 / tail_mean)
    if rng.random() < tail_prob:
        return rng.randrange(256 * 1024, 2 * 1024 * 1024)
    body_mean_kb = max(1.0, mean_kb / 2.0)
    sigma = 1.1
    mu = math.log(body_mean_kb * 1024) - sigma * sigma / 2.0
    size = int(rng.lognormvariate(mu, sigma))
    return max(256, min(size, 256 * 1024))


def run_production(config: ProductionConfig, *, obs=None) -> ProductionResult:
    """Drive one synthetic production workload and gather Table 2 stats.

    ``obs`` (a :class:`repro.obs.Observation`) traces the whole run,
    including the aging phase — window it with the counters it carries.
    """
    rng = random.Random(config.seed)
    disk_bytes = config.disk_mb * 1024 * 1024
    geo = DiskGeometry.wren4(num_blocks=disk_bytes // 4096)
    disk = Disk(geo)
    num_segments = disk_bytes // (512 * 1024)
    low_water = max(4, num_segments // 24)
    fs = LFS.format(
        disk,
        LFSConfig(
            segment_bytes=512 * 1024,
            max_inodes=32768,
            checkpoint_interval=30.0,
            cache_blocks=4096,
            clean_low_water=low_water,
            clean_high_water=low_water * 2,
            segments_per_pass=8,
        ),
        obs=obs,
    )
    capacity = fs.layout.num_segments * fs.config.segment_bytes

    # Age the file system first, then measure — the paper waited "several
    # months after putting the file systems into use before beginning the
    # measurements" to eliminate start-up effects.
    driver = _SwapChurn(fs, rng, config, capacity) if config.sparse_random else _FileChurn(
        fs, rng, config, capacity
    )
    driver.age()
    baseline = _Baseline.capture(fs)
    driver.churn(config.traffic_mb * 1024 * 1024)

    fs.checkpoint()
    live_files = fs.imap.live_count
    total_bytes = sum(fs.get_inode(i).size for i in fs.imap.allocated_inums())
    cleaning = fs.cleaner.stats.table2(baseline.cleaned_count)
    return ProductionResult(
        name=config.name,
        disk_mb=config.disk_mb,
        avg_file_kb=(total_bytes / live_files / 1024.0) if live_files else 0.0,
        traffic_mb=config.traffic_mb,
        in_use=fs.disk_capacity_utilization,
        segments_cleaned=cleaning["segments_cleaned"],
        fraction_empty=cleaning["fraction_empty"],
        avg_cleaned_u=cleaning["avg_nonempty_utilization"],
        write_cost=baseline.write_cost_since(fs),
        seg_utilizations=fs.segment_utilizations(),
    )


@dataclass
class _Baseline:
    """Counter snapshot taken after the aging phase."""

    total_blocks: int
    cleaner_blocks: int
    checkpoint_blocks: int
    blocks_read: int
    cleaned_count: int

    @classmethod
    def capture(cls, fs: LFS) -> "_Baseline":
        return cls(
            total_blocks=fs.writer.stats.total_blocks,
            cleaner_blocks=fs.writer.stats.cleaner_blocks,
            checkpoint_blocks=fs.stats.checkpoint_region_blocks,
            blocks_read=fs.cleaner.stats.blocks_read,
            cleaned_count=len(fs.cleaner.stats.cleaned_utilizations),
        )

    def write_cost_since(self, fs: LFS) -> float:
        cost = write_cost(
            fs.writer.stats.total_blocks - self.total_blocks,
            fs.stats.checkpoint_region_blocks - self.checkpoint_blocks,
            fs.writer.stats.cleaner_blocks - self.cleaner_blocks,
            fs.cleaner.stats.blocks_read - self.blocks_read,
        )
        return 1.0 if cost is None else cost


class _FileChurn:
    """Whole-file create/delete churn with a frozen cold population."""

    def __init__(self, fs: LFS, rng: random.Random, config: ProductionConfig, capacity: int) -> None:
        self.fs = fs
        self.rng = rng
        self.config = config
        self.capacity = capacity
        self.target_bytes = int(config.target_utilization * capacity)
        self.next_id = 0
        self.active: list[tuple[int, int]] = []  # (file id, size)
        self.live_bytes = 0
        self._dirs: set[str] = set()

    def _create_one(self) -> int:
        bs = self.fs.config.block_size
        size = _lognormal_size(self.rng, self.config.mean_file_kb)
        size = min(size, max(4096, (self.capacity - self.live_bytes) // 2))
        rounded = ((size + bs - 1) // bs) * bs  # what it occupies on disk
        parent = f"/p{self.next_id % 64}"
        if parent not in self._dirs:
            if not self.fs.exists(parent):
                self.fs.mkdir(parent)
            self._dirs.add(parent)
        self.fs.write_file(f"{parent}/f{self.next_id}", b"d" * size)
        self.active.append((self.next_id, rounded))
        self.next_id += 1
        self.live_bytes += rounded
        return size

    def _delete_one(self) -> None:
        """Delete files with the lifetimes real traffic shows.

        Most deaths are young files deleted as a cohort — builds, editor
        temporaries, simulation outputs are created together and removed
        together — which is what empties whole segments and produces the
        paper's "more than half of the segments cleaned were totally
        empty". The rest are uniformly random middle-aged files.
        """
        if not self.active:
            return
        if self.rng.random() < self.config.die_young and len(self.active) > 16:
            # kill a contiguous run of recently created files
            run = self.rng.randrange(2, 13)
            hi = len(self.active)
            lo = max(0, hi - self.rng.randrange(1, max(2, hi // 16)))
            start = max(0, min(lo, hi - run))
            doomed = self.active[start : start + run]
            del self.active[start : start + run]
        else:
            doomed = [self.active.pop(self.rng.randrange(len(self.active)))]
        for fid, size in doomed:
            path = f"/p{fid % 64}/f{fid}"
            if self.fs.exists(path):
                self.fs.unlink(path)
            self.live_bytes -= size

    def age(self) -> None:
        """Fill to target utilization, freeze the cold files, churn briefly."""
        while self.live_bytes < self.target_bytes:
            self._create_one()
        frozen_bytes = 0
        frozen_target = int(self.config.frozen_fraction * self.live_bytes)
        while self.active and frozen_bytes < frozen_target:
            _, size = self.active.pop(0)
            frozen_bytes += size
        # a short churn to move past the freshly-formatted layout
        self.churn(min(self.capacity // 4, 16 * 1024 * 1024))

    def churn(self, budget: int) -> None:
        """Create/delete whole files until ``budget`` bytes were written."""
        traffic = 0
        while traffic < budget:
            while self.live_bytes > self.target_bytes and self.active:
                self._delete_one()
            traffic += self._create_one()


class _SwapChurn:
    """/swap2: large sparse files, written randomly in place."""

    def __init__(self, fs: LFS, rng: random.Random, config: ProductionConfig, capacity: int) -> None:
        self.fs = fs
        self.rng = rng
        self.config = config
        self.num_files = 40  # one backing file per diskless workstation
        file_bytes = int(config.target_utilization * capacity / self.num_files)
        self.bs = fs.config.block_size
        self.file_blocks = max(1, file_bytes // self.bs)
        self.inums: list[int] = []

    def age(self) -> None:
        """Create the backing files and populate them sparsely."""
        for i in range(self.num_files):
            self.inums.append(self.fs.create(f"/swap{i}"))
        for inum in self.inums:
            for fbn in range(0, self.file_blocks, 2):
                self.fs.write_inum(inum, b"s" * self.bs, fbn * self.bs)

    def churn(self, budget: int) -> None:
        """Page-out traffic: small random runs plus occasional big sweeps.

        The big sequential sweeps model a workstation rebooting or a
        large process exiting and being re-swapped: a whole region is
        rewritten at once, so its previous incarnation — written together
        — dies together, which is where swap's empty cleaned segments
        come from.
        """
        traffic = 0
        while traffic < budget:
            inum = self.inums[self.rng.randrange(self.num_files)]
            if self.rng.random() < 0.20:
                # full re-swap (reboot / big process exit): the file's
                # previous incarnation, contiguous in the log, dies whole
                start, run = 0, self.file_blocks
            else:
                start = self.rng.randrange(self.file_blocks)
                run = self.rng.randrange(1, 8)
            for fbn in range(start, min(start + run, self.file_blocks)):
                self.fs.write_inum(inum, b"w" * self.bs, fbn * self.bs)
                traffic += self.bs
