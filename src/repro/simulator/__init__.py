"""The paper's Section 3.5 cleaning-policy simulator.

A deliberately harsh abstract model: a fixed population of one-block
files; each step overwrites one file chosen by an access pattern; the
cleaner runs when clean segments are exhausted. It exists to compare
segment-selection policies (greedy vs. cost-benefit) and live-block
grouping (none vs. age sort) under uniform and hot-and-cold access —
reproducing Figures 3 through 7.
"""

from repro.simulator.model import SimConfig, SimResult, Simulator
from repro.simulator.patterns import AccessPattern, HotColdPattern, UniformPattern
from repro.simulator.policies import GroupingPolicy, SelectionPolicy
from repro.simulator.sweep import (
    SweepPoint,
    make_pattern,
    parallel_map,
    record_bench,
    result_digest,
    run_sweep,
)
from repro.simulator.writecost import (
    FFS_IMPROVED_WRITE_COST,
    FFS_TODAY_WRITE_COST,
    lfs_write_cost,
)

__all__ = [
    "AccessPattern",
    "FFS_IMPROVED_WRITE_COST",
    "FFS_TODAY_WRITE_COST",
    "GroupingPolicy",
    "HotColdPattern",
    "SelectionPolicy",
    "SimConfig",
    "SimResult",
    "Simulator",
    "SweepPoint",
    "UniformPattern",
    "lfs_write_cost",
    "make_pattern",
    "parallel_map",
    "record_bench",
    "result_digest",
    "run_sweep",
]
