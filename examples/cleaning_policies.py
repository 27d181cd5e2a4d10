#!/usr/bin/env python3
"""Reproduce the paper's cleaning-policy discovery (Section 3.5).

Runs the cleaning simulator the way the paper did: uniform vs.
hot-and-cold access, greedy vs. cost-benefit selection, and prints the
write-cost comparison plus the segment-utilization distributions that
led the authors to the cost-benefit policy.

Run:  python examples/cleaning_policies.py          (quick, scaled down)
      python examples/cleaning_policies.py --full   (paper-scale sweep)
"""

import sys

from repro.analysis.ascii_chart import render_histogram, render_table
from repro.simulator import (
    CleaningPolicy,
    GroupingPolicy,
    HotColdPattern,
    SimConfig,
    Simulator,
    UniformPattern,
    lfs_write_cost,
)


def run(util, pattern, selection, grouping, fast):
    cfg = SimConfig(
        utilization=util,
        selection=selection,
        grouping=grouping,
        num_segments=60 if fast else 100,
        blocks_per_segment=64 if fast else 128,
        warmup_factor=4 if fast else 8,
        measure_factor=2 if fast else 4,
        max_windows=8 if fast else 25,
        stable_tol=0.05 if fast else 0.02,
    )
    return Simulator(cfg, pattern).run()


def main() -> None:
    fast = "--full" not in sys.argv
    utils = (0.4, 0.6, 0.75, 0.85)
    if fast:
        print("(quick mode; pass --full for the paper-scale sweep)\n")

    rows = []
    for util in utils:
        uniform = run(util, UniformPattern(), CleaningPolicy.GREEDY, GroupingPolicy.NONE, fast)
        greedy = run(util, HotColdPattern(), CleaningPolicy.GREEDY, GroupingPolicy.AGE_SORT, fast)
        costben = run(util, HotColdPattern(), CleaningPolicy.COST_BENEFIT, GroupingPolicy.AGE_SORT, fast)
        rows.append(
            [
                f"{util:.0%}",
                f"{lfs_write_cost(util):.1f}",
                f"{uniform.write_cost:.2f}",
                f"{greedy.write_cost:.2f}",
                f"{costben.write_cost:.2f}",
            ]
        )
    print(
        render_table(
            ["disk util", "no variance", "uniform/greedy", "hot-cold/greedy", "hot-cold/cost-benefit"],
            rows,
            title="Write cost by policy (compare paper Figures 4 and 7)",
        )
    )

    print("\nWhy greedy fails under locality (compare paper Figures 5 and 6):")
    greedy = run(0.75, HotColdPattern(), CleaningPolicy.GREEDY, GroupingPolicy.AGE_SORT, fast)
    costben = run(0.75, HotColdPattern(), CleaningPolicy.COST_BENEFIT, GroupingPolicy.AGE_SORT, fast)
    print("\n-- greedy: segments pile up just above the cleaning point")
    print(render_histogram(greedy.utilization_histogram, label="segment utilization"))
    print("\n-- cost-benefit: the bimodal distribution the paper wanted")
    print(render_histogram(costben.utilization_histogram, label="segment utilization"))
    print(
        f"\ncleaned-segment utilization, greedy {greedy.avg_cleaned_utilization:.2f} "
        f"vs cost-benefit {costben.avg_cleaned_utilization:.2f} "
        "(cost-benefit cleans hot segments almost empty, cold ones nearly full)"
    )


if __name__ == "__main__":
    main()
