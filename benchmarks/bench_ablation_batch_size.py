"""Ablation — segments cleaned per pass (Section 3.4, policy 2).

Paper: "the more segments cleaned at once, the more opportunities to
rearrange"; Section 5.2 adds "we think it may impact the system's ability
to segregate hot data from cold data". This sweep varies the pass size in
the simulator under hot-and-cold access with age-sorting.
"""

from conftest import run_once, save_result

from repro.analysis.ascii_chart import render_table
from repro.core.policy import CleaningPolicy, GroupingPolicy
from repro.simulator.model import SimConfig
from repro.simulator.sweep import SweepPoint, run_sweep as sweep

PASS_SIZES = (1, 4, 16)


def _point(segments_per_pass: int) -> SweepPoint:
    cfg = SimConfig(
        utilization=0.75,
        selection=CleaningPolicy.COST_BENEFIT,
        grouping=GroupingPolicy.AGE_SORT,
        segments_per_pass=segments_per_pass,
        clean_threshold=max(2, segments_per_pass),
        warmup_factor=8,
        measure_factor=4,
        max_windows=25,
        stable_tol=0.02,
        stable_windows=3,
    )
    return SweepPoint(cfg, "hot-cold")


def run_sweep():
    results = sweep([_point(n) for n in PASS_SIZES])
    return {n: r.write_cost for n, r in zip(PASS_SIZES, results)}


def test_ablation_batch_size(benchmark):
    results = run_once(benchmark, run_sweep)
    rows = [[n, f"{wc:.2f}"] for n, wc in results.items()]
    save_result(
        "ablation_batch_size",
        render_table(
            ["segments per pass", "write cost"],
            rows,
            title="Ablation — cleaning batch size (cost-benefit, hot-and-cold, 75%)",
        ),
    )
    # all settings must remain workable; the sweep documents the trend
    for n, wc in results.items():
        assert 1.0 <= wc < 10.0, n
