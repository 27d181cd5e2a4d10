"""Ablation — degree of locality (Section 3.5).

Paper: under greedy cleaning, "performance got worse and worse as the
locality increased"; and the cost-benefit policy "gets even better as
locality increases". This sweep runs 90/10 and 95/5 hot-and-cold
patterns against both policies at 75% utilization.
"""

from conftest import run_once, save_result

from repro.analysis.ascii_chart import render_table
from repro.core.policy import CleaningPolicy, GroupingPolicy
from repro.simulator.model import SimConfig
from repro.simulator.sweep import SweepPoint, run_sweep as sweep

PATTERN_SPECS = (
    ("uniform", "uniform"),
    ("hot-cold 90/10", "hot-cold:0.1/0.9"),
    ("hot-cold 95/5", "hot-cold:0.05/0.95"),
)


def run_sweep():
    keys = []
    points = []
    for name, spec in PATTERN_SPECS:
        for policy in (CleaningPolicy.GREEDY, CleaningPolicy.COST_BENEFIT):
            cfg = SimConfig(
                utilization=0.75,
                selection=policy,
                grouping=GroupingPolicy.AGE_SORT,
                warmup_factor=8,
                measure_factor=4,
                max_windows=25,
                stable_tol=0.02,
                stable_windows=3,
            )
            keys.append((name, policy.value))
            points.append(SweepPoint(cfg, spec))
    results = sweep(points)
    return {key: r.write_cost for key, r in zip(keys, results)}


def test_ablation_locality(benchmark):
    results = run_once(benchmark, run_sweep)
    rows = [
        [name, policy, f"{wc:.2f}"] for (name, policy), wc in results.items()
    ]
    save_result(
        "ablation_locality",
        render_table(
            ["access pattern", "policy", "write cost"],
            rows,
            title="Ablation — locality degree vs cleaning policy (75% utilization)",
        ),
    )
    greedy_9010 = results[("hot-cold 90/10", "greedy")]
    greedy_955 = results[("hot-cold 95/5", "greedy")]
    cb_9010 = results[("hot-cold 90/10", "cost-benefit")]
    cb_955 = results[("hot-cold 95/5", "cost-benefit")]
    # cost-benefit dominates greedy under locality, more so as it sharpens
    assert cb_9010 < greedy_9010
    assert cb_955 < greedy_955
    assert (greedy_955 - cb_955) >= 0.8 * (greedy_9010 - cb_9010)
