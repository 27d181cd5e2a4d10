"""Figure 4 — simulated write cost vs. disk utilization, greedy cleaner.

Paper's claims checked here: write cost stays well below the no-variance
formula (segment-utilization variance helps); and locality plus age-sort
grouping make the greedy policy *worse*, not better, at real utilizations.
"""

from conftest import record_bench, run_once_timed, save_result

from repro.analysis.figures import fig04_greedy_simulation
from repro.simulator.sweep import resolve_workers
from repro.simulator.writecost import lfs_write_cost

UTILS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9)


def test_fig04_greedy_simulation(benchmark):
    workers = resolve_workers(None, njobs=2 * len(UTILS))
    result, wall = run_once_timed(
        benchmark, lambda: fig04_greedy_simulation(UTILS, workers=workers)
    )
    save_result("fig04_greedy_simulation", result.render())
    record_bench(
        "fig04_greedy_simulation",
        wall_seconds=wall,
        workers=workers,
        steps=result.sim_steps,
        write_costs={name: list(curve) for name, curve in result.curves.items()},
    )

    uniform = dict(result.curves["LFS uniform"])
    hotcold = dict(result.curves["LFS hot-and-cold"])
    # variance keeps the measured cost below the no-variance formula
    for u in (0.6, 0.75, 0.85):
        assert uniform[u] < lfs_write_cost(u)
    # the paper's surprise: hot-and-cold + greedy is worse than uniform
    worse = sum(1 for u in (0.6, 0.7, 0.75, 0.8) if hotcold[u] > uniform[u])
    assert worse >= 3
    # at very low utilization cleaning is nearly free
    assert uniform[0.2] < 2.5
