"""Figure 5 — segment-utilization distributions under the greedy cleaner.

Paper: at 75% disk utilization, locality skews the distribution toward
the utilization at which cleaning occurs — cold segments linger just
above the cleaning point — so segments get cleaned at a higher average
utilization than under uniform access.
"""

from conftest import record_bench, run_once_timed, save_result

from repro.analysis.figures import fig05_greedy_distributions
from repro.simulator.sweep import resolve_workers


def test_fig05_greedy_distributions(benchmark):
    workers = resolve_workers(None, njobs=2)
    result, wall = run_once_timed(
        benchmark, lambda: fig05_greedy_distributions(0.75, workers=workers)
    )
    save_result("fig05_greedy_distributions", result.render())
    record_bench(
        "fig05_greedy_distributions",
        wall_seconds=wall,
        workers=workers,
        steps=result.sim_steps,
    )

    uniform = result.distributions["uniform"]
    hotcold = result.distributions["hot-and-cold"]
    assert uniform and hotcold

    def mass_above(dist, threshold):
        return sum(1 for u in dist if u > threshold) / len(dist)

    # locality piles segments up at high utilization (hoarded dead space)
    assert mass_above(hotcold, 0.7) > mass_above(uniform, 0.7)
