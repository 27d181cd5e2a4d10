"""Figure 6 — the bimodal segment distribution under cost-benefit.

Paper: with the cost-benefit policy and age-sorting, cold segments are
cleaned around 75% utilization and hot segments around 15%, producing the
desired bimodal distribution (most segments nearly full, a few nearly
empty).
"""

from conftest import record_bench, run_once_timed, save_result

from repro.analysis.figures import fig06_costbenefit_distribution
from repro.simulator.sweep import resolve_workers


def test_fig06_costbenefit_distribution(benchmark):
    workers = resolve_workers(None, njobs=2)
    result, wall = run_once_timed(
        benchmark, lambda: fig06_costbenefit_distribution(0.75, workers=workers)
    )
    save_result("fig06_costbenefit_distribution", result.render())
    record_bench(
        "fig06_costbenefit_distribution",
        wall_seconds=wall,
        workers=workers,
        steps=result.sim_steps,
    )

    cb = result.distributions["LFS cost-benefit"]
    assert cb
    low = sum(1 for u in cb if u < 0.35) / len(cb)
    high = sum(1 for u in cb if u > 0.75) / len(cb)
    # bimodal: a visible low mode and a dominant nearly-full mode
    assert low > 0.03
    assert high > 0.35
    mid = sum(1 for u in cb if 0.4 <= u <= 0.6) / len(cb)
    assert mid < high  # the middle is a valley
