"""Table 2 — cleaning statistics for the five production-style systems.

Paper: over four months, write costs ranged 1.2-1.6 — far below the
simulator's 2.5-3 prediction at the same utilizations — because most
cleaned segments were totally empty (52-83%) and the non-empty ones were
far emptier than the disk average.

The table's numbers come from the ``CleanerStats`` counters. Each
system also runs under the event tracer, and every ``clean.segment``
event must carry the utilization the counters recorded, in order.
"""

from conftest import assert_time_sane, assert_trace_matches_counters, run_once, save_result

from repro.analysis.tables import table2_production
from repro.obs import Observation
from repro.obs.events import CLEAN_SEGMENT, LOG_WRITE


def test_table2_production(benchmark):
    observations = {}

    def obs_factory(config):
        # Unbounded ring, filtered to the two kinds the check reads, so
        # a long run never evicts a clean.segment or log.write event.
        obs = Observation(ring_capacity=None, kinds=(CLEAN_SEGMENT, LOG_WRITE))
        observations[config.name] = obs
        return obs

    result = run_once(benchmark, lambda: table2_production(obs_factory=obs_factory))
    save_result("table2_production", result.render())

    by_name = {r.name: r for r in result.rows}
    # every system: write cost far below the simulator's prediction at
    # the same utilization (the paper's headline for this table)
    for row in result.rows:
        assert row.write_cost < 3.5, row.name
    # the whole-file create/delete systems see mostly-empty cleaning
    for name in ("/user6", "/pcs", "/src/kernel", "/tmp"):
        assert by_name[name].fraction_empty > 0.35, name
    # non-empty cleaned segments are much emptier than the disk average
    for name in ("/user6", "/pcs", "/src/kernel"):
        row = by_name[name]
        assert row.avg_cleaned_u < row.in_use, name
    # utilizations land near the configured targets
    assert 0.70 < by_name["/user6"].in_use < 0.85
    assert by_name["/tmp"].in_use < 0.25

    # the trace saw every cleaning and log write the counters did
    for obs in observations.values():
        assert_trace_matches_counters(obs)
        assert_time_sane(obs)
