"""Table 4 — disk space and log bandwidth usage by block type.

Paper (for /user6): more than 99% of the *live* data is file data and
indirect blocks, but about 13% of the *log bandwidth* goes to inodes,
inode-map, and segment-usage blocks — metadata that is overwritten
quickly, inflated by the short 30-second checkpoint interval.

The bandwidth column comes from the ``LogWriteStats`` counters. The
workload also runs under the event tracer, and the ``log.write`` events
must sum to the same blocks by kind.
"""

from conftest import assert_time_sane, assert_trace_matches_counters, run_once, save_result

from repro.analysis.tables import table4_block_types
from repro.obs import Observation
from repro.obs.events import CLEAN_SEGMENT, LOG_WRITE


def test_table4_block_types(benchmark):
    obs = Observation(ring_capacity=None, kinds=(CLEAN_SEGMENT, LOG_WRITE))
    result = run_once(benchmark, lambda: table4_block_types(obs=obs))
    save_result("table4_block_types", result.render())

    live_total = sum(result.live.values())
    log_total = sum(result.log.values())
    live_data_frac = (result.live["data"] + result.live["indirect"]) / live_total
    assert live_data_frac > 0.95  # paper: 99%

    meta_log = (
        result.log["inode"] + result.log["inode_map"] + result.log["seg_usage"]
    ) / log_total
    assert 0.03 < meta_log < 0.40  # paper: ~12.6%

    data_log_frac = result.log["data"] / log_total
    assert data_log_frac > 0.5  # paper: 85.2%

    assert_trace_matches_counters(obs)
    assert_time_sane(obs)
