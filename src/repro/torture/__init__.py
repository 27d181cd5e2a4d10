"""Crash-consistency torture testing (built on Section 4's recovery design).

Record a workload's write stream once, then replay every durable prefix —
with clean cuts, torn blocks, or reordered requests — and verify that
roll-forward recovery honors the durability oracle at each point.
"""

from repro.torture.oracle import (
    ModelFS,
    OpRecord,
    crash_state_bounds,
    snapshot_namespace,
    verify_recovered,
)
from repro.torture.record import Recording, RecordingDisk, TortureRecorder
from repro.torture.runner import (
    TORTURE_MODES,
    PointResult,
    TortureResult,
    check_request,
    explore_point,
    run_torture,
    select_points,
)
from repro.torture.workloads import WORKLOADS, record_workload

__all__ = [
    "ModelFS",
    "OpRecord",
    "PointResult",
    "Recording",
    "RecordingDisk",
    "TortureRecorder",
    "TortureResult",
    "TORTURE_MODES",
    "WORKLOADS",
    "check_request",
    "crash_state_bounds",
    "explore_point",
    "record_workload",
    "run_torture",
    "select_points",
    "snapshot_namespace",
    "verify_recovered",
]
