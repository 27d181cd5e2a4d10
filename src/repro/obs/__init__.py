"""``repro.obs`` — the unified observability layer.

Three pieces, usable together (via :class:`Observation`) or alone:

- :mod:`repro.obs.tracer` — a typed simulated-time event tracer (ring
  buffer, kind filter, optional JSONL export) fed by hooks in the disk
  model, the log writer, the cleaner, the cache, and checkpoint writes;
- :mod:`repro.obs.attribution` — a profiler charging every second of
  simulated disk busy-time to a cause (data write / cleaning read /
  cleaning write / checkpoint / application read), the paper's
  write-cost decomposition;
- :mod:`repro.obs.registry` — one ``snapshot()``/``delta()`` protocol
  over the previously scattered counter structs (``IOStats``,
  ``CleanerStats``, ``LFSStats``, ``LogWriteStats``, ``FFSStats``).

The paper's Table 2, Table 4 and Figure 6 are not computed here: the
cleaner and log-writer counters (``CleanerStats.table2``/``figure6``,
``LFS.log_bandwidth_breakdown``) are their one accounting, and the trace
records the same occurrences event by event.

The segment-lifecycle observatory builds on the tracer's subscriber
hook: :mod:`repro.obs.spans` adds nested scopes with simulated-time
durations, :mod:`repro.obs.ledger` reconstructs every segment's life
(birth, writes, death),
:mod:`repro.obs.watchdog` continuously asserts cross-layer invariants
and raises a typed :class:`InvariantViolation` on the offending event,
and :mod:`repro.obs.report` emits run reports and bench-to-bench
regression verdicts. Trace and timeline files share one framed JSONL
format, :mod:`repro.obs.framing`.
"""

from repro.obs.attribution import (
    APPLICATION_READ,
    CAUSES,
    CHECKPOINT,
    CLEANING_CAUSES,
    CLEANING_READ,
    CLEANING_WRITE,
    DATA_WRITE,
    NVM_DESTAGE,
    NVM_STAGE,
    SYSTEM_TENANT,
    TimeAttribution,
)
from repro.obs.events import EVENT_KINDS, TRACE_SCHEMA, Event
from repro.obs.framing import FormatError
from repro.obs.histogram import LatencyHistogram
from repro.obs.ledger import SegmentLedger, SegmentLife
from repro.obs.observation import Observation
from repro.obs.registry import MetricsRegistry, scrape
from repro.obs.report import (
    bench_diff,
    build_report,
    load_bench,
    render_bench_diff,
    render_report,
)
from repro.obs.spans import SpanTracker, build_span_tree, render_span_tree
from repro.obs.timeline import (
    TIMELINE_SCHEMA,
    SLOObjective,
    SLOTracker,
    TimelineAnnotation,
    TimelineFormatError,
    TimelineRecorder,
    TimelineStore,
    load_timeline_jsonl,
    render_dashboard,
)
from repro.obs.tracer import (
    TraceFormatError,
    Tracer,
    load_trace_jsonl,
)
from repro.obs.watchdog import InvariantViolation, Watchdog

__all__ = [
    "APPLICATION_READ",
    "CAUSES",
    "CHECKPOINT",
    "CLEANING_CAUSES",
    "CLEANING_READ",
    "CLEANING_WRITE",
    "DATA_WRITE",
    "EVENT_KINDS",
    "Event",
    "FormatError",
    "InvariantViolation",
    "LatencyHistogram",
    "MetricsRegistry",
    "NVM_DESTAGE",
    "NVM_STAGE",
    "Observation",
    "SLOObjective",
    "SLOTracker",
    "SYSTEM_TENANT",
    "SegmentLedger",
    "SegmentLife",
    "SpanTracker",
    "TIMELINE_SCHEMA",
    "TRACE_SCHEMA",
    "TimeAttribution",
    "TimelineAnnotation",
    "TimelineFormatError",
    "TimelineRecorder",
    "TimelineStore",
    "TraceFormatError",
    "Tracer",
    "Watchdog",
    "bench_diff",
    "build_report",
    "build_span_tree",
    "load_bench",
    "load_timeline_jsonl",
    "load_trace_jsonl",
    "render_bench_diff",
    "render_dashboard",
    "render_report",
    "render_span_tree",
    "scrape",
]
