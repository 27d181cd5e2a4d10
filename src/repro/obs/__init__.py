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

The observatory builds on the tracer's subscriber hook:
:mod:`repro.obs.spans` adds nested scopes with simulated-time durations,
:mod:`repro.obs.watchdog` continuously asserts cross-layer invariants
and raises a typed :class:`InvariantViolation` on the offending event,
and :mod:`repro.obs.report` emits run reports and bench-to-bench
regression verdicts. Trace and timeline files share one framed JSONL
format, :mod:`repro.obs.framing`.
"""

import importlib

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
from repro.obs.histogram import LatencyHistogram
from repro.obs.observation import Observation
from repro.obs.registry import MetricsRegistry, scrape
from repro.obs.spans import SpanTracker, build_span_tree, render_span_tree
from repro.obs.tracer import (
    TraceFormatError,
    Tracer,
    load_trace_jsonl,
)

# Loaded on first access (PEP 562): most runs never touch the report,
# timeline, watchdog or framing code, so importing any
# ``repro.obs`` module does not pay for them.
_LAZY = {
    "FormatError": "framing",
    "bench_diff": "report",
    "build_report": "report",
    "load_bench": "report",
    "render_bench_diff": "report",
    "render_report": "report",
    "TIMELINE_SCHEMA": "timeline",
    "SLOObjective": "timeline",
    "SLOTracker": "timeline",
    "TimelineAnnotation": "timeline",
    "TimelineFormatError": "timeline",
    "TimelineRecorder": "timeline",
    "TimelineStore": "timeline",
    "load_timeline_jsonl": "timeline",
    "render_dashboard": "timeline",
    "InvariantViolation": "watchdog",
    "Watchdog": "watchdog",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


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
