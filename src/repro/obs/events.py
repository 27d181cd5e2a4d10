"""Typed events for the observability layer.

Every event carries the *simulated* time at which it happened (the same
clock the disk model advances), a dotted kind string, the attribution
cause active when it was emitted (if any), and a flat dict of
kind-specific fields. The taxonomy:

=================  ====================================================
kind               fields
=================  ====================================================
``disk.read``      ``addr, blocks, elapsed, seek``
``disk.write``     ``addr, blocks, elapsed, seek``
``log.write``      ``segment, seq, offset, blocks, cleaning, kinds``
``log.segment_open``  ``segment``
``clean.pass``     ``victims, moved``
``clean.segment``  ``segment, utilization, empty``
``checkpoint.write``  ``seq, region, blocks, timestamp``
``cache.evict``    ``inum, fbn``
``cache.flush``    ``dirty, items, cleaning``
``media.retry``    ``addr, op, attempt, backoff``
``media.error``    ``addr, op, attempts``
``clean.quarantine``  ``segment, rescued, lost``
``scrub.segment``  ``segment, blocks, bad``
``recover.scavenge``  ``segments, inodes, partial_writes``
``fs.readonly``    ``media_errors, budget``
``span.begin``     ``span, name[, parent, ...]``
``span.end``       ``span, name, dur``
``server.arrive``  ``client, tenant, op, depth``
``server.start``   ``client, tenant, op, wait``
``server.done``    ``client, tenant, op, latency, service``
``flash.erase``    ``block, start, blocks, count, reason``
``flash.trim``     ``segment, start, blocks, erased``
``fs.sync``        ``staged, bytes, unstaged_dirty``
``nvm.append``     ``seq, bytes, records, used, elapsed``
``nvm.truncate``   ``records, bytes, uncovered``
``nvm.fail``       ``reason``
``timeline.annotation``  ``type, start, end, severity[, ...]``
=================  ====================================================

Events emitted while a tenant attribution scope is open additionally
carry a ``tenant`` field (the server wraps every request it services in
one), so per-tenant views such as the busy-time rows derive from the
same stream.

Spans are nested scopes (a clean pass, a checkpoint, a scrub, a
recovery) emitted into the same stream: ``span.begin`` opens a scope,
``span.end`` closes it with its simulated duration, and every event
emitted while a span is open carries a ``span`` field naming the
innermost scope's id — so a flat trace reconstructs the full tree.

``log.write``'s ``kinds`` maps :class:`~repro.core.constants.BlockKind`
*names* to block counts for that partial write; summed over a trace
they equal the ``LogWriteStats.blocks_by_kind`` counters that Table 4
reads.
"""

from __future__ import annotations

from dataclasses import dataclass

DISK_READ = "disk.read"
DISK_WRITE = "disk.write"
LOG_WRITE = "log.write"
LOG_SEGMENT_OPEN = "log.segment_open"
CLEAN_PASS = "clean.pass"
CLEAN_SEGMENT = "clean.segment"
CHECKPOINT_WRITE = "checkpoint.write"
CACHE_EVICT = "cache.evict"
CACHE_FLUSH = "cache.flush"
MEDIA_RETRY = "media.retry"
MEDIA_ERROR = "media.error"
CLEAN_QUARANTINE = "clean.quarantine"
SCRUB_SEGMENT = "scrub.segment"
RECOVER_SCAVENGE = "recover.scavenge"
FS_READONLY = "fs.readonly"
SPAN_BEGIN = "span.begin"
SPAN_END = "span.end"
SERVER_ARRIVE = "server.arrive"
SERVER_START = "server.start"
SERVER_DONE = "server.done"
# Flash lifecycle: the device erased an erase block (``block`` is the
# erase-block index, ``count`` its new wear count, ``reason`` is
# ``"reuse"`` for an on-demand erase stalling a program or ``"trim"``
# for an erase-ahead triggered by TRIM); the FS trimmed a dead segment.
FLASH_ERASE = "flash.erase"
FLASH_TRIM = "flash.trim"
# NVM staging lifecycle: a sync/fsync was acknowledged (``staged`` says
# whether it was absorbed into the NVM log or flushed synchronously;
# ``unstaged_dirty`` must be 0 — the acked-sync-durable invariant); the
# staging device accepted a framed record; the FS truncated the staging
# log after a covering flush (``uncovered`` must be 0); the device died.
FS_SYNC = "fs.sync"
NVM_APPEND = "nvm.append"
NVM_TRUNCATE = "nvm.truncate"
NVM_FAIL = "nvm.fail"
# The flight recorder's phase detector flagged an anomaly (a cleaning
# storm, a read-only degradation, an NVM destage stall). ``type`` names
# the anomaly, ``start``/``end`` bound it in simulated time, and
# ``severity`` is its peak intensity — the same record lands in the
# timeline store as a typed annotation.
TIMELINE_ANNOTATION = "timeline.annotation"

#: Version of the trace JSONL on-disk format. Bumped whenever the header,
#: trailer, or event line shape changes incompatibly. Schema 1 traces had
#: no header line at all; schema 2 added the ``trace.header`` /
#: ``trace.trailer`` framing lines and span events.
TRACE_SCHEMA = 2

EVENT_KINDS = (
    DISK_READ,
    DISK_WRITE,
    LOG_WRITE,
    LOG_SEGMENT_OPEN,
    CLEAN_PASS,
    CLEAN_SEGMENT,
    CHECKPOINT_WRITE,
    CACHE_EVICT,
    CACHE_FLUSH,
    MEDIA_RETRY,
    MEDIA_ERROR,
    CLEAN_QUARANTINE,
    SCRUB_SEGMENT,
    RECOVER_SCAVENGE,
    FS_READONLY,
    SPAN_BEGIN,
    SPAN_END,
    SERVER_ARRIVE,
    SERVER_START,
    SERVER_DONE,
    FLASH_ERASE,
    FLASH_TRIM,
    FS_SYNC,
    NVM_APPEND,
    NVM_TRUNCATE,
    NVM_FAIL,
    TIMELINE_ANNOTATION,
)


@dataclass(slots=True)
class Event:
    """One observed occurrence at a simulated instant."""

    time: float
    kind: str
    cause: str | None
    fields: dict

    def to_dict(self) -> dict:
        """A JSON-serializable flat representation (for JSONL export)."""
        out = {"t": self.time, "kind": self.kind}
        if self.cause is not None:
            out["cause"] = self.cause
        out.update(self.fields)
        return out
