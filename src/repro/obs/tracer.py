"""The event tracer: a ring buffer with optional write-through JSONL.

A :class:`Tracer` is deliberately dumb — it timestamps, filters, and
stores. Retention is a bounded ring (``capacity=None`` for unbounded,
which harnesses use when they compare every ``clean.segment`` or
``log.write`` event against the counters), optionally restricted to a
set of kinds so a long production run records only the events it needs. ``emitted_counts`` always counts every emit, before the
kind filter and before ring eviction, so a summary stays truthful even
when the ring dropped events; ``dropped`` counts ring evictions
explicitly so a bounded run can *say* how much history it lost.

Live consumers (the segment ledger, the invariant watchdog) register via
:meth:`Tracer.subscribe`; subscribers see **every** emitted event, before
the kind filter and before ring eviction, so a bounded or filtered ring
never starves them.

JSONL files are framed (:mod:`repro.obs.framing`, ``TRACE_SCHEMA`` 2);
the trailer carries total emit and drop counts, plus a ``warning`` when
the ring dropped events. Headerless files read as legacy schema 1.

There is no disabled tracer: an unobserved run has no
:class:`~repro.obs.Observation`, so hook sites cost one ``obs is None``
check.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, Iterable

from repro.obs.events import TRACE_SCHEMA, Event
from repro.obs.framing import FormatError, Frame


class TraceFormatError(FormatError):
    """A trace JSONL file could not be understood (wrong schema, bad line)."""


TRACE_FRAME = Frame("trace", TRACE_SCHEMA, TraceFormatError, headerless_schema=1)


class Tracer:
    """Records :class:`Event` objects into a bounded ring buffer."""

    def __init__(
        self,
        capacity: int | None = 65536,
        *,
        kinds: Iterable[str] | None = None,
        jsonl_path: str | None = None,
    ) -> None:
        self.capacity = capacity
        self._ring: deque[Event] = deque(maxlen=capacity)
        self._kinds = frozenset(kinds) if kinds is not None else None
        self.emitted_counts: dict[str, int] = {}
        self._dropped = 0
        self._subscribers: list[Callable[[Event], None]] = []
        self._jsonl = open(jsonl_path, "w") if jsonl_path else None
        if self._jsonl is not None:
            self._jsonl.write(TRACE_FRAME.line("header"))

    def subscribe(self, callback: Callable[[Event], None]) -> None:
        """Deliver every future emit to ``callback`` (pre-filter, pre-drop)."""
        self._subscribers.append(callback)

    def emit(self, kind: str, time: float, cause: str | None = None, **fields) -> None:
        """Record one event (dropped silently if the kind is filtered out)."""
        self.emitted_counts[kind] = self.emitted_counts.get(kind, 0) + 1
        event = None
        if self._subscribers:
            event = Event(time=time, kind=kind, cause=cause, fields=fields)
            for callback in self._subscribers:
                callback(event)
        if self._kinds is not None and kind not in self._kinds:
            return
        if event is None:
            event = Event(time=time, kind=kind, cause=cause, fields=fields)
        if self.capacity is not None and len(self._ring) == self.capacity:
            self._dropped += 1
        self._ring.append(event)
        if self._jsonl is not None:
            self._jsonl.write(json.dumps(event.to_dict()) + "\n")

    def events(self, kind: str | None = None) -> list[Event]:
        """Retained events in emission order, optionally one kind only."""
        if kind is None:
            return list(self._ring)
        return [e for e in self._ring if e.kind == kind]

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def total_emitted(self) -> int:
        """Events emitted over the tracer's lifetime (pre-filter, pre-drop)."""
        return sum(self.emitted_counts.values())

    @property
    def dropped(self) -> int:
        """Events evicted from the ring (excludes kind-filtered emits)."""
        return self._dropped

    def export_jsonl(self, path: str) -> int:
        """Write the retained ring to ``path`` as framed JSONL; returns
        event line count (framing lines excluded)."""
        with open(path, "w") as fh:
            fh.write(TRACE_FRAME.line("header"))
            for event in self._ring:
                fh.write(json.dumps(event.to_dict()) + "\n")
            fh.write(self._trailer())
        return len(self._ring)

    def _trailer(self) -> str:
        fields = {"events": self.total_emitted, "ring_dropped": self._dropped}
        if self._dropped:
            fields["warning"] = (
                f"ring evicted {self._dropped} events; this file is complete "
                "(write-through) but in-memory derivations saw a window"
            )
        return TRACE_FRAME.line("trailer", **fields)

    def close(self) -> None:
        """Write the trailer line, then flush and close the JSONL file."""
        if self._jsonl is not None:
            self._jsonl.write(self._trailer())
            self._jsonl.close()
            self._jsonl = None


def load_trace_jsonl(path: str) -> tuple[dict, list[Event]]:
    """Read a trace JSONL file into ``(header, events)``.

    A legacy headerless (schema 1) trace gets a ``{"schema": 1}``
    header. A broken frame raises :class:`TraceFormatError`.
    """
    events: list[Event] = []

    def body(record: dict, where: str) -> None:
        kind, time, cause = record.pop("kind"), record.pop("t", 0.0), record.pop("cause", None)
        events.append(Event(time=time, kind=kind, cause=cause, fields=record))

    return TRACE_FRAME.read(path, body), events
