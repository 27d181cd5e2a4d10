"""The flight recorder: metrics as curves over simulated time.

The paper's headline evidence is longitudinal — write cost and segment
utilization measured over months on /user6 — yet everything the obs
stack produced so far is point-in-time: end-of-run snapshots and
reports say *what* a run cost, never *when*. This module
records the when.

Three cooperating pieces:

- :class:`TimelineStore` — a compact columnar store: one aligned time
  axis plus one value column per metric, with bounded memory. When the
  sample count would exceed ``max_samples`` the store *thins*: drop
  every other sample and double the sampling stride, so a run of any length keeps
  an evenly spaced history at a known resolution.
- :class:`TimelineRecorder` — an :class:`~repro.obs.Observation`
  subscriber that samples every registered metrics source (flattened to
  ``source.field`` columns) plus derived gauges — instantaneous write
  cost, cache hit rate, cleaner share of busy time, and per-tenant
  windowed latency percentiles from throwaway
  :class:`~repro.obs.histogram.LatencyHistogram` shards — at a
  configurable simulated-time cadence. Sampling is *passive*: hooks
  (the server event loop, FS flush/clean/checkpoint, torture replay)
  call :meth:`TimelineRecorder.maybe_sample`, which fires only when the
  clock has crossed the next due time, so enabling the recorder never
  schedules events, never advances the clock, and never perturbs a
  digest.
- :class:`PhaseDetector` + :class:`SLOTracker` — anomaly phases
  (cleaning storms, read-only degradation, NVM destage stalls) become
  typed :class:`TimelineAnnotation` records, and per-tenant SLO
  objectives get multi-window error-budget burn rates sampled into
  ``slo.<name>.burn_<window>`` columns with worst-burn and
  time-above-SLO scalars for bench gating.

The on-disk format is framed JSONL like the tracer's (see
:mod:`repro.obs.framing`): ``timeline.sample`` and
``timeline.annotation`` lines between a required header and the
trailer, read back with a typed :class:`TimelineFormatError`; plus a
CSV export for spreadsheets. Everything is deterministic: the same
seed produces a bit-identical export and a stable digest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.obs.attribution import CLEANING_CAUSES, write_cost
from repro.obs.events import (
    FS_READONLY,
    FS_SYNC,
    NVM_FAIL,
    SERVER_DONE,
    TIMELINE_ANNOTATION,
)
from repro.obs.framing import FormatError, Frame
from repro.obs.histogram import LatencyHistogram

#: Version of the timeline JSONL on-disk format.
TIMELINE_SCHEMA = 1

TIMELINE_SAMPLE_KIND = "timeline.sample"
TIMELINE_ANNOTATION_KIND = "timeline.annotation"

#: Default bound on retained samples before thinning halves the history.
DEFAULT_MAX_SAMPLES = 512

#: Default sampling cadence in simulated seconds.
DEFAULT_CADENCE = 0.25

#: Annotation types the phase detector emits.
CLEANING_STORM = "cleaning_storm"
READ_ONLY = "read_only"
NVM_STALL = "nvm_stall"

#: Derived gauge column names.
COL_WRITE_COST = "derived.write_cost"
COL_CACHE_HIT_RATE = "derived.cache_hit_rate"
COL_CLEANER_SHARE = "derived.cleaner_share"


class TimelineFormatError(FormatError):
    """A timeline JSONL file could not be understood."""


TIMELINE_FRAME = Frame("timeline", TIMELINE_SCHEMA, TimelineFormatError)


@dataclass
class TimelineAnnotation:
    """One typed anomaly phase: ``[start, end]`` in simulated seconds."""

    type: str
    start: float
    end: float
    severity: float = 1.0
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "type": self.type,
            "start": self.start,
            "end": self.end,
            "severity": self.severity,
        }
        out.update(self.fields)
        return out

    @classmethod
    def from_dict(cls, record: dict) -> "TimelineAnnotation":
        record = dict(record)
        return cls(
            type=record.pop("type"),
            start=record.pop("start"),
            end=record.pop("end"),
            severity=record.pop("severity", 1.0),
            fields=record,
        )


class TimelineStore:
    """Columnar (time, metric) samples with stride-doubling thinning.

    Columns appear lazily: a metric first seen at sample *k* is
    backfilled with ``None`` for samples ``0..k-1``, and a metric absent
    from one sample records ``None`` there — so every column always has
    exactly one entry per retained sample time.
    """

    def __init__(self, *, max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        if max_samples < 4:
            raise ValueError("max_samples must be >= 4")
        self.max_samples = max_samples
        self.times: list[float] = []
        self.columns: dict[str, list] = {}
        self.annotations: list[TimelineAnnotation] = []
        #: how many originally recorded samples each retained sample
        #: stands for (doubles at every thinning pass)
        self.stride = 1

    def __len__(self) -> int:
        return len(self.times)

    def append(self, t: float, values: dict) -> bool:
        """Add one sample; returns True when the append triggered a thin."""
        self.times.append(t)
        n = len(self.times)
        for name, column in self.columns.items():
            column.append(values.get(name))
        for name in values:
            if name not in self.columns:
                column = [None] * (n - 1)
                column.append(values[name])
                self.columns[name] = column
        if n > self.max_samples:
            self._thin()
            return True
        return False

    def _thin(self) -> None:
        # Keep every other sample (the survivors stay evenly spaced) and
        # double the stride so future appends arrive at the thinned rate.
        self.times = self.times[1::2]
        for name, column in self.columns.items():
            self.columns[name] = column[1::2]
        self.stride *= 2

    def annotate(self, annotation: TimelineAnnotation) -> None:
        self.annotations.append(annotation)

    def column(self, name: str) -> list:
        """One column's values aligned with :attr:`times` (empty if unknown)."""
        return self.columns.get(name, [])

    def column_names(self) -> list[str]:
        return sorted(self.columns)

    def sample_lines(self) -> list[str]:
        """Canonical JSON line per sample (the digest and export basis)."""
        lines = []
        for i, t in enumerate(self.times):
            values = {
                name: column[i]
                for name, column in sorted(self.columns.items())
                if column[i] is not None
            }
            lines.append(
                json.dumps(
                    {"kind": TIMELINE_SAMPLE_KIND, "t": t, "v": values},
                    sort_keys=True,
                    separators=(",", ":"),
                )
            )
        return lines

    def digest(self) -> str:
        """SHA-256 (16 hex chars) over canonical samples + annotations."""
        import hashlib

        h = hashlib.sha256()
        for line in self.sample_lines():
            h.update(line.encode())
            h.update(b"\n")
        for annotation in self.annotations:
            h.update(
                json.dumps(
                    annotation.to_dict(), sort_keys=True, separators=(",", ":")
                ).encode()
            )
            h.update(b"\n")
        return h.hexdigest()[:16]

    # ------------------------------------------------------------------
    # export

    def export_jsonl(self, path: str, *, header_fields: dict | None = None) -> int:
        """Write the framed JSONL file; returns the sample line count."""
        with open(path, "w") as fh:
            fh.write(TIMELINE_FRAME.line("header", **(header_fields or {})))
            for line in self.sample_lines():
                fh.write(line + "\n")
            for annotation in self.annotations:
                record = {"kind": TIMELINE_ANNOTATION_KIND}
                record.update(annotation.to_dict())
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.write(TIMELINE_FRAME.line(
                "trailer",
                samples=len(self.times),
                annotations=len(self.annotations),
                stride=self.stride,
                columns=self.column_names(),
                digest=self.digest(),
            ))
        return len(self.times)

    def export_csv(self, path: str) -> int:
        """Write ``time,<columns...>`` rows (empty cell for a gap)."""
        names = self.column_names()
        with open(path, "w") as fh:
            fh.write(",".join(["time"] + names) + "\n")
            for i, t in enumerate(self.times):
                cells = [repr(t)]
                for name in names:
                    value = self.columns[name][i]
                    cells.append("" if value is None else repr(value))
                fh.write(",".join(cells) + "\n")
        return len(self.times)


def load_timeline_jsonl(path: str) -> tuple[dict, TimelineStore]:
    """Read a timeline JSONL file into ``(header, store)``.

    Raises :class:`TimelineFormatError` on a broken frame (the header is
    required), a malformed sample or annotation, or an unknown kind.
    """
    store = TimelineStore(max_samples=1 << 30)

    def body(record: dict, where: str) -> None:
        kind = record["kind"]
        if kind == TIMELINE_SAMPLE_KIND:
            values = record.get("v")
            if not isinstance(values, dict) or "t" not in record:
                raise TimelineFormatError(f"{where}: sample line missing 't' or 'v'")
            store.append(record["t"], values)
        elif kind == TIMELINE_ANNOTATION_KIND:
            del record["kind"]
            try:
                store.annotate(TimelineAnnotation.from_dict(record))
            except KeyError as exc:
                raise TimelineFormatError(
                    f"{where}: annotation missing field {exc}"
                ) from exc
        else:
            raise TimelineFormatError(f"{where}: unknown line kind {kind!r}")

    header = TIMELINE_FRAME.read(path, body)
    stride = header.get("trailer", {}).get("stride")
    if isinstance(stride, int):
        store.stride = stride
    return header, store


# ----------------------------------------------------------------------
# SLO objectives and burn-rate tracking


@dataclass(frozen=True)
class SLOObjective:
    """One latency objective: ``target`` of requests under ``threshold``.

    ``name`` routes requests: a tenant id matches that tenant's
    completions; the reserved name ``"server"`` matches every
    completion. ``windows`` are the simulated-time spans the burn rate
    is evaluated over; the *first* (shortest) window drives the
    time-above-SLO integral.
    """

    name: str
    threshold: float
    target: float = 0.99
    windows: tuple[float, ...] = (5.0, 60.0)

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be in (0, 1)")
        if not self.windows or any(w <= 0 for w in self.windows):
            raise ValueError("windows must be positive")

    def window_label(self, window: float) -> str:
        return f"{window:g}s"


class SLOTracker:
    """Multi-window error-budget burn for one :class:`SLOObjective`.

    A burn rate of 1.0 means the error budget (``1 - target``) is being
    consumed exactly at the allotted rate; above 1.0 the objective is
    headed for a breach. Windowed counts use one pass over the
    completion stream (monotone head pointers per window), so tracking
    is O(1) amortized per request.
    """

    def __init__(self, objective: SLOObjective) -> None:
        self.objective = objective
        self.total = 0
        self.bad = 0
        self.worst: dict[float, float] = {w: 0.0 for w in objective.windows}
        self.time_above_slo = 0.0
        self._events: list[tuple[float, int]] = []
        self._heads = [0] * len(objective.windows)
        self._counts = [[0, 0] for _ in objective.windows]  # [total, bad]

    def record(self, t: float, latency: float) -> None:
        bad = 1 if latency > self.objective.threshold else 0
        self._events.append((t, bad))
        self.total += 1
        self.bad += bad
        for counts in self._counts:
            counts[0] += 1
            counts[1] += bad

    def burn_rates(self, now: float) -> dict[float, float]:
        """Current burn rate per window (0.0 for an empty window)."""
        budget = 1.0 - self.objective.target
        out: dict[float, float] = {}
        for i, window in enumerate(self.objective.windows):
            head, counts = self._heads[i], self._counts[i]
            horizon = now - window
            while head < len(self._events) and self._events[head][0] <= horizon:
                counts[0] -= 1
                counts[1] -= self._events[head][1]
                head += 1
            self._heads[i] = head
            total, bad = counts
            out[window] = (bad / total) / budget if total else 0.0
        floor = min(self._heads)
        if floor > 4096:
            del self._events[:floor]
            self._heads = [h - floor for h in self._heads]
        return out

    def observe(self, now: float, dt: float) -> dict[float, float]:
        """Sample-time update: burn per window, worst-burn, time-above."""
        burns = self.burn_rates(now)
        for window, burn in burns.items():
            if burn > self.worst[window]:
                self.worst[window] = burn
        short = self.objective.windows[0]
        if burns[short] > 1.0 and dt > 0:
            self.time_above_slo += dt
        return burns

    def summary(self) -> dict:
        o = self.objective
        return {
            "threshold": o.threshold,
            "target": o.target,
            "windows": list(o.windows),
            "requests": self.total,
            "breaches": self.bad,
            "worst_burn": {
                o.window_label(w): self.worst[w] for w in o.windows
            },
            "time_above_slo": self.time_above_slo,
        }


# ----------------------------------------------------------------------
# phase / anomaly detection


class PhaseDetector:
    """Turns metric curves and events into typed timeline annotations.

    - **cleaning storm** — the cleaner-share gauge at or above
      ``storm_threshold`` for ``storm_min_samples`` consecutive samples
      opens a storm; it closes (and annotates) when the share drops.
      Severity is the peak share seen during the storm.
    - **read-only degradation** — an ``fs.readonly`` event annotates the
      instant the error budget ran out.
    - **NVM destage stall** — with a staging board attached, an
      ``fs.sync`` acknowledged *unstaged* (the board could not absorb
      it) or an ``nvm.fail`` marks the inter-sample window as a stall.
    """

    def __init__(
        self,
        emit,
        *,
        storm_threshold: float = 0.5,
        storm_min_samples: int = 2,
    ) -> None:
        self._emit = emit
        self.storm_threshold = storm_threshold
        self.storm_min_samples = storm_min_samples
        self._storm_times: list[float] = []
        self._storm_peak = 0.0
        self._stall_fallbacks = 0

    # -- event side -----------------------------------------------------

    def on_event(self, event, *, nvm_attached: bool) -> None:
        if event.kind == FS_READONLY:
            self._emit(TimelineAnnotation(
                type=READ_ONLY,
                start=event.time,
                end=event.time,
                severity=1.0,
                fields={k: event.fields[k]
                        for k in ("media_errors", "budget")
                        if k in event.fields},
            ))
        elif event.kind == FS_SYNC:
            if nvm_attached and event.fields.get("staged") is False:
                self._stall_fallbacks += 1
        elif event.kind == NVM_FAIL:
            self._emit(TimelineAnnotation(
                type=NVM_STALL,
                start=event.time,
                end=event.time,
                severity=1.0,
                fields={"reason": event.fields.get("reason", "fail")},
            ))

    # -- sample side ----------------------------------------------------

    def on_sample(self, now: float, prev: float | None, share: float | None) -> None:
        if self._stall_fallbacks:
            self._emit(TimelineAnnotation(
                type=NVM_STALL,
                start=prev if prev is not None else now,
                end=now,
                severity=1.0,
                fields={"fallback_syncs": self._stall_fallbacks},
            ))
            self._stall_fallbacks = 0
        if share is not None and share >= self.storm_threshold:
            self._storm_times.append(now)
            if share > self._storm_peak:
                self._storm_peak = share
        else:
            self._close_storm()

    def _close_storm(self) -> None:
        if len(self._storm_times) >= self.storm_min_samples:
            self._emit(TimelineAnnotation(
                type=CLEANING_STORM,
                start=self._storm_times[0],
                end=self._storm_times[-1],
                severity=self._storm_peak,
                fields={"samples": len(self._storm_times)},
            ))
        self._storm_times = []
        self._storm_peak = 0.0

    def finish(self) -> None:
        self._close_storm()


# ----------------------------------------------------------------------
# the recorder


def _flatten_snapshot(snapshot: dict) -> dict:
    """Registry snapshot -> flat ``source.field[.key]`` columns."""
    out: dict = {}
    for source, fields in snapshot.items():
        for name, value in fields.items():
            if isinstance(value, dict):
                for key, item in value.items():
                    out[f"{source}.{name}.{key}"] = item
            else:
                out[f"{source}.{name}"] = value
    return out


def _num(fields: dict, name: str) -> float:
    value = fields.get(name, 0)
    return value if isinstance(value, (int, float)) else 0


class TimelineRecorder:
    """Samples an :class:`~repro.obs.Observation` into a timeline store.

    Install with :meth:`install`; sampling hooks then call
    :meth:`maybe_sample` (via ``Observation.timeline_tick``, the server
    loop's sampler, and every traced event), and the recorder fires only
    when simulated time crosses the next cadence boundary. Call
    :meth:`finish` once at end of run to take the final sample and close
    open annotation phases.
    """

    def __init__(
        self,
        *,
        cadence: float = DEFAULT_CADENCE,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        slos: tuple[SLOObjective, ...] | list[SLOObjective] = (),
        storm_threshold: float = 0.5,
        storm_min_samples: int = 2,
        shard_exact_limit: int = 256,
    ) -> None:
        if cadence <= 0:
            raise ValueError("cadence must be positive")
        self.cadence = cadence
        self.store = TimelineStore(max_samples=max_samples)
        self.slos = [SLOTracker(objective) for objective in slos]
        self.detector = PhaseDetector(
            self._annotate,
            storm_threshold=storm_threshold,
            storm_min_samples=storm_min_samples,
        )
        self.shard_exact_limit = shard_exact_limit
        self.samples_taken = 0
        self._obs = None
        self._next_due: float | None = None
        self._last_sample: float | None = None
        self._prev_snapshot: dict | None = None
        self._prev_busy = 0.0
        self._prev_cleaning = 0.0
        self._shards: dict[str, LatencyHistogram] = {}
        self._finished = False
        self._sampling = False

    # -- wiring ---------------------------------------------------------

    def install(self, obs) -> "TimelineRecorder":
        """Subscribe to ``obs`` and become its ``timeline``."""
        self._obs = obs
        obs.timeline = self
        obs.subscribe(self)
        return self

    def on_event(self, event) -> None:
        if event.kind == SERVER_DONE:
            tenant = event.fields.get("tenant")
            latency = event.fields.get("latency", 0.0)
            if tenant is not None:
                self._shard(tenant).record(latency)
                for tracker in self.slos:
                    if tracker.objective.name == tenant:
                        tracker.record(event.time, latency)
            self._shard("server").record(latency)
            for tracker in self.slos:
                if tracker.objective.name == "server":
                    tracker.record(event.time, latency)
        elif event.kind in (FS_READONLY, FS_SYNC, NVM_FAIL):
            self.detector.on_event(event, nvm_attached=self._board_attached())
        # Every traced event doubles as a sampling opportunity, so runs
        # without an event loop (plain workloads, torture replays) still
        # sample at cadence resolution.
        if self._obs is not None and not self._sampling:
            self.maybe_sample(self._obs.now())

    def _shard(self, name: str) -> LatencyHistogram:
        shard = self._shards.get(name)
        if shard is None:
            shard = self._shards[name] = LatencyHistogram(
                exact_limit=self.shard_exact_limit
            )
        return shard

    def _board_attached(self) -> bool:
        return self._obs is not None and "nvm" in self._obs.registry.names()

    def _annotate(self, annotation: TimelineAnnotation) -> None:
        self.store.annotate(annotation)
        if self._obs is not None:
            self._obs.emit(TIMELINE_ANNOTATION, **annotation.to_dict())

    # -- sampling -------------------------------------------------------

    @property
    def effective_cadence(self) -> float:
        """Current sampling period (base cadence times the thinning stride)."""
        return self.cadence * self.store.stride

    def maybe_sample(self, now: float) -> bool:
        """Take a sample iff the clock crossed the next due time."""
        if self._finished or self._sampling:
            return False
        if self._next_due is not None and now < self._next_due - 1e-12:
            return False
        self.sample(now)
        return True

    def sample(self, now: float) -> None:
        """Take one sample unconditionally at simulated time ``now``."""
        if self._obs is None:
            raise RuntimeError("recorder not installed on an Observation")
        self._sampling = True
        try:
            self.store.append(now, self._collect(now))
            self.samples_taken += 1
            self._last_sample = now
            # Schedule the next due time on the cadence grid; a long
            # synchronous operation that skipped several periods yields
            # one late sample, not a backlog burst. If the append just
            # thinned the store, effective_cadence has already doubled.
            period = self.effective_cadence
            if self._next_due is None:
                self._next_due = now + period
            else:
                due = self._next_due + period
                if due <= now:
                    due = now + period
                self._next_due = due
        finally:
            self._sampling = False

    def _collect(self, now: float) -> dict:
        obs = self._obs
        snapshot = obs.registry.snapshot()
        flat = _flatten_snapshot(snapshot)
        prev = self._prev_snapshot or {}
        values = dict(flat)

        # Instantaneous write cost over the sampling window: the paper's
        # formula applied to this window's deltas. No new data appended
        # this window -> a gap, not a bogus 1.0.
        lfs = snapshot.get("lfs", {})
        log = snapshot.get("log", {})
        cleaner = snapshot.get("cleaner", {})
        p_lfs = prev.get("lfs", {})
        p_log = prev.get("log", {})
        p_cleaner = prev.get("cleaner", {})
        cost = write_cost(
            _num(log, "total_blocks") - _num(p_log, "total_blocks"),
            _num(lfs, "checkpoint_region_blocks") - _num(p_lfs, "checkpoint_region_blocks"),
            _num(log, "cleaner_blocks") - _num(p_log, "cleaner_blocks"),
            _num(cleaner, "blocks_read") - _num(p_cleaner, "blocks_read"),
        )
        if log and cost is not None:
            values[COL_WRITE_COST] = cost

        cache = snapshot.get("cache", {})
        p_cache = prev.get("cache", {})
        d_hits = _num(cache, "hits") - _num(p_cache, "hits")
        d_misses = _num(cache, "misses") - _num(p_cache, "misses")
        if d_hits + d_misses > 0:
            values[COL_CACHE_HIT_RATE] = d_hits / (d_hits + d_misses)

        att = obs.attribution
        cleaning = sum(att.seconds.get(cause, 0.0) for cause in CLEANING_CAUSES)
        busy = att.total
        d_busy = busy - self._prev_busy
        share = None
        if d_busy > 0:
            share = (cleaning - self._prev_cleaning) / d_busy
            values[COL_CLEANER_SHARE] = share

        # Per-tenant windowed percentiles from throwaway histogram
        # shards — mergeable, but here each shard covers exactly one
        # sampling window and is discarded after quoting.
        for name in sorted(self._shards):
            shard = self._shards[name]
            if shard.count:
                p = shard.percentiles()
                values[f"latency.{name}.p50"] = p["p50"]
                values[f"latency.{name}.p99"] = p["p99"]
        self._shards = {}

        dt = (now - self._last_sample) if self._last_sample is not None else 0.0
        for tracker in self.slos:
            burns = tracker.observe(now, dt)
            for window, burn in burns.items():
                label = tracker.objective.window_label(window)
                values[f"slo.{tracker.objective.name}.burn_{label}"] = burn

        self.detector.on_sample(now, self._last_sample, share)

        self._prev_snapshot = snapshot
        self._prev_busy = busy
        self._prev_cleaning = cleaning
        return values

    def finish(self, now: float | None = None) -> "TimelineRecorder":
        """Final sample + close open annotation phases (idempotent)."""
        if self._finished:
            return self
        if now is None:
            now = self._obs.now() if self._obs is not None else 0.0
        if self._last_sample is None or now > self._last_sample:
            self.sample(now)
        self.detector.finish()
        self._finished = True
        return self

    # -- results --------------------------------------------------------

    def peaks(self) -> dict:
        """Curve-level extrema for bench gating."""
        out: dict = {}
        costs = [v for v in self.store.column(COL_WRITE_COST) if v is not None]
        if costs:
            out["peak_write_cost"] = max(costs)
        shares = [v for v in self.store.column(COL_CLEANER_SHARE) if v is not None]
        if shares:
            out["peak_cleaner_share"] = max(shares)
        return out

    def summary(self) -> dict:
        """JSON-serializable run summary (rides in reports and results)."""
        store = self.store
        return {
            "schema": TIMELINE_SCHEMA,
            "samples": len(store),
            "columns": len(store.columns),
            "cadence": self.cadence,
            "stride": store.stride,
            "span": [store.times[0], store.times[-1]] if store.times else [0.0, 0.0],
            "digest": store.digest(),
            "annotations": [a.to_dict() for a in store.annotations],
            "slo": {
                tracker.objective.name: tracker.summary()
                for tracker in self.slos
            },
            "peaks": self.peaks(),
        }

    def export_jsonl(self, path: str) -> int:
        return self.store.export_jsonl(path, header_fields={"cadence": self.cadence})


# ----------------------------------------------------------------------
# dashboard rendering


#: Dashboard row selection: (column predicate label, display order).
_KEY_GAUGES = (
    (COL_WRITE_COST, "write cost"),
    (COL_CLEANER_SHARE, "cleaner share"),
    (COL_CACHE_HIT_RATE, "cache hit rate"),
)


def _selected_columns(
    store: TimelineStore, *, tenant: str | None, source: str | None
) -> list[tuple[str, str]]:
    """(column, display label) rows for one dashboard invocation."""
    names = store.column_names()
    if source is not None:
        return [(n, n) for n in names if n.startswith(f"{source}.")]
    if tenant is not None:
        rows = []
        for n in names:
            if n.startswith(f"latency.{tenant}.") or n.startswith(f"slo.{tenant}."):
                rows.append((n, n))
        return rows
    rows = [(col, label) for col, label in _KEY_GAUGES if col in store.columns]
    rows.extend((n, n) for n in names if n.startswith("latency.") and n.endswith(".p99"))
    rows.extend((n, n) for n in names if n.startswith("slo."))
    if not rows:
        # No key gauges recorded (a bare store or non-server run): show
        # everything rather than nothing.
        rows = [(n, n) for n in names]
    return rows


def render_dashboard(
    store: TimelineStore,
    *,
    summary: dict | None = None,
    tenant: str | None = None,
    source: str | None = None,
    width: int = 64,
) -> str:
    """ASCII sparkline dashboard over one timeline store."""
    from repro.analysis.ascii_chart import render_sparkline

    lines = []
    if store.times:
        span = store.times[-1] - store.times[0]
        lines.append(
            f"timeline: {len(store)} samples over {span:.3f}s simulated "
            f"({store.times[0]:.3f}s .. {store.times[-1]:.3f}s, "
            f"stride x{store.stride})"
        )
    else:
        lines.append("timeline: no samples")
    rows = _selected_columns(store, tenant=tenant, source=source)
    if not rows:
        what = (
            f"source {source!r}" if source is not None
            else f"tenant {tenant!r}" if tenant is not None
            else "key gauges"
        )
        lines.append(f"(no columns matched {what})")
    label_width = max((len(label) for _, label in rows), default=0)
    for column, label in rows:
        values = store.column(column)
        present = [v for v in values if v is not None]
        if not present:
            continue
        spark = render_sparkline(values, width=width)
        last = present[-1]
        lines.append(
            f"{label:<{label_width}} |{spark}| "
            f"min={min(present):.4g} max={max(present):.4g} last={last:.4g}"
        )
    if store.annotations:
        lines.append("annotations:")
        for a in store.annotations:
            extra = "".join(
                f" {k}={v}" for k, v in sorted(a.fields.items())
            )
            lines.append(
                f"  [{a.start:.3f}s .. {a.end:.3f}s] {a.type} "
                f"severity={a.severity:.3f}{extra}"
            )
    if summary:
        slo = summary.get("slo") or {}
        for name in sorted(slo):
            s = slo[name]
            worst = ", ".join(
                f"{label}={burn:.3f}" for label, burn in sorted(s["worst_burn"].items())
            )
            lines.append(
                f"slo {name}: {s['breaches']}/{s['requests']} over "
                f"{s['threshold']:g}s, worst burn {worst}, "
                f"time above SLO {s['time_above_slo']:.3f}s"
            )
    return "\n".join(lines)
