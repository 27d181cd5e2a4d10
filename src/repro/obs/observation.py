"""The Observation bundle: tracer + attribution + metrics, attached once.

One :class:`Observation` follows one file-system session. Attach it at
``LFS.format(..., obs=...)`` / ``LFS.mount(..., obs=...)`` /
``FFS.format(..., obs=...)`` so mount-time recovery I/O is observed too;
attaching registers every counter struct the session owns into the
metrics registry, wires the disk's per-request hook, and points the
cache's eviction events here.

Two extension points layer on the bundle:

- :meth:`span` opens a named nested scope (``span.begin``/``span.end``
  events; enclosed events carry a ``span`` field) — see
  :mod:`repro.obs.spans`;
- :meth:`subscribe` registers a live consumer (the invariant watchdog)
  that sees every event as it is emitted, before the ring's kind filter
  and capacity can drop it. Subscribers exposing
  ``on_attach(fs)`` are told when a file system attaches (immediately,
  if one already has), so they can wire counter-side hooks too.

The disabled configuration is simply *no* observation: every hook site
guards on ``obs is not None``, so an unobserved run pays one attribute
check per disk request and nothing else — the PR-1 sweep numbers are
unaffected.
"""

from __future__ import annotations

from repro.obs.attribution import NVM_STAGE, TimeAttribution
from repro.obs.events import DISK_READ, DISK_WRITE
from repro.obs.histogram import LatencyHistogram
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanTracker
from repro.obs.tracer import Tracer


class Observation:
    """Bundles a tracer, a time-attribution profiler, and a registry."""

    def __init__(
        self,
        *,
        tracer: Tracer | None = None,
        ring_capacity: int | None = 65536,
        kinds=None,
        jsonl_path: str | None = None,
    ) -> None:
        if tracer is not None:
            self.tracer = tracer
        else:
            self.tracer = Tracer(capacity=ring_capacity, kinds=kinds, jsonl_path=jsonl_path)
        self.attribution = TimeAttribution()
        self.registry = MetricsRegistry()
        self.spans = SpanTracker(self)
        #: named latency histograms (the server records per-tenant and
        #: global request latencies here; ``repro report`` renders any it
        #: finds). Insertion-ordered, hence deterministic to serialize.
        self.latency: dict[str, LatencyHistogram] = {}
        #: optional flight recorder (a
        #: :class:`~repro.obs.timeline.TimelineRecorder` installs itself
        #: here); hook sites drive it via :meth:`timeline_tick`.
        self.timeline = None
        self._clock = None
        self._fs = None
        self._subscribers: list = []

    # ------------------------------------------------------------------
    # attachment

    def attach_disk(self, disk) -> "Observation":
        """Observe one bare :class:`~repro.disk.device.Disk`."""
        disk.obs = self
        self._clock = disk.clock
        self.registry.register("io", lambda d=disk: d.stats)
        if disk.flash is not None:
            # Wear state scraped live: erase totals and the min/max wear
            # spread appear in snapshots, reports, and bench deltas.
            self.registry.register("flash", lambda d=disk: d.flash_metrics())
        return self

    def attach(self, fs) -> "Observation":
        """Observe a mounted LFS or FFS instance (and its disk + cache)."""
        self.attach_disk(fs.disk)
        fs.obs = self
        fs.cache.obs = self
        nvlog = getattr(fs, "nvlog", None)
        if nvlog is not None:
            nvlog.device.obs = self
            self.registry.register("nvm", lambda n=nvlog.device: n.stats)
        self.registry.register("cache", fs.cache)
        if hasattr(fs, "writer"):  # Sprite LFS
            self.registry.register("lfs", fs.stats)
            self.registry.register("log", fs.writer.stats)
            self.registry.register("cleaner", fs.cleaner.stats)
        else:  # the FFS baseline
            self.registry.register("ffs", fs.stats)
        self._fs = fs
        for subscriber in self._subscribers:
            on_attach = getattr(subscriber, "on_attach", None)
            if on_attach is not None:
                on_attach(fs)
        return self

    # ------------------------------------------------------------------
    # live subscribers

    def subscribe(self, subscriber) -> "Observation":
        """Register a live consumer: ``on_event(event)`` per emit, and
        ``on_attach(fs)`` (if defined) when a file system attaches."""
        self._subscribers.append(subscriber)
        self.tracer.subscribe(subscriber.on_event)
        if self._fs is not None:
            on_attach = getattr(subscriber, "on_attach", None)
            if on_attach is not None:
                on_attach(self._fs)
        return self

    # ------------------------------------------------------------------
    # hook entry points

    def now(self) -> float:
        """Current simulated time (0.0 before any disk is attached)."""
        return self._clock.now if self._clock is not None else 0.0

    def cause(self, name: str):
        """Attribution scope; disk time inside is charged to ``name``."""
        return self.attribution.cause(name)

    def span(self, name: str, **fields):
        """Named nested scope; events inside carry this span's id."""
        return self.spans.span(name, **fields)

    def tenant(self, name: str):
        """Tenant scope: disk time and events inside are tagged ``name``."""
        return self.attribution.tenant(name)

    def timeline_tick(self) -> None:
        """Offer the flight recorder a sampling opportunity (cheap no-op
        when no timeline is installed); hook sites in the FS flush,
        checkpoint, and cleaner paths call this after clock-advancing
        work so a timeline-enabled run samples at cadence resolution
        even without an event loop driving it."""
        timeline = self.timeline
        if timeline is not None:
            timeline.maybe_sample(self.now())

    def histogram(self, name: str, **kwargs) -> LatencyHistogram:
        """The named latency histogram, created on first use."""
        hist = self.latency.get(name)
        if hist is None:
            hist = self.latency[name] = LatencyHistogram(**kwargs)
        return hist

    def on_io(self, now: float, addr: int, nblocks: int, elapsed: float, *, write: bool, seeked: bool) -> None:
        """Per-request disk hook: charge attribution, emit a disk event."""
        self.attribution.charge(elapsed, write=write)
        # Debug invariant: busy-time can never exceed elapsed simulated
        # time; a violation means a path double-charged the clock.
        assert self.attribution.total <= now + 1e-9, (
            f"attributed disk busy-time {self.attribution.total:.9f}s exceeds "
            f"simulated elapsed time {now:.9f}s (double-charged I/O?)"
        )
        fields = dict(addr=addr, blocks=nblocks, elapsed=elapsed, seek=seeked)
        span_id = self.spans.current
        if span_id is not None:
            fields["span"] = span_id
        tenant = self.attribution.current_tenant
        if tenant is not None:
            fields["tenant"] = tenant
        self.tracer.emit(
            DISK_WRITE if write else DISK_READ,
            now,
            cause=self.attribution.current_cause(write=write),
            **fields,
        )

    def on_staging_io(self, now: float, nbytes: int, elapsed: float) -> None:
        """Per-append NVM hook: charge staging time to the nvm cause.

        The staging board is a second device, so its busy seconds join
        the same attribution pool — the watchdog's sums-to-busy check
        compares against disk *plus* NVM busy time.
        """
        att = self.attribution
        att.charge(elapsed, cause=NVM_STAGE)
        assert att.total <= now + 1e-9, (
            f"attributed busy-time {att.total:.9f}s exceeds simulated "
            f"elapsed time {now:.9f}s (double-charged NVM I/O?)"
        )

    def emit(self, kind: str, **fields) -> None:
        """Emit a non-disk event, timestamped from the attached clock."""
        now = self._clock.now if self._clock is not None else 0.0
        cause = self.attribution._stack[-1] if self.attribution._stack else None
        span_id = self.spans.current
        if span_id is not None and "span" not in fields:
            fields["span"] = span_id
        tenant = self.attribution.current_tenant
        if tenant is not None and "tenant" not in fields:
            fields["tenant"] = tenant
        self.tracer.emit(kind, now, cause=cause, **fields)
