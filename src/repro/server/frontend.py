"""The multi-tenant file server: event loop + policy queue + VFS.

``run_server`` is the subsystem's entry point: it formats an LFS sized
for the configured load, builds the tenant registry and namespaces,
installs the load generator on an :class:`~repro.server.loop.EventLoop`,
and services requests through the :class:`~repro.vfs.FileSystemView`
handle layer — one request at a time, in policy order, with cleaner
passes and checkpoints interleaved as loop events of their own.

What the run measures, per tenant and globally:

- **latency** (arrival to completion, simulated seconds) into
  :class:`~repro.obs.histogram.LatencyHistogram` — queueing delay
  included, which is where cleaner interference lives;
- **attribution** — every disk second charged to (cause, tenant), so
  "t3 spent 1.2s of its life inside emergency cleans" is a report row,
  not a guess (background passes charge :data:`~repro.obs.SYSTEM_TENANT`);
- **digests** — the loop's event-order digest and a latency digest over
  every completion, making determinism a string comparison.

The server is deliberately a *single-server* queue: the LFS core is
synchronous, so service is serialized and the policy's only power is
choosing the order — which is exactly the knob FIFO vs DRR disagree
about, and the experiment the tail-latency bench runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.config import LFSConfig
from repro.core.errors import NoSpaceError, ReadOnlyError
from repro.core.filesystem import LFS
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.obs import Observation, SYSTEM_TENANT
from repro.obs.events import SERVER_ARRIVE, SERVER_DONE, SERVER_START
from repro.server.clients import LoadGenerator, Request, WorkloadConfig
from repro.server.loop import EventLoop
from repro.server.policies import DEFAULT_QUANTUM, make_policy
from repro.server.tenants import TenantRegistry
from repro.vfs import FileSystemView

#: simulated seconds between background cleaner checks
CLEANER_PERIOD = 0.5
#: simulated CPU time charged to every request before its file system work
CPU_OP_SECONDS = 0.002


@dataclass
class ServerConfig:
    """One server run: the workload plus the serving discipline.

    The cleaner knob selects between three regimes:

    - ``cleaner=True`` — the loop schedules a cleaner check every
      ``CLEANER_PERIOD`` simulated seconds (a pass runs when clean
      segments fall below ``clean_low_water``, charged to the system
      tenant), and the FS keeps a lower inline emergency threshold
      whose passes are charged to the requesting tenant;
    - ``cleaner=False`` — no background passes at all; only the
      emergency headroom path cleans, always inline, always charged to
      the tenant whose request needed the space.

    Checkpoints are loop events either way (the FS's own timed trigger
    is disabled in favor of the loop's), every
    ``checkpoint_interval`` simulated seconds.
    """

    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    policy: str = "fifo"
    quantum: float = DEFAULT_QUANTUM
    cleaner: bool = True
    clean_low_water: int = 20
    clean_high_water: int = 40
    checkpoint_interval: float = 5.0
    block_size: int = 1024
    segment_bytes: int = 256 * 1024
    #: device capacity as a multiple of the expected write volume; small
    #: enough that the log wraps and the cleaner has real work.
    disk_headroom: float = 1.6
    #: attach an NVM staging board (default profile) so per-handle
    #: fsyncs are absorbed as staging-log appends instead of forcing a
    #: partial-segment flush per commit
    nvram: bool = False
    #: attach the flight recorder: sample every metrics source plus the
    #: derived gauges at ``timeline_cadence`` simulated seconds, track
    #: per-tenant SLO burn rates, and detect anomaly phases. Purely
    #: observational — the event-order and latency digests are identical
    #: with it on or off.
    timeline: bool = False
    timeline_cadence: float = 0.25
    #: SLO objective applied per tenant (plus a global ``server``
    #: objective) when the timeline is on: 99 % of each tenant's requests
    #: must complete within ``slo_latency`` simulated seconds (the
    #: :class:`SLOObjective` defaults). ``slo_latency=0`` disables it.
    slo_latency: float = 0.0

    def geometry(self) -> DiskGeometry:
        w = self.workload
        # Expected bytes appended to the log: setup creates + measured
        # writes/appends. Sizing the device at only ``disk_headroom``
        # times that volume is deliberate — the log must wrap at bench
        # scale, or there is no cleaner interference to measure.
        volume = w.clients * (w.files_per_client + w.ops_per_client) * max(
            w.file_size, self.block_size
        )
        blocks = int(volume * self.disk_headroom) // self.block_size
        floor = 48 * (self.segment_bytes // self.block_size)
        blocks = max(blocks, floor)
        return DiskGeometry.wren4(block_size=self.block_size, num_blocks=blocks)

    def fs_config(self) -> LFSConfig:
        w = self.workload
        if self.cleaner:
            # Inline emergency floor sits below the loop's thresholds so
            # background passes do the steady-state work and the inline
            # path fires only when the loop falls behind.
            low = max(4, self.clean_low_water // 3)
            high = max(low, self.clean_high_water // 3)
        else:
            low = high = 0
        return LFSConfig(
            block_size=self.block_size,
            segment_bytes=self.segment_bytes,
            max_inodes=max(1024, w.clients * (w.files_per_client + 2) + w.tenants + 16),
            cache_blocks=16384,
            clean_low_water=low,
            clean_high_water=high,
            checkpoint_interval=0.0,  # the loop owns checkpoints
        )


@dataclass
class ServerResult:
    """Everything one run produced, JSON-serializable via ``to_dict``."""

    policy: str
    cleaner: bool
    clients: int
    tenants: int
    requests: int
    failed: int
    elapsed_seconds: float
    events_fired: int
    cleaner_passes: int
    checkpoints: int
    digest: str           # loop event-order digest
    latency_digest: str   # completion-stream digest
    latency: dict         # global + per-tenant percentile summaries
    tenant_summary: dict
    attribution_seconds: dict
    tenant_attribution: dict
    tenant_cleaning_seconds: dict
    watchdog_violations: int = 0
    #: flight-recorder summary (samples, digest, annotations, SLO burn
    #: rates, curve peaks) — None unless ``config.timeline`` was set
    timeline: dict | None = None

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "cleaner": self.cleaner,
            "clients": self.clients,
            "tenants": self.tenants,
            "requests": self.requests,
            "failed": self.failed,
            "elapsed_seconds": self.elapsed_seconds,
            "events_fired": self.events_fired,
            "cleaner_passes": self.cleaner_passes,
            "checkpoints": self.checkpoints,
            "digest": self.digest,
            "latency_digest": self.latency_digest,
            "latency": self.latency,
            "tenants_detail": self.tenant_summary,
            "attribution_seconds": self.attribution_seconds,
            "tenant_attribution": self.tenant_attribution,
            "tenant_cleaning_seconds": self.tenant_cleaning_seconds,
            "watchdog_violations": self.watchdog_violations,
            "timeline": self.timeline,
        }


class FileServer:
    """Admission queue + dispatcher over one FileSystemView."""

    def __init__(
        self,
        vfs: FileSystemView,
        loop: EventLoop,
        registry: TenantRegistry,
        queue,
        obs: Observation,
        generator: LoadGenerator,
        *,
        sync_writes: bool = False,
    ) -> None:
        self.vfs = vfs
        self.fs = vfs.fs
        self.loop = loop
        self.registry = registry
        self.queue = queue
        self.obs = obs
        self.generator = generator
        self.sync_writes = sync_writes
        self.completed = 0
        self.failed = 0
        #: optional hook fired after every request completes (run_server
        #: uses it to cancel pending system ticks once all clients drain)
        self.on_request_complete = None
        self._busy = False
        self._dirs: set[str] = set()
        self._latency_digest = hashlib.sha256()
        self.latency = obs.histogram("server")

    # ------------------------------------------------------------------
    # admission

    def submit(self, request: Request) -> None:
        """Accept one request into the admission queue."""
        now = self.loop.now
        request.submitted_at = now
        tenant = self.registry.get(request.tenant)
        tenant.stats.submitted += 1
        tenant.stats.queue_depth += 1
        if tenant.stats.queue_depth > tenant.stats.queue_depth_max:
            tenant.stats.queue_depth_max = tenant.stats.queue_depth
        self.queue.push(request)
        self.obs.emit(
            SERVER_ARRIVE,
            client=request.client,
            tenant=request.tenant,
            op=request.op,
            depth=len(self.queue),
        )
        if not self._busy:
            self._busy = True
            self.loop.at(now, "server.dispatch", self._dispatch)

    # ------------------------------------------------------------------
    # service

    def _dispatch(self, loop: EventLoop) -> None:
        request = self.queue.pop()
        if request is None:
            self._busy = False
            return
        tenant = self.registry.get(request.tenant)
        tenant.stats.queue_depth -= 1
        request.started_at = loop.now
        self.obs.emit(
            SERVER_START,
            client=request.client,
            tenant=request.tenant,
            op=request.op,
            wait=request.wait,
        )
        with self.obs.tenant(request.tenant):
            try:
                self._execute(request, tenant)
            except (NoSpaceError, ReadOnlyError):
                self.failed += 1
                tenant.stats.failed += 1
        request.completed_at = loop.now
        self._account(request, tenant)
        # Chain the next dispatch as its own event so queued arrivals
        # with earlier timestamps (admitted while this request held the
        # clock) enter the queue before the policy picks again.
        self.loop.at(loop.now, "server.dispatch", self._dispatch)

    def _ensure_dirs(self, tenant_prefix: str, path: str) -> None:
        parts = path.strip("/").split("/")[:-1]
        built = tenant_prefix
        for part in parts:
            built = f"{built}/{part}"
            if built not in self._dirs:
                if not self.fs.exists(built):
                    self.fs.mkdir(built)
                self._dirs.add(built)

    def _execute(self, request: Request, tenant) -> None:
        path = tenant.path(request.path)
        payload = b"x" * request.size if request.size else b""
        self.fs.disk.clock.advance(CPU_OP_SECONDS)
        # Per-handle commit inside the tenant's attribution scope, so
        # staging (or the forced partial flush without NVM) is charged
        # to the tenant whose request demanded the durability.
        commit = self.sync_writes
        if request.op == "create":
            self._ensure_dirs(tenant.prefix, request.path)
            with self.vfs.open(path, "w") as fh:
                fh.write(payload)
                if commit:
                    fh.fsync()
            tenant.stats.bytes_written += len(payload)
        elif request.op == "write":
            with self.vfs.open(path, "r+") as fh:
                fh.write(payload)
                if commit:
                    fh.fsync()
            tenant.stats.bytes_written += len(payload)
        elif request.op == "append":
            with self.vfs.open(path, "a") as fh:
                fh.write(payload)
                if commit:
                    fh.fsync()
            tenant.stats.bytes_written += len(payload)
        elif request.op == "read":
            with self.vfs.open(path, "r") as fh:
                tenant.stats.bytes_read += len(fh.read())
        elif request.op == "delete":
            self.vfs.remove(path)
        else:
            raise ValueError(f"unknown op {request.op!r}")

    def _account(self, request: Request, tenant) -> None:
        latency = request.latency
        service = request.completed_at - request.started_at
        tenant.stats.completed += 1
        tenant.stats.service_seconds += service
        tenant.stats.wait_seconds += request.wait
        tenant.latency.record(latency)
        self.latency.record(latency)
        self.completed += 1
        self._latency_digest.update(
            f"{request.client}:{request.op}:{latency!r}".encode()
        )
        self.obs.emit(
            SERVER_DONE,
            client=request.client,
            tenant=request.tenant,
            op=request.op,
            latency=latency,
            service=service,
        )
        self.generator.on_complete(self.loop, request)
        if self.on_request_complete is not None:
            self.on_request_complete()

    @property
    def latency_digest(self) -> str:
        return self._latency_digest.hexdigest()[:16]


def run_server(
    config: ServerConfig | None = None,
    *,
    obs: Observation | None = None,
    watchdog: bool = False,
) -> ServerResult:
    """Run one multi-tenant serving experiment to completion.

    Deterministic: the returned result's ``digest`` (event order) and
    ``latency_digest`` (completion stream) depend only on ``config`` —
    the same seed reproduces them bit-for-bit in any process.
    """
    config = config if config is not None else ServerConfig()
    w = config.workload

    disk = Disk(config.geometry())
    if obs is None:
        obs = Observation(ring_capacity=4096)
    if watchdog:
        from repro.obs import Watchdog

        Watchdog().install(obs)
    nvm = None
    if config.nvram:
        from repro.disk.nvram import NVMDevice

        nvm = NVMDevice(clock=disk.clock)
    fs = LFS.format(disk, config.fs_config(), obs=obs, nvram=nvm)
    vfs = FileSystemView(fs)
    loop = EventLoop(disk.clock)

    generator = LoadGenerator(w)
    registry = TenantRegistry()
    exact_limit = 512 if w.clients <= 2048 else 128
    for tid in generator.tenant_ids():
        registry.add(tid, exact_limit=exact_limit)
        fs.mkdir(f"/{tid}")
    obs.registry.register("tenants", registry.counters)

    recorder = None
    if config.timeline:
        from repro.obs.timeline import SLOObjective, TimelineRecorder

        slos = []
        if config.slo_latency > 0:
            slos = [
                SLOObjective(name=name, threshold=config.slo_latency)
                for name in [*generator.tenant_ids(), "server"]
            ]
        recorder = TimelineRecorder(
            cadence=config.timeline_cadence, slos=slos
        ).install(obs)
        # The loop drives the cadence gate after every fired event; the
        # sampler is not an event, so digests are unaffected.
        loop.sampler = recorder.maybe_sample

    weights = {t.tid: t.weight for t in registry.tenants()}
    queue = make_policy(config.policy, quantum=config.quantum, weights=weights)
    server = FileServer(
        vfs, loop, registry, queue, obs, generator,
        sync_writes=w.sync_writes,
    )

    expected = sum(c.budget for c in generator.clients)
    counters = {"cleaner_passes": 0, "checkpoints": 0}

    pending: dict[str, object] = {}

    def finished() -> bool:
        return server.completed + server.failed >= expected

    def cleaner_tick(lp: EventLoop) -> None:
        if finished():
            return
        if fs.usage.clean_count < config.clean_low_water:
            counters["cleaner_passes"] += 1
            with obs.tenant(SYSTEM_TENANT):
                fs.cleaner.clean(config.clean_high_water)
        pending["cleaner"] = lp.after(
            CLEANER_PERIOD, "cleaner.tick", cleaner_tick
        )

    def checkpoint_tick(lp: EventLoop) -> None:
        if finished():
            return
        counters["checkpoints"] += 1
        with obs.tenant(SYSTEM_TENANT):
            fs.checkpoint()
        pending["checkpoint"] = lp.after(
            config.checkpoint_interval, "checkpoint.tick", checkpoint_tick
        )

    def cancel_ticks_when_done() -> None:
        # Without this, a far-future checkpoint tick would drag the clock
        # out long past the last completion and inflate elapsed time.
        if finished():
            for event in pending.values():
                event.cancel()

    server.on_request_complete = cancel_ticks_when_done

    if config.cleaner:
        pending["cleaner"] = loop.after(
            CLEANER_PERIOD, "cleaner.tick", cleaner_tick
        )
    if config.checkpoint_interval > 0:
        pending["checkpoint"] = loop.after(
            config.checkpoint_interval, "checkpoint.tick", checkpoint_tick
        )

    generator.install(loop, server)
    loop.run()

    if not finished():
        raise RuntimeError(
            f"server run stalled: {server.completed + server.failed} of "
            f"{expected} requests finished with an empty event heap"
        )
    with obs.tenant(SYSTEM_TENANT):
        fs.sync()
    if recorder is not None:
        recorder.finish(disk.clock.now)

    latency_summary = {"server": server.latency.percentiles()}
    for tenant in registry.tenants():
        latency_summary[tenant.tid] = tenant.latency.percentiles()

    return ServerResult(
        policy=config.policy,
        cleaner=config.cleaner,
        clients=w.clients,
        tenants=w.tenants,
        requests=server.completed,
        failed=server.failed,
        elapsed_seconds=disk.clock.now,
        events_fired=loop.events_fired,
        cleaner_passes=counters["cleaner_passes"],
        checkpoints=counters["checkpoints"],
        digest=loop.digest,
        latency_digest=server.latency_digest,
        latency=latency_summary,
        tenant_summary=registry.summary(),
        attribution_seconds=dict(obs.attribution.seconds),
        tenant_attribution={
            t: dict(row) for t, row in sorted(obs.attribution.tenant_seconds.items())
        },
        tenant_cleaning_seconds=obs.attribution.tenant_cleaning_seconds(),
        watchdog_violations=0,
        timeline=recorder.summary() if recorder is not None else None,
    )
