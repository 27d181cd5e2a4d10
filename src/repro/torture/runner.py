"""Crash-point exploration: replay, recover, verify — in parallel.

The runner takes one :class:`~repro.torture.record.Recording` and fans a
set of crash points across a process pool. A crash point is a pair
``(cut, variant)``, and every variant runs one pipeline,
:func:`explore_point`: **arm** the injector to fail after ``cut`` durable
blocks in the variant's fault mode, **replay** the recorded write stream
onto a copy of the post-format image, **damage** the medium the variant
targets (the aged platter, the NVM board), **mount** (running roll-forward
recovery), and **judge** the recovered namespace against the durability
oracle plus a full ``lfsck`` of the resulting image.

Everything is deterministic: the sample of points is drawn in the parent
from the base seed, each point derives its own fault seed with
:func:`~repro.seeds.derive_point_seed`, and results come back in
spec order — so the outcome digest is bit-identical at any worker count.
"""

from __future__ import annotations

import pickle
import random
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.core.errors import LFSError, MediaError
from repro.core.filesystem import LFS
from repro.core.superblock import Superblock
from repro.disk.faults import FAULT_MODES, DiskCrashed, inject_media_faults
from repro.disk.nvram import NVMDevice, NVMState
from repro.obs import Observation, Watchdog
from repro.seeds import derive_point_seed
from repro.simulator.sweep import resolve_workers
from repro.tools.lfsck import check_filesystem
from repro.tools.scrub import scrub_filesystem
from repro.torture.oracle import (
    DIR,
    crash_state_bounds,
    snapshot_namespace,
    verify_recovered,
)
from repro.torture.record import Recording
from repro.torture.workloads import record_workload

#: Every variant the torture sweep understands: the crash-fault modes the
#: injector can arm mid-stream, plus ``media`` — replay the whole stream,
#: then age the platter with seeded bit-rot, latent sectors, and transient
#: errors before the next mount — plus the NVM damage modes for two-domain
#: recordings: ``nvm-media`` corrupts one surviving staging record and
#: ``nvm-dead`` kills the whole board before the next mount.
TORTURE_MODES = FAULT_MODES + ("media", "nvm-media", "nvm-dead")

#: Variants that only make sense against a two-domain recording.
NVM_MODES = ("nvm-media", "nvm-dead")


@dataclass
class PointResult:
    """Outcome of one crash point."""

    cut: int
    variant: str
    ok: bool = True
    violations: list[str] = field(default_factory=list)
    recovery_elapsed: float = 0.0  # simulated disk seconds spent in roll-forward
    partial_writes_replayed: int = 0
    torn_writes_dropped: int = 0
    #: where the fault surfaced: block address and operation carried by the
    #: DiskCrashed / MediaError that fired at this point (None if none did,
    #: or the error did not localize itself). Diagnostics only — these are
    #: deliberately not part of the digest.
    error_addr: int | None = None
    error_op: str | None = None
    # media-variant outcome counters (zero for the crash variants)
    damage_found: int = 0
    blocks_rescued: int = 0
    paths_degraded: int = 0
    # two-domain (NVM) outcome counters; ``nvm_active`` gates the digest
    # suffix so single-domain recordings fingerprint exactly as before
    nvm_active: bool = False
    nvm_records_replayed: int = 0
    nvm_records_dropped: int = 0
    nvm_read_only: bool = False
    #: flight-recorder samples taken during replay+recovery when the
    #: point ran with ``timeline=True``. Diagnostics only — like the
    #: error fields, deliberately not part of the digest.
    timeline_samples: int = 0

    def digest_line(self) -> str:
        """A stable one-line fingerprint (feeds the run digest)."""
        line = (
            f"{self.cut}:{self.variant}:{int(self.ok)}:"
            f"{len(self.violations)}:{self.recovery_elapsed:.9f}"
        )
        if self.variant == "media":
            # Extend (rather than change) the fingerprint so the crash
            # variants' digest stays comparable with pre-media baselines.
            line += f":{self.damage_found}:{self.blocks_rescued}:{self.paths_degraded}"
        if self.nvm_active:
            line += (
                f":{self.nvm_records_replayed}:{self.nvm_records_dropped}:"
                f"{int(self.nvm_read_only)}"
            )
        return line

    def note_fault(self, exc: Exception | None) -> None:
        """Keep the site of the first fault that localized itself."""
        if self.error_addr is None and isinstance(exc, (DiskCrashed, MediaError)):
            self.error_addr, self.error_op = exc.addr, exc.op


def _observe(watchdog: bool, timeline: bool = False) -> Observation | None:
    """Build the opt-in per-point observatory (None when off).

    The watchdog and the timeline recorder are pure bookkeeping —
    they never touch the simulated clock — so a watchdog- or
    timeline-enabled run must produce the exact same outcome digest as a
    bare run; an invariant violation surfaces as a raised
    :class:`~repro.obs.InvariantViolation` instead.
    """
    if not (watchdog or timeline):
        return None
    obs = Observation(ring_capacity=4096)
    if watchdog:
        Watchdog().install(obs)
    if timeline:
        from repro.obs.timeline import TimelineRecorder

        TimelineRecorder(cadence=0.01).install(obs)
    return obs


# ----------------------------------------------------------------------
# two-domain cut arithmetic
#
# A global cut ``g`` persists the first ``g`` units of the merged stream:
# disk blocks and NVM appends in issue order. NVM append ``j`` (0-based)
# occupies the merged slot ``d_j + j`` where ``d_j`` is the disk block
# count when it was issued; a truncate recorded as ``(d_t, a_t)`` sits at
# merged position ``d_t + a_t`` and, having happened before the cut, has
# wiped the first ``a_t`` appends from the board.


def _split_cut(recording: Recording, g: int) -> tuple[int, int, bool]:
    """Map a global cut to its ``(disk_cut, nvm_cut)`` durable prefixes,
    plus whether the merged unit that trips the crash is an NVM append."""
    nvm_cut = 0
    for j, (d, _) in enumerate(recording.nvm_appends):
        if d + j >= g:
            return g - nvm_cut, nvm_cut, d + j == g
        nvm_cut = j + 1
    return g - nvm_cut, nvm_cut, False


def _board_at_cut(recording: Recording, g: int, variant: str, point_seed: int) -> NVMDevice:
    """The NVM board as a crash at global cut ``g`` leaves it.

    Surviving records are ``appends[T:nvm_cut]`` where ``T`` is the wipe
    count of the last truncate positioned before the cut. Under ``torn``
    with an append in flight, a seeded prefix of the dying record is left
    on the board — the frame CRC rejects it at replay, exactly like a
    torn partial write on disk. (``clean``/``reorder`` drop the in-flight
    append whole: appends are single atomic requests, so there is nothing
    to reorder.)
    """
    _, nvm_cut, in_flight = _split_cut(recording, g)
    wiped = 0
    for d_t, a_t in recording.nvm_truncates:
        if d_t + a_t <= g:
            wiped = max(wiped, a_t)
    records = [framed for _, framed in recording.nvm_appends[wiped:nvm_cut]]
    torn = variant == "torn" and in_flight
    if torn:
        records.append(recording.nvm_appends[nvm_cut][1])
    nv = NVMDevice()
    nv.restore_state(
        NVMState(records=tuple(records), next_seq=len(recording.nvm_appends) + 1)
    )
    if torn:
        nv.tear_last_record(seed=point_seed)
    return nv


# ----------------------------------------------------------------------
# one crash point: arm -> replay -> damage -> mount -> judge


def _arm(recording: Recording, disk, cut: int, variant: str, point_seed: int):
    """Arm ``disk`` to fail at global cut ``cut`` in fault mode ``variant``.

    Returns the NVM board the cut leaves behind (None for a single-domain
    recording, whose cuts are all disk blocks). ``cut == total_blocks``
    never fires: the whole stream persists, which checks the oracle
    against an orderly-but-unflushed device.
    """
    disk_cut, _, nvm_in_flight = _split_cut(recording, cut)
    if disk_cut < recording.disk_blocks:
        # When the dying unit is an NVM append the disk itself stops
        # at a request boundary — its share of the cut is clean.
        disk_mode = "clean" if nvm_in_flight else variant
        disk.crash(after_writes=disk_cut, mode=disk_mode, seed=point_seed)
    return _board_at_cut(recording, cut, variant, point_seed) if recording.nvram else None


def _age_platter(disk, point_seed: int) -> None:
    """Land seeded bit-rot, a latent sector and a transient error on the
    written segment area (the fixed-position metadata stays intact)."""
    area_start = Superblock.from_bytes(disk.peek(0)).segment_area_start
    candidates = sorted(a for a in disk.written_addresses() if a >= area_start)
    inject_media_faults(
        disk, seed=point_seed, rot=2, latent=1, transient=1, candidates=candidates
    )


def _damage_nvm(recording: Recording, variant: str, point_seed: int) -> tuple[NVMDevice, bool]:
    """The end-of-stream NVM board after ``variant``'s damage, plus
    whether the mount must degrade to read-only.

    ``nvm-media`` corrupts one seeded surviving record: damage to any
    record but the last is indistinguishable from losing acknowledged
    history, so the mount must degrade; damage to the last record alone
    is indistinguishable from a torn unacknowledged append and is dropped
    cleanly. ``nvm-dead`` kills the whole board: the mount cannot even
    prove the staging log was empty, so it must degrade.
    """
    nv = _board_at_cut(recording, recording.total_blocks, "clean", point_seed)
    if variant == "nvm-dead":
        nv.fail_device()
        return nv, True
    surviving = nv.record_count
    if not surviving:
        return nv, False
    k = random.Random(point_seed).randrange(surviving)
    nv.corrupt_record(k, seed=point_seed)
    return nv, k < surviving - 1


def _judge_media(fs: LFS, result: PointResult, guaranteed: dict, acceptable: dict) -> None:
    """Scrub the aged image, then read every guaranteed path back.

    The oracle question is *honesty*, not durability: a read may fail
    with a typed error (detected damage, a degraded path) or surface an
    acceptable earlier value (a roll-forward write dropped because its
    summary rotted), but returned bytes matching no acceptable value mean
    the checksums let silent corruption through.
    """
    try:
        scrub = scrub_filesystem(fs, rescue=True)
        result.damage_found = (
            len(scrub.corrupt_blocks)
            + len(scrub.corrupt_summaries)
            + len(scrub.unreadable_blocks)
        )
        result.blocks_rescued = scrub.blocks_rescued
    except LFSError as exc:
        result.note_fault(exc)
    for path in sorted(guaranteed):
        try:
            got = DIR if fs.stat(path).is_directory else fs.read(path)
        except LFSError as exc:
            result.note_fault(exc)
            result.paths_degraded += 1
            continue
        if got not in acceptable.get(path, {guaranteed[path]}):
            result.violations.append(
                f"media: {path} returned data matching no acceptable value "
                f"(silent corruption slipped past the checksums)"
            )


def explore_point(
    recording: Recording,
    cut: int,
    variant: str,
    point_seed: int,
    *,
    watchdog: bool = False,
    timeline: bool = False,
) -> PointResult:
    """Run one crash point through arm -> replay -> damage -> mount -> judge.

    The crash variants (``clean``/``torn``/``reorder``) fail the device
    after ``cut`` durable units and judge the recovered namespace by the
    durability oracle at that cut, then ``lfsck`` the image. ``media``
    and ``nvm-*`` persist the whole stream and use ``cut`` only to vary
    the seeded damage: ``media`` ages the platter and is judged for
    honesty (see :func:`_judge_media`); ``nvm-*`` damages the staging
    board (see :func:`_damage_nvm`), and since lost acknowledged records
    may roll any path back, every recovered value must be some operation
    boundary state since format — degradation is honest, fabrication
    never is.

    For a two-domain recording ``cut`` counts global units (disk blocks
    plus NVM appends, merged in issue order): the disk injector arms at
    the cut's disk share, the reconstructed NVM board holds the cut's
    append share, and the fault mode lands on whichever domain owns the
    unit in flight. ``watchdog`` attaches the invariant watchdog to the
    point's replay and recovery; ``timeline`` attaches a
    flight recorder sampling the replay and recovery I/O (purely
    observational — the outcome digest is unchanged).
    """
    check_request((variant,), sample=None, nvram=recording.nvram)
    crash = variant in FAULT_MODES
    disk = recording.fresh_disk()
    obs = _observe(watchdog, timeline)
    if obs is not None:
        obs.attach_disk(disk)
    result = PointResult(
        cut=cut, variant=variant, nvm_active=recording.nvram and variant != "media"
    )

    nv = _arm(recording, disk, cut, variant, point_seed) if crash else None
    span = nullcontext() if obs is None else obs.span("torture.replay", cut=cut, variant=variant)
    with span:
        result.note_fault(recording.replay(disk, None if obs is None else obs.timeline_tick))

    barriers, horizon, expect_read_only = recording.barriers, cut, False
    if variant == "media":
        _age_platter(disk, point_seed)
        horizon = recording.total_blocks
    elif variant in NVM_MODES:
        nv, expect_read_only = _damage_nvm(recording, variant, point_seed)
        # Lost acknowledged records may roll a path back to any operation
        # boundary: bound by the format barrier and every op in the run.
        barriers, horizon = barriers[:1], recording.total_blocks + 1
    guaranteed, acceptable, touched = crash_state_bounds(recording.ops, barriers, horizon)

    try:
        fs = LFS.mount(disk, recording.config, obs=obs, nvram=nv)
    except LFSError as exc:
        fs = None
        if variant == "media":
            # Refusing to mount damaged metadata is the defense working, not
            # a violation; everything the image held is (detectably) lost.
            result.note_fault(exc)
            result.paths_degraded = len(guaranteed)
        else:
            result.violations.append(f"{variant}: mount failed: {exc}")
    if fs is not None:
        report = fs.last_recovery
        if report is not None:
            result.recovery_elapsed = report.elapsed
            result.partial_writes_replayed = report.partial_writes_replayed
            result.torn_writes_dropped = report.torn_writes_dropped
            result.nvm_records_replayed = report.nvm_records_replayed
            result.nvm_records_dropped = report.nvm_records_dropped
        if variant == "media":
            _judge_media(fs, result, guaranteed, acceptable)
        else:
            result.nvm_read_only = fs.read_only
            if fs.read_only != expect_read_only:
                result.violations.append(
                    f"{variant}: expected read_only={expect_read_only}, "
                    f"mount says {fs.read_only}"
                )
            recovered = snapshot_namespace(fs)
            result.violations.extend(verify_recovered(recovered, guaranteed, acceptable, touched))
    # Timing sanity: busy-time past elapsed simulated time means some
    # recovery path double-charged the clock (the clamped utilization
    # display would silently hide it).
    assert disk.stats.busy_time <= disk.clock.now + 1e-9, (
        f"disk busy_time {disk.stats.busy_time:.9f}s exceeds simulated "
        f"time {disk.clock.now:.9f}s after recovery at cut={cut} variant={variant}"
    )
    if crash and fs is not None and not fs.read_only:
        fs.unmount()
        check = check_filesystem(disk)
        result.violations.extend(f"lfsck: {msg}" for msg in check.errors)
    if obs is not None and obs.timeline is not None:
        obs.timeline.finish()
        result.timeline_samples = obs.timeline.samples_taken
    result.ok = not result.violations
    return result


# ----------------------------------------------------------------------
# parallel plumbing: the recording ships once per worker, not per point

_WORKER_RECORDING: Recording | None = None
_WORKER_WATCHDOG: bool = False


def _init_worker(blob: bytes, watchdog: bool = False) -> None:
    global _WORKER_RECORDING, _WORKER_WATCHDOG
    _WORKER_RECORDING = pickle.loads(zlib.decompress(blob))
    _WORKER_WATCHDOG = watchdog


def _worker_point(cut: int, variant: str, point_seed: int) -> PointResult:
    assert _WORKER_RECORDING is not None, "worker initializer did not run"
    return explore_point(_WORKER_RECORDING, cut, variant, point_seed, watchdog=_WORKER_WATCHDOG)


# ----------------------------------------------------------------------
# the sweep itself


def check_request(variants: tuple[str, ...], *, sample: int | None, nvram: bool) -> None:
    """Reject a sweep that names no variant, an unknown variant, an NVM
    variant without a two-domain recording, or a negative sample."""
    if not variants:
        raise ValueError("no fault variant to explore")
    for v in variants:
        if v not in TORTURE_MODES:
            raise ValueError(f"unknown fault variant {v!r} (want one of {TORTURE_MODES})")
        if v in NVM_MODES and not nvram:
            raise ValueError(f"variant {v!r} needs a two-domain recording (run with nvram=True)")
    if sample is not None and sample < 0:
        raise ValueError(f"sample must be non-negative, got {sample}")


def select_points(
    recording: Recording,
    *,
    sample: int | None,
    seed: int,
    variants: tuple[str, ...] = FAULT_MODES,
    exhaustive: bool = False,
) -> list[tuple[int, str, int]]:
    """Choose the crash points to explore, in the parent, deterministically.

    The population is every cut ``0..total_blocks`` crossed with every
    fault variant. ``sample`` draws that many points with the base seed;
    ``exhaustive`` (or a sample at least the population size) takes all of
    them. Each point gets its own derived fault seed.
    """
    check_request(variants, sample=sample, nvram=recording.nvram)
    population = [
        (cut, variant)
        for cut in range(recording.total_blocks + 1)
        for variant in variants
    ]
    if exhaustive or sample is None or sample >= len(population):
        chosen = population
    else:
        chosen = random.Random(seed).sample(population, sample)
    return [
        (cut, variant, derive_point_seed(seed, recording.workload, cut, variant))
        for cut, variant in chosen
    ]


@dataclass
class TortureResult:
    """Aggregate outcome of one torture run."""

    workload: str
    base_seed: int
    total_blocks: int
    population: int
    points: list[PointResult]
    workers: int
    wall_seconds: float

    @property
    def violations(self) -> list[PointResult]:
        return [p for p in self.points if not p.ok]

    @property
    def violation_count(self) -> int:
        return sum(len(p.violations) for p in self.points)

    @property
    def mean_recovery_seconds(self) -> float:
        if not self.points:
            return 0.0
        return sum(p.recovery_elapsed for p in self.points) / len(self.points)

    @property
    def outcome_digest(self) -> str:
        """CRC32 over every point's fingerprint, in spec order.

        Identical digests across worker counts prove the sweep is
        scheduling-independent.
        """
        text = "\n".join(p.digest_line() for p in self.points)
        return f"{zlib.crc32(text.encode('utf-8')):08x}"


def run_torture(
    workload: str,
    *,
    sample: int | None = 200,
    seed: int = 0,
    workers: int | None = None,
    variants: tuple[str, ...] = FAULT_MODES,
    exhaustive: bool = False,
    watchdog: bool = False,
    flash: bool = False,
    nvram: bool = False,
) -> TortureResult:
    """Record one workload, then explore crash points across a pool.

    ``watchdog`` runs every point under the invariant watchdog (see
    :func:`_observe`); outcomes and the digest are
    unchanged unless an invariant actually breaks, which raises.
    ``flash`` records the workload on the NAND profile (erase-aware
    device, hot/cold segregation, wear leveling) so crash points land
    inside the flash machinery too. ``nvram`` records with the NVM
    staging board attached, making the run two-domain: cuts enumerate
    interleaved disk/NVM durable prefixes, and the ``nvm-media`` /
    ``nvm-dead`` variants become available.
    """
    start = time.perf_counter()
    recording = record_workload(workload, seed, flash=flash, nvram=nvram)
    specs = select_points(
        recording, sample=sample, seed=seed, variants=variants, exhaustive=exhaustive
    )
    nworkers = resolve_workers(workers, len(specs))
    if nworkers <= 1:
        points = [explore_point(recording, *spec, watchdog=watchdog) for spec in specs]
    else:
        blob = zlib.compress(pickle.dumps(recording))
        chunk = max(1, len(specs) // (nworkers * 4))
        with ProcessPoolExecutor(
            max_workers=nworkers, initializer=_init_worker, initargs=(blob, watchdog)
        ) as pool:
            points = list(pool.map(_worker_point, *zip(*specs), chunksize=chunk))
    return TortureResult(
        workload=workload,
        base_seed=seed,
        total_blocks=recording.total_blocks,
        population=(recording.total_blocks + 1) * len(variants),
        points=points,
        workers=nworkers,
        wall_seconds=time.perf_counter() - start,
    )
