"""The invariant watchdog: cross-layer assertions, continuously.

Totals checked once at the end of a run can drift for a million events
and still cancel out by luck; the watchdog instead re-asserts the
system's cross-layer invariants *as events arrive*, so the first
violating event is the one in hand when it fires. It is an opt-in
tracer subscriber (install with ``Watchdog(...).install(obs)``) and
costs nothing when absent.

Invariants held (each raises a typed :class:`InvariantViolation` naming
the invariant and carrying the offending event):

- **attribution-sums-to-busy** — on every disk event, the per-cause
  attributed seconds sum to the device's ``busy_time`` (retry backoff
  charges the wall clock, never busy time);
- **busy-le-elapsed** — disk busy time never exceeds elapsed simulated
  time (a violation means some path double-charged the clock);
- **ledger-mirrors-usage** — on segment-lifecycle events, the ledger's
  live-byte mirror equals ``SegmentUsageTable.total_live_bytes()``
  exactly, and per-segment on every ``log.write``;
- **clean-count-matches-scan** — on segment-lifecycle events, the usage
  table's running ``clean_count`` (what the cleaning threshold reads on
  every operation) equals a fresh count of its ``clean`` flags;
- **cleaner-conservation** — every live block the cleaner identified
  was rewritten, rescued, or declared lost: ``live_blocks_seen ==
  live_blocks_moved + blocks_rescued + blocks_lost`` at every
  lifecycle event;
- **no-reopen-quarantined** — a quarantined segment never takes log
  traffic again;
- **cleaned-u-matches-mirror** — the utilization a ``clean.segment``
  event reports for a non-empty victim equals the mirror's view of that
  segment at that instant;
- **tenant-within-total** — seconds charged inside tenant scopes never
  exceed the total attributed seconds (the tenant matrix is a
  decomposition of a *subset* of busy time, never an over-count);
- **erase-before-reuse** — on a flash disk, every page a ``disk.write``
  just landed on is tracked as programmed and not trimmed (a page can
  only be programmed after its erase block was erased when needed);
- **trim-covers-no-live** — a ``flash.trim`` only ever covers a segment
  the usage table (and the ledger mirror) holds at zero live bytes;
- **erase-conservation** — the per-erase-block wear ledger's total
  grows in lockstep with the device's ``erases`` counter;
- **acked-sync-durable** — every acknowledged ``fs.sync`` left zero
  dirty state that is neither staged in NVM nor flushed to the log
  (the ack really is a durability promise);
- **nvm-truncate-covered-by-disk** — the NVM staging log is only ever
  truncated when no covered state remains dirty (the flush that
  justified the truncate really happened);
- **destage-conservation** — every record appended to the NVM log since
  the last truncate is accounted for by the next truncate (records
  never vanish from the staging log without a destage).
"""

from __future__ import annotations

from repro.obs.events import (
    CHECKPOINT_WRITE,
    CLEAN_PASS,
    CLEAN_QUARANTINE,
    CLEAN_SEGMENT,
    DISK_READ,
    DISK_WRITE,
    FLASH_TRIM,
    FS_SYNC,
    LOG_SEGMENT_OPEN,
    LOG_WRITE,
    NVM_APPEND,
    NVM_TRUNCATE,
    Event,
)

#: Event kinds that mark a segment-lifecycle edge; the O(num_segments)
#: whole-table checks run only here, keeping per-event cost bounded.
_LIFECYCLE_KINDS = frozenset(
    (CLEAN_PASS, CLEAN_SEGMENT, CLEAN_QUARANTINE, CHECKPOINT_WRITE, LOG_SEGMENT_OPEN)
)


class InvariantViolation(AssertionError):
    """A cross-layer invariant failed; carries the offending event."""

    def __init__(self, invariant: str, message: str, event: Event | None = None):
        self.invariant = invariant
        self.event = event
        at = ""
        if event is not None:
            at = f" [at {event.kind} t={event.time:.6f} fields={event.fields}]"
        super().__init__(f"[{invariant}] {message}{at}")


class Watchdog:
    """Opt-in continuous invariant checker over the live event stream."""

    def __init__(self, *, ledger=None, tolerance: float = 1e-6) -> None:
        self.ledger = ledger
        self.tolerance = tolerance
        self.events_seen = 0
        self.checks_run = 0
        self._obs = None
        self._fs = None
        #: quarantine verdicts heard from the event stream itself
        self.quarantined: set[int] = set()
        # busy_time rebase across Disk.reset_stats (attribution keeps
        # accumulating while the device counter restarts from zero) and
        # across attaching to a disk that was already busy before this
        # observation existed (e.g. a remount): only busy time accrued
        # *after* the baseline is attributable here.
        self._busy_offset = 0.0
        self._last_busy = 0.0
        self._busy_baseline: float | None = None
        # (wear-ledger total, device erases) at first sight; both grow
        # together from there or the wear accounting leaks.
        self._erase_baseline: tuple[int, int] | None = None
        # NVM appends counted since the last truncate; None until the
        # first truncate establishes a known-empty staging log (records
        # staged before this watchdog attached are otherwise uncountable).
        self._nvm_counted: int | None = None

    def install(self, obs) -> "Watchdog":
        """Subscribe to an :class:`~repro.obs.observation.Observation`."""
        self._obs = obs
        obs.subscribe(self)
        return self

    def on_attach(self, fs) -> None:
        self._fs = fs
        if hasattr(fs, "usage"):
            self.quarantined.update(fs.usage.quarantined_segments())

    # ------------------------------------------------------------------

    def _effective_busy(self) -> float:
        io = self._obs.registry.source("io")
        busy = io.busy_time
        if "nvm" in self._obs.registry.names():
            # The staging board is a second device; attribution covers
            # the busy time of both persistence domains.
            busy += self._obs.registry.source("nvm").busy_time
        if self._busy_baseline is None:
            # First sight of the device: any busy time it accrued beyond
            # what this observation attributed predates the attach.
            self._busy_baseline = max(0.0, busy - self._obs.attribution.total)
        if busy < self._last_busy - 1e-12:  # stats object was reset
            self._busy_offset += self._last_busy - self._busy_baseline
            self._busy_baseline = 0.0
        self._last_busy = busy
        return self._busy_offset + busy - self._busy_baseline

    def on_event(self, event: Event) -> None:
        self.events_seen += 1
        kind = event.kind
        if kind in (DISK_READ, DISK_WRITE):
            self._check_attribution(event)
            if kind == DISK_WRITE:
                self._check_flash_programmed(event)
            return
        if kind in (LOG_SEGMENT_OPEN, LOG_WRITE):
            self._check_no_reopen(event)
        if kind == LOG_WRITE:
            self._check_segment_mirror(event)
        if kind == CLEAN_SEGMENT:
            self._check_cleaned_utilization(event)
        if kind == CLEAN_QUARANTINE:
            self.quarantined.add(event.fields["segment"])
        if kind == FLASH_TRIM:
            self._check_trim_dead(event)
        if kind == FS_SYNC:
            self._check_sync_durable(event)
        if kind == NVM_APPEND:
            if self._nvm_counted is not None:
                self._nvm_counted += 1
        if kind == NVM_TRUNCATE:
            self._check_nvm_truncate(event)
        if kind in _LIFECYCLE_KINDS:
            self._check_clean_count(event)
            self._check_ledger_totals(event)
            self._check_cleaner_conservation(event)
            self._check_erase_conservation(event)

    # ------------------------------------------------------------------
    # individual invariants

    def _check_attribution(self, event: Event) -> None:
        if self._obs is None or "io" not in self._obs.registry.names():
            return
        self.checks_run += 1
        busy = self._effective_busy()
        attributed = self._obs.attribution.total
        if abs(attributed - busy) > self.tolerance:
            raise InvariantViolation(
                "attribution-sums-to-busy",
                f"per-cause seconds sum to {attributed:.9f}s but the disk "
                f"reports busy_time {busy:.9f}s",
                event,
            )
        if busy > event.time + 1e-9:
            raise InvariantViolation(
                "busy-le-elapsed",
                f"busy_time {busy:.9f}s exceeds elapsed simulated time "
                f"{event.time:.9f}s",
                event,
            )
        tenant_total = self._obs.attribution.tenant_total
        if tenant_total > attributed + self.tolerance:
            raise InvariantViolation(
                "tenant-within-total",
                f"tenant-attributed seconds {tenant_total:.9f}s exceed total "
                f"attributed seconds {attributed:.9f}s",
                event,
            )

    def _check_no_reopen(self, event: Event) -> None:
        seg_no = event.fields["segment"]
        self.checks_run += 1
        if seg_no in self.quarantined or (
            self._fs is not None
            and hasattr(self._fs, "usage")
            and self._fs.usage.get(seg_no).quarantined
        ):
            raise InvariantViolation(
                "no-reopen-quarantined",
                f"quarantined segment {seg_no} is taking log traffic",
                event,
            )

    def _check_segment_mirror(self, event: Event) -> None:
        if self.ledger is None or self._fs is None or not hasattr(self._fs, "usage"):
            return
        self.checks_run += 1
        seg_no = event.fields["segment"]
        mirrored = self.ledger.live_bytes_of(seg_no)
        actual = self._fs.usage.get(seg_no).live_bytes
        if mirrored != actual:
            raise InvariantViolation(
                "ledger-mirrors-usage",
                f"segment {seg_no}: ledger mirrors {mirrored} live bytes, "
                f"usage table has {actual}",
                event,
            )

    def _check_cleaned_utilization(self, event: Event) -> None:
        if self.ledger is None or self.ledger.segment_bytes is None:
            return
        if event.fields.get("empty"):
            return  # the empties path reports 0.0 after mark_clean
        self.checks_run += 1
        seg_no = event.fields["segment"]
        reported = event.fields["utilization"]
        mirrored = min(
            1.0, self.ledger.live_bytes_of(seg_no) / self.ledger.segment_bytes
        )
        if reported != mirrored:
            raise InvariantViolation(
                "cleaned-u-matches-mirror",
                f"segment {seg_no}: clean.segment reports u={reported!r} but "
                f"the ledger mirror computes u={mirrored!r}",
                event,
            )

    def _check_clean_count(self, event: Event) -> None:
        if self._fs is None or not hasattr(self._fs, "usage"):
            return
        self.checks_run += 1
        usage = self._fs.usage
        scanned = len(usage.clean_segments())
        if usage.clean_count != scanned:
            raise InvariantViolation(
                "clean-count-matches-scan",
                f"usage table counts {usage.clean_count} clean segments, a "
                f"scan of its flags finds {scanned}",
                event,
            )

    def _check_ledger_totals(self, event: Event) -> None:
        if self.ledger is None or self._fs is None or not hasattr(self._fs, "usage"):
            return
        self.checks_run += 1
        mirrored = self.ledger.total_live_bytes()
        actual = self._fs.usage.total_live_bytes()
        if mirrored != actual:
            raise InvariantViolation(
                "ledger-mirrors-usage",
                f"ledger mirrors {mirrored} total live bytes, usage table "
                f"has {actual}",
                event,
            )

    def _check_flash_programmed(self, event: Event) -> None:
        fs = self._fs
        if fs is None or not hasattr(fs, "disk"):
            return
        fl = getattr(fs.disk, "flash", None)
        if fl is None:
            return
        self.checks_run += 1
        addr = event.fields["addr"]
        span = range(addr, addr + event.fields["blocks"])
        missing = [a for a in span if a not in fl.programmed]
        if missing:
            raise InvariantViolation(
                "erase-before-reuse",
                f"pages {missing[:4]} were just written but the device does "
                f"not track them as programmed (erase bookkeeping was "
                f"bypassed)",
                event,
            )
        stale = [a for a in span if a in fl.trimmed]
        if stale:
            raise InvariantViolation(
                "erase-before-reuse",
                f"pages {stale[:4]} are still marked trimmed after being "
                f"rewritten",
                event,
            )

    def _check_trim_dead(self, event: Event) -> None:
        seg_no = event.fields["segment"]
        self.checks_run += 1
        if self._fs is not None and hasattr(self._fs, "usage"):
            rec = self._fs.usage.get(seg_no)
            if rec.live_bytes != 0 or not rec.clean:
                raise InvariantViolation(
                    "trim-covers-no-live",
                    f"segment {seg_no} was trimmed while the usage table "
                    f"holds {rec.live_bytes} live bytes "
                    f"(clean={rec.clean})",
                    event,
                )
        if self.ledger is not None and self.ledger.live_bytes_of(seg_no) != 0:
            raise InvariantViolation(
                "trim-covers-no-live",
                f"segment {seg_no} was trimmed while the ledger mirrors "
                f"{self.ledger.live_bytes_of(seg_no)} live bytes",
                event,
            )

    def _check_sync_durable(self, event: Event) -> None:
        self.checks_run += 1
        unstaged = event.fields.get("unstaged_dirty", 0)
        if unstaged != 0:
            raise InvariantViolation(
                "acked-sync-durable",
                f"sync acknowledged with {unstaged} dirty blocks neither "
                f"staged in NVM nor flushed to the log",
                event,
            )

    def _check_nvm_truncate(self, event: Event) -> None:
        self.checks_run += 1
        uncovered = event.fields.get("uncovered", 0)
        if uncovered != 0:
            raise InvariantViolation(
                "nvm-truncate-covered-by-disk",
                f"NVM log truncated while {uncovered} covered blocks are "
                f"still dirty (not yet durable in the on-disk log)",
                event,
            )
        dropped = event.fields.get("records", 0)
        if self._nvm_counted is not None and dropped != self._nvm_counted:
            raise InvariantViolation(
                "destage-conservation",
                f"NVM truncate dropped {dropped} records but "
                f"{self._nvm_counted} were appended since the last truncate",
                event,
            )
        self._nvm_counted = 0

    def _check_erase_conservation(self, event: Event) -> None:
        if self._obs is None:
            return
        names = self._obs.registry.names()
        if "flash" not in names or "io" not in names:
            return
        self.checks_run += 1
        wear_total = self._obs.registry.source("flash").erases_total
        device_erases = self._obs.registry.source("io").erases
        if self._erase_baseline is None:
            self._erase_baseline = (wear_total, device_erases)
        dw = wear_total - self._erase_baseline[0]
        de = device_erases - self._erase_baseline[1]
        if dw < 0 or de < 0:
            # reset_stats or restore_state moved a counter backwards out
            # from under us: re-baseline rather than fire falsely.
            self._erase_baseline = (wear_total, device_erases)
            return
        if dw != de:
            raise InvariantViolation(
                "erase-conservation",
                f"wear ledger grew by {dw} erases but the device counted "
                f"{de} since the baseline",
                event,
            )

    def _check_cleaner_conservation(self, event: Event) -> None:
        if self._obs is None or "cleaner" not in self._obs.registry.names():
            return
        self.checks_run += 1
        stats = self._obs.registry.source("cleaner")
        accounted = stats.live_blocks_moved + stats.blocks_rescued + stats.blocks_lost
        if stats.live_blocks_seen != accounted:
            raise InvariantViolation(
                "cleaner-conservation",
                f"cleaner identified {stats.live_blocks_seen} live blocks but "
                f"accounted for {accounted} "
                f"(moved {stats.live_blocks_moved} + rescued "
                f"{stats.blocks_rescued} + lost {stats.blocks_lost})",
                event,
            )
