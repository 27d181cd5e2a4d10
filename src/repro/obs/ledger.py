"""The segment-lifecycle ledger: every segment's biography, live.

The paper's argument lives in *distributions* — Figure 6's segment
utilization distribution under cost-benefit cleaning, Table 2's
"utilization at cleaning time" production statistics, the
age-vs-utilization bimodality that motivates the policy. The flat
counters give totals; the ledger reconstructs lives.

It subscribes to the tracer (``log.segment_open`` / ``log.write`` /
``clean.segment`` / ``clean.quarantine``) for lifecycle edges,
maintaining per segment: writes, age at cleaning, and death cause. Table
2 and Figure 6 are not computed here: ``CleanerStats`` is their one
accounting. Live bytes, write times and quarantine verdicts are read from
the attached file system's :class:`~repro.core.seg_usage.SegmentUsageTable`,
the one account of them (lfsck recounts it exactly).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.events import (
    CLEAN_QUARANTINE,
    CLEAN_SEGMENT,
    FLASH_ERASE,
    FLASH_TRIM,
    LOG_SEGMENT_OPEN,
    LOG_WRITE,
    NVM_APPEND,
    NVM_TRUNCATE,
    Event,
)


@dataclass
class SegmentLife:
    """One segment's biography from log-open to cleaning (or quarantine)."""

    segment: int
    opened_at: float
    writes: int = 0
    death_cause: str | None = None  # "cleaned" | "cleaned-empty" | "quarantined"
    death_time: float | None = None
    death_utilization: float | None = None
    age_at_death: float | None = None
    #: opened by the cold (cleaner-output) cursor under hot/cold segregation
    cold: bool = False
    #: the file system TRIMmed this segment after its death
    trimmed: bool = False

    @property
    def closed(self) -> bool:
        return self.death_cause is not None


class SegmentLedger:
    """Live per-segment history, fed by trace events."""

    def __init__(self) -> None:
        #: open lives by segment number
        self.lives: dict[int, SegmentLife] = {}
        #: closed lives, in death order
        self.history: list[SegmentLife] = []
        #: ``clean.segment`` events seen
        self.segments_cleaned = 0
        #: the attached file system's usage table (None before an LFS attaches)
        self._usage = None
        # Flash lifecycle totals (all zero off flash).
        self.erase_events = 0
        self.erases_by_reason: dict[str, int] = {}
        self.trim_events = 0
        self.trim_blocks = 0
        # NVM staging lifecycle totals (all zero without the board).
        # Conservation view for the report: every record that
        # enters the staging log (append) must leave it via exactly one
        # truncate after a covering disk flush — destaged can never
        # exceed staged, and at quiesce the two agree.
        self.nvm_appends = 0
        self.nvm_bytes_staged = 0
        self.nvm_truncates = 0
        self.nvm_records_destaged = 0
        self.nvm_peak_used = 0
        #: most recent closed life per segment, for TRIM annotation
        self._last_closed: dict[int, SegmentLife] = {}

    def install(self, obs) -> "SegmentLedger":
        """Subscribe to an :class:`~repro.obs.observation.Observation`."""
        obs.subscribe(self)
        return self

    # ------------------------------------------------------------------
    # wiring

    def on_attach(self, fs) -> None:
        """Read the usage table of a newly attached LFS instance."""
        if hasattr(fs, "usage"):  # FFS baseline has no segments
            self._usage = fs.usage

    # ------------------------------------------------------------------
    # event stream

    def on_event(self, event: Event) -> None:
        kind = event.kind
        if kind == LOG_SEGMENT_OPEN:
            self._open_life(event)
        elif kind == LOG_WRITE:
            self._record_write(event)
        elif kind == CLEAN_SEGMENT:
            self._close_life(
                event,
                cause="cleaned-empty" if event.fields.get("empty") else "cleaned",
                utilization=event.fields["utilization"],
            )
        elif kind == CLEAN_QUARANTINE:
            self._close_life(event, cause="quarantined", utilization=None)
        elif kind == FLASH_ERASE:
            self.erase_events += 1
            reason = event.fields.get("reason", "?")
            self.erases_by_reason[reason] = self.erases_by_reason.get(reason, 0) + 1
        elif kind == FLASH_TRIM:
            self.trim_events += 1
            self.trim_blocks += event.fields.get("blocks", 0)
            life = self._last_closed.get(event.fields["segment"])
            if life is not None:
                life.trimmed = True
        elif kind == NVM_APPEND:
            self.nvm_appends += 1
            self.nvm_bytes_staged += event.fields.get("bytes", 0)
            self.nvm_peak_used = max(self.nvm_peak_used, event.fields.get("used", 0))
        elif kind == NVM_TRUNCATE:
            self.nvm_truncates += 1
            self.nvm_records_destaged += event.fields.get("records", 0)

    def _open_life(self, event: Event) -> None:
        seg_no = event.fields["segment"]
        stale = self.lives.pop(seg_no, None)
        if stale is not None:  # should not happen; keep the evidence
            stale.death_cause = "reopened"
            stale.death_time = event.time
            self.history.append(stale)
        life = SegmentLife(segment=seg_no, opened_at=event.time)
        life.cold = bool(event.fields.get("cold"))
        self.lives[seg_no] = life

    def _record_write(self, event: Event) -> None:
        life = self.lives.get(event.fields["segment"])
        if life is None or life.closed:
            return
        life.writes += 1

    def _close_life(self, event: Event, *, cause: str, utilization) -> None:
        seg_no = event.fields["segment"]
        if utilization is not None:
            self.segments_cleaned += 1
        life = self.lives.pop(seg_no, None)
        last_write = 0.0
        if life is None:
            # A segment written before this ledger attached (e.g. cleaned
            # right after a remount): synthesize a stub so death
            # statistics still count it; its age runs from time zero.
            life = SegmentLife(segment=seg_no, opened_at=event.time)
        elif self._usage is not None:
            last_write = self._usage.get(seg_no).last_write
        life.death_cause = cause
        life.death_time = event.time
        life.death_utilization = utilization
        life.age_at_death = max(0.0, event.time - last_write)
        self.history.append(life)
        self._last_closed[seg_no] = life

    # ------------------------------------------------------------------
    # derived views

    def death_causes(self) -> dict[str, int]:
        causes: dict[str, int] = {}
        for life in self.history:
            causes[life.death_cause] = causes.get(life.death_cause, 0) + 1
        return causes

    def stats(self) -> dict:
        """Summary dict for run reports."""
        ages = [l.age_at_death for l in self.history if l.age_at_death is not None]
        writes = [l.writes for l in self.history]
        usage = self._usage
        out = {
            "lives_open": len(self.lives),
            "lives_closed": len(self.history),
            "death_causes": self.death_causes(),
            "quarantined": usage.quarantined_segments() if usage is not None else [],
            "mean_age_at_death": (sum(ages) / len(ages)) if ages else 0.0,
            "mean_writes_per_life": (sum(writes) / len(writes)) if writes else 0.0,
            "total_live_bytes": usage.total_live_bytes() if usage is not None else 0,
            "segments_cleaned": self.segments_cleaned,
        }
        if self.erase_events or self.trim_events:
            all_lives = list(self.lives.values()) + self.history
            out["flash"] = {
                "erase_events": self.erase_events,
                "erases_by_reason": dict(sorted(self.erases_by_reason.items())),
                "trim_events": self.trim_events,
                "trim_blocks": self.trim_blocks,
                "lives_cold": sum(1 for l in all_lives if l.cold),
                "lives_trimmed": sum(1 for l in self.history if l.trimmed),
            }
        if self.nvm_appends or self.nvm_truncates:
            out["nvm"] = {
                "appends": self.nvm_appends,
                "bytes_staged": self.nvm_bytes_staged,
                "truncates": self.nvm_truncates,
                "records_destaged": self.nvm_records_destaged,
                "records_in_flight": self.nvm_appends - self.nvm_records_destaged,
                "peak_used_bytes": self.nvm_peak_used,
            }
        return out
