"""Time attribution: charge every second of disk busy-time to a cause.

This is the paper's write-cost decomposition made first-class. Section 3
prices a log-structured write as *new data transfer + cleaning reads +
cleaning writes*; Section 4 adds checkpoint traffic; application reads
are the remaining consumer of disk arm time. The profiler maintains a
stack of cause scopes — the file system pushes ``cleaning_read`` around
the cleaner's segment reads, ``cleaning_write`` around a cleaning flush,
``checkpoint`` around checkpoint metadata and region writes — and every
disk request is charged to the innermost active scope. Requests with no
scope default by direction: writes are new-data writes, reads are
application reads.

The invariant checked downstream: the per-cause seconds sum to the
disk's ``busy_time``, and busy-time never exceeds elapsed simulated
time (a violation means some path double-charged the clock).

The multi-tenant server adds a second, orthogonal dimension: *who* the
disk was working for. A tenant scope (:meth:`TimeAttribution.tenant`)
tags every charge inside it with a tenant id, accumulating a
``tenant -> cause -> seconds`` matrix. Cleaning triggered inline by a
tenant's own request — the emergency ``_ensure_space`` path — lands in
that tenant's row under ``cleaning_read``/``cleaning_write``, which is
exactly the "how much of my tail latency is the cleaner's fault" answer
the server report quotes. Background work the event loop schedules
outside any request runs under the reserved :data:`SYSTEM_TENANT` row.
Time charged with no tenant scope open (single-caller workloads) is not
tenant-attributed at all, so the tenant matrix sums to *at most* the
cause totals — an inequality the watchdog holds continuously.
"""

from __future__ import annotations

DATA_WRITE = "data_write"
CLEANING_READ = "cleaning_read"
CLEANING_WRITE = "cleaning_write"
CHECKPOINT = "checkpoint"
APPLICATION_READ = "application_read"
#: Time the NVM staging board spent absorbing sync records (the second
#: persistence domain's busy time; attribution totals span both devices).
NVM_STAGE = "nvm_stage"
#: Disk time spent destaging NVM-covered data to the log in batches.
NVM_DESTAGE = "nvm_destage"

CAUSES = (
    DATA_WRITE,
    CLEANING_READ,
    CLEANING_WRITE,
    CHECKPOINT,
    APPLICATION_READ,
    NVM_STAGE,
    NVM_DESTAGE,
)

#: Reserved tenant id for background work the event loop runs on its own
#: authority (scheduled cleaner passes, timed checkpoints) rather than on
#: behalf of any client request.
SYSTEM_TENANT = "@system"

#: The causes that are the cleaner's doing — the interference signal.
CLEANING_CAUSES = (CLEANING_READ, CLEANING_WRITE)


def write_cost(
    log_blocks: float, region_blocks: float, cleaner_blocks: float, cleaner_reads: float
) -> float | None:
    """The paper's write cost in blocks: disk traffic per block of new data.

    Traffic is every log block, checkpoint-region block and cleaner read;
    new data is the log blocks the cleaner did not write. ``None`` when
    no new data was written. ``LFS.write_cost``, the timeline's window
    gauge and Table 2 all use this one formula (over totals or deltas).
    """
    new_data = log_blocks - cleaner_blocks
    if new_data <= 0:
        return None
    return (log_blocks + region_blocks + cleaner_reads) / new_data


class _CauseScope:
    """Context manager pushing one cause onto the attribution stack."""

    __slots__ = ("_attribution", "_name")

    def __init__(self, attribution: "TimeAttribution", name: str) -> None:
        self._attribution = attribution
        self._name = name

    def __enter__(self) -> "_CauseScope":
        self._attribution._stack.append(self._name)
        return self

    def __exit__(self, *exc) -> bool:
        self._attribution._stack.pop()
        return False


class _TenantScope:
    """Context manager pushing one tenant onto the tenant stack."""

    __slots__ = ("_attribution", "_name")

    def __init__(self, attribution: "TimeAttribution", name: str) -> None:
        self._attribution = attribution
        self._name = name

    def __enter__(self) -> "_TenantScope":
        self._attribution._tenant_stack.append(self._name)
        return self

    def __exit__(self, *exc) -> bool:
        self._attribution._tenant_stack.pop()
        return False


class TimeAttribution:
    """Accumulates simulated disk busy-seconds per cause (and tenant)."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {c: 0.0 for c in CAUSES}
        #: tenant -> cause -> seconds, populated only inside tenant scopes
        self.tenant_seconds: dict[str, dict[str, float]] = {}
        self._stack: list[str] = []
        self._tenant_stack: list[str] = []

    def cause(self, name: str) -> _CauseScope:
        """Scope within which disk time is charged to ``name``."""
        return _CauseScope(self, name)

    def tenant(self, name: str) -> _TenantScope:
        """Scope within which disk time is *also* charged to ``name``."""
        return _TenantScope(self, name)

    def current_cause(self, *, write: bool) -> str:
        """The cause a request would be charged to right now."""
        if self._stack:
            return self._stack[-1]
        return DATA_WRITE if write else APPLICATION_READ

    @property
    def current_tenant(self) -> str | None:
        """The innermost open tenant scope, if any."""
        return self._tenant_stack[-1] if self._tenant_stack else None

    def charge(self, elapsed: float, *, write: bool = True, cause: str | None = None) -> None:
        """Charge ``elapsed`` seconds of device service time to ``cause``
        (default: the innermost scope, else by direction)."""
        name = cause if cause is not None else self.current_cause(write=write)
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
        if self._tenant_stack:
            row = self.tenant_seconds.setdefault(self._tenant_stack[-1], {})
            row[name] = row.get(name, 0.0) + elapsed

    @property
    def total(self) -> float:
        """All attributed seconds (equals the disk's busy_time)."""
        return sum(self.seconds.values())

    def fractions(self) -> dict[str, float]:
        """Each cause's share of total attributed time."""
        total = self.total
        if total <= 0:
            return {c: 0.0 for c in self.seconds}
        return {c: s / total for c, s in self.seconds.items()}

    @property
    def tenant_total(self) -> float:
        """Seconds charged inside any tenant scope (<= :attr:`total`)."""
        return sum(sum(row.values()) for row in self.tenant_seconds.values())

    def tenant_cleaning_seconds(self) -> dict[str, float]:
        """Cleaner seconds charged to each tenant — the interference row.

        A tenant accrues these when *its own request* had to clean inline
        (the emergency headroom path); :data:`SYSTEM_TENANT` accrues the
        passes the event loop scheduled in the background.
        """
        return {
            t: sum(row.get(c, 0.0) for c in CLEANING_CAUSES)
            for t, row in self.tenant_seconds.items()
        }

    def render(self) -> str:
        """An ASCII table of the decomposition."""
        from repro.analysis.ascii_chart import render_table

        fractions = self.fractions()
        rows = [
            [cause, f"{self.seconds[cause]:.3f}s", f"{fractions[cause] * 100:.1f}%"]
            for cause in CAUSES
        ]
        rows.append(["total", f"{self.total:.3f}s", "100.0%" if self.total > 0 else "-"])
        return render_table(
            ["cause", "disk time", "share"],
            rows,
            title="disk busy-time attribution (the paper's write-cost decomposition)",
        )
