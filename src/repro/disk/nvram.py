"""The NVM staging device: a second persistence domain.

Section 5.1 of the paper names small synchronous writes as the workload
where the log's batching advantage evaporates, and its future-work answer
is non-volatile RAM. This module models that board: a byte-addressable
staging log with its own timing profile (fixed per-request latency plus a
bandwidth bound — no arm, no rotation), its own picklable
snapshot/restore state, and its own seeded fault injection (torn records,
record corruption, whole-device failure).

The device stores *framed records*: each append is one atomic unit wrapped
in a magic/sequence/length/CRC header. A power cut can leave a torn tail
(the record being appended), never a torn middle — appends are issued one
at a time — so :meth:`read_records` distinguishes the expected torn-tail
residue (dropped silently: that append was never acknowledged) from
mid-log damage (acknowledged data is gone; the mount path degrades to
read-only rather than guess).

Simulated time: appends and scans advance the shared :class:`SimClock`
and accrue ``busy_time`` in :class:`NVMStats`, so busy-time attribution
and the watchdog's busy-vs-elapsed invariants extend across both domains.
Truncation is a pointer reset and costs nothing.
"""

from __future__ import annotations

import struct
import random
import zlib
from dataclasses import dataclass, field

from repro.core.errors import NVMDeviceFailedError, NVMError
from repro.disk.timing import SimClock

_MAGIC = b"NVR1"
# magic, record seq, body length, body crc32
_FRAME = struct.Struct("<4sQII")

#: Per-record framing overhead in bytes (for destage-threshold math).
RECORD_OVERHEAD = _FRAME.size


@dataclass(frozen=True)
class NVMProfile:
    """Timing/capacity profile of one NVM staging board.

    Attributes:
        capacity_bytes: size of the staging log.
        write_latency: fixed seconds per append (byte-addressable — no
            positioning component).
        read_latency: fixed seconds per recovery scan request.
        bandwidth: sustained transfer rate in bytes/second; the bound the
            sync-write benchmark is measured against.
    """

    capacity_bytes: int = 1024 * 1024
    write_latency: float = 5.0e-6
    read_latency: float = 5.0e-6
    bandwidth: float = 1.0e6

    def __post_init__(self) -> None:
        if self.capacity_bytes < _FRAME.size + 1:
            raise NVMError("NVM capacity too small for a single record")
        if self.write_latency < 0 or self.read_latency < 0:
            raise NVMError("NVM latency must be >= 0")
        if self.bandwidth <= 0:
            raise NVMError("NVM bandwidth must be > 0")

    @classmethod
    def sram_board(cls) -> "NVMProfile":
        """A 1991-plausible battery-backed SRAM board: 1 MiB, ~5 µs
        access, 1 MB/s of sustained bus bandwidth."""
        return cls(
            capacity_bytes=1024 * 1024,
            write_latency=5.0e-6,
            read_latency=5.0e-6,
            bandwidth=1.0e6,
        )


@dataclass
class NVMStats:
    """Counters for the staging log (registered as source ``"nvm"``)."""

    appends: int = 0
    bytes_staged: int = 0
    truncates: int = 0
    records_destaged: int = 0
    replays: int = 0
    records_replayed: int = 0
    records_dropped: int = 0
    failures: int = 0
    busy_time: float = 0.0


@dataclass(frozen=True)
class NVMState:
    """A picklable snapshot of staging-log contents (framed bytes)."""

    records: tuple[bytes, ...]
    next_seq: int
    dead: bool = False


@dataclass
class NVMReadResult:
    """What a recovery scan found in the staging log.

    ``bodies`` is the valid prefix of record payloads, in append order.
    ``dropped`` counts invalid framed records. ``lost`` is True when the
    damage was *not* confined to the final record — acknowledged data is
    unrecoverable and the caller must degrade rather than stay silent.
    """

    bodies: list[bytes] = field(default_factory=list)
    dropped: int = 0
    lost: bool = False


class NVMDevice:
    """A byte-addressable persistent staging log with fault injection."""

    def __init__(
        self,
        profile: NVMProfile | None = None,
        *,
        clock: SimClock | None = None,
    ) -> None:
        self.profile = profile if profile is not None else NVMProfile.sram_board()
        self.clock = clock if clock is not None else SimClock()
        self.stats = NVMStats()
        self.dead = False
        # Optional observability hook (repro.obs.Observation); None = off.
        self.obs = None
        # Recorder hooks for the torture harness: called synchronously on
        # every append (with the framed bytes) and truncate (with the
        # number of records dropped).
        self.on_append = None
        self.on_truncate = None
        self._records: list[bytes] = []
        self._used = 0
        self._next_seq = 1

    # ------------------------------------------------------------------
    # state

    @property
    def used_bytes(self) -> int:
        """Bytes currently occupied by staged records (incl. torn tail)."""
        return self._used

    @property
    def record_count(self) -> int:
        return len(self._records)

    @property
    def free_bytes(self) -> int:
        return self.profile.capacity_bytes - self._used

    def fits(self, body_len: int) -> bool:
        """Would a record with ``body_len`` payload bytes fit right now?"""
        return self._used + _FRAME.size + body_len <= self.profile.capacity_bytes

    def _check_alive(self, op: str) -> None:
        if self.dead:
            raise NVMDeviceFailedError(
                "NVM device failed", addr=self._used, op=op
            )

    def _charge(self, nbytes: int, latency: float) -> float:
        elapsed = latency + nbytes / self.profile.bandwidth
        self.clock.advance(elapsed)
        self.stats.busy_time += elapsed
        return elapsed

    # ------------------------------------------------------------------
    # I/O

    def append_record(self, body: bytes) -> int:
        """Append one CRC-framed record; returns its sequence number.

        The frame is the atomicity unit: a crash mid-append leaves a torn
        frame that :meth:`read_records` drops, exactly as a torn segment
        write is rejected whole by its summary CRC.
        """
        self._check_alive("append")
        if not body:
            raise NVMError("empty NVM record", addr=self._used, op="append")
        framed = _FRAME.pack(_MAGIC, self._next_seq, len(body), zlib.crc32(body)) + body
        if self._used + len(framed) > self.profile.capacity_bytes:
            raise NVMError(
                f"staging log full ({self._used}+{len(framed)} of "
                f"{self.profile.capacity_bytes} bytes)",
                addr=self._used,
                op="append",
            )
        elapsed = self._charge(len(framed), self.profile.write_latency)
        seq = self._next_seq
        self._next_seq += 1
        self._records.append(framed)
        self._used += len(framed)
        self.stats.appends += 1
        self.stats.bytes_staged += len(framed)
        if self.obs is not None:
            self.obs.on_staging_io(self.clock.now, len(framed), elapsed)
            from repro.obs.events import NVM_APPEND

            self.obs.emit(
                NVM_APPEND,
                seq=seq,
                bytes=len(framed),
                records=len(self._records),
                used=self._used,
                elapsed=elapsed,
            )
        if self.on_append is not None:
            self.on_append(framed)
        return seq

    def truncate_all(self, *, uncovered: int = 0) -> int:
        """Drop every staged record; returns how many were dropped.

        Called by the file system only after a flush has made every
        covered byte durable in the on-disk log. ``uncovered`` is the
        caller's count of still-dirty state at truncation time — the
        watchdog asserts it is zero (nvm-truncate-covered-by-disk).
        Truncation is a pointer reset: no simulated time.
        """
        self._check_alive("truncate")
        n = len(self._records)
        nbytes = self._used
        self._records.clear()
        self._used = 0
        self.stats.truncates += 1
        self.stats.records_destaged += n
        if self.obs is not None:
            from repro.obs.events import NVM_TRUNCATE

            self.obs.emit(
                NVM_TRUNCATE, records=n, bytes=nbytes, uncovered=uncovered
            )
        if self.on_truncate is not None:
            self.on_truncate(n)
        return n

    def read_records(self) -> NVMReadResult:
        """Scan surviving records for recovery (charges one streamed read).

        Frames are validated in order; the valid prefix's bodies are
        returned. Damage confined to the final frame is the expected torn
        tail of a mid-append power cut (``lost=False``); an invalid frame
        with valid successors — or any earlier damage — means
        acknowledged records are gone (``lost=True``).
        """
        self._check_alive("read")
        if self._used:
            elapsed = self._charge(self._used, self.profile.read_latency)
            if self.obs is not None:
                self.obs.on_staging_io(self.clock.now, self._used, elapsed)
        result = NVMReadResult()
        first_bad = None
        for i, framed in enumerate(self._records):
            body = self._parse(framed)
            if body is None:
                first_bad = i
                break
            result.bodies.append(body)
        if first_bad is not None:
            result.dropped = len(self._records) - first_bad
            result.lost = first_bad < len(self._records) - 1
        self.stats.replays += 1
        self.stats.records_replayed += len(result.bodies)
        self.stats.records_dropped += result.dropped
        return result

    @staticmethod
    def _parse(framed: bytes) -> bytes | None:
        """Body of one framed record, or None if the frame is invalid."""
        if len(framed) < _FRAME.size:
            return None
        magic, _seq, length, crc = _FRAME.unpack_from(framed, 0)
        if magic != _MAGIC or len(framed) != _FRAME.size + length:
            return None
        body = framed[_FRAME.size :]
        if zlib.crc32(body) != crc:
            return None
        return body

    # ------------------------------------------------------------------
    # fault injection (torture harness)

    def tear_last_record(self, seed: int = 0) -> None:
        """Truncate the final record's bytes — a power cut mid-append."""
        if not self._records:
            return
        last = self._records[-1]
        keep = random.Random(seed).randrange(0, len(last))
        self._used -= len(last) - keep
        self._records[-1] = last[:keep]
        if not self._records[-1]:
            self._records.pop()

    def corrupt_record(self, index: int, seed: int = 0) -> None:
        """Flip seeded bytes inside record ``index`` (NVM media loss).

        Flips land in the record *body*: a body flip always breaks the
        frame CRC, whereas a flip confined to the frame's sequence field
        would slip past validation and make the damage seed-dependent.
        """
        framed = bytearray(self._records[index])
        rng = random.Random(seed)
        start = _FRAME.size if len(framed) > _FRAME.size else 0
        for _ in range(max(1, len(framed) // 64)):
            pos = rng.randrange(start, len(framed))
            framed[pos] ^= 1 + rng.randrange(255)
        self._records[index] = bytes(framed)

    def fail_device(self) -> None:
        """Kill the whole board; every future request raises."""
        self.dead = True
        self.stats.failures += 1

    # ------------------------------------------------------------------
    # snapshot / restore

    def snapshot_state(self) -> NVMState:
        """Capture contents for later :meth:`restore_state` (picklable)."""
        return NVMState(
            records=tuple(self._records), next_seq=self._next_seq, dead=self.dead
        )

    def restore_state(self, state: NVMState) -> None:
        """Replace contents with a prior snapshot (no time charged)."""
        self._records = list(state.records)
        self._used = sum(len(r) for r in self._records)
        self._next_seq = state.next_seq
        self.dead = state.dead

    def __repr__(self) -> str:
        return (
            f"NVMDevice(records={len(self._records)}, used={self._used}, "
            f"capacity={self.profile.capacity_bytes}, dead={self.dead})"
        )
