"""The simulated block device.

``Disk`` stores block contents in memory and charges simulated service time
for every request using its :class:`~repro.disk.geometry.DiskGeometry`.
Multi-block requests to contiguous addresses pay one seek plus one streamed
transfer — exactly the economics that make log-structured writes fast.

The image is a map from block address to an immutable, exactly
block-sized ``bytes`` payload. The log only ever writes whole blocks and
never changes a stored block in place (§3.1–3.2), so the device keeps the
object it was handed and every reader gets that same object back: the
block cache, the cleaner and torture recordings share one copy of each
block, and a snapshot copies the map, not the bytes. Unwritten blocks are
absent and read as one shared zero block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.errors import DiskRangeError, MediaError, TrimmedBlockError
from repro.disk.faults import CrashInjector, DiskCrashed, MediaFaultModel
from repro.disk.geometry import DiskGeometry, FlashGeometry
from repro.disk.timing import IOStats, RetryPolicy, SimClock
from repro.obs.events import FLASH_ERASE, MEDIA_ERROR, MEDIA_RETRY


@dataclass(frozen=True)
class DiskState:
    """A picklable snapshot of device contents (see ``Disk.snapshot_state``).

    ``blocks`` is a copy of the image's block map. Its payloads are the
    image's own immutable objects, so a snapshot costs one dict copy and
    no byte copy; its keys are exactly the addresses ever written, so
    ``written_addresses()`` round-trips through snapshot/restore.
    ``num_blocks``/``block_size`` are the geometry it must be restored
    onto.

    The four flash fields capture a flash device's erase-block state
    (``None`` on non-flash devices and in snapshots from before the flash
    model existed); they round-trip so erase counts are conserved across
    snapshot/restore — the torture replay harness depends on it.
    """

    blocks: dict[int, bytes]
    num_blocks: int
    block_size: int
    erase_counts: tuple[int, ...] | None = None
    programmed: frozenset[int] | None = None
    trimmed: frozenset[int] | None = None
    dirty_blocks: frozenset[int] | None = None


@dataclass(frozen=True)
class FlashMetrics:
    """A point-in-time scrape of a flash device's wear state.

    Registered in the metrics registry as source ``"flash"`` when an
    observation attaches to a flash-geometry disk, so erase totals and
    the wear spread show up in snapshots, reports, and bench deltas.
    """

    erase_blocks: int
    erases_total: int
    wear_min: int
    wear_max: int
    wear_spread: int
    programmed_pages: int
    trimmed_pages: int


class _FlashState:
    """Erase-block bookkeeping layered onto a flash-geometry ``Disk``.

    ``programmed`` holds pages written since their erase block was last
    erased (programming any of them again forces an erase first);
    ``trimmed`` holds pages whose contents the FS declared dead — reads
    fail with :class:`TrimmedBlockError` until they are rewritten;
    ``dirty`` holds erase-block indices programmed into since their last
    erase; ``erase_counts`` is the per-erase-block wear ledger.
    """

    __slots__ = ("geometry", "erase_counts", "programmed", "trimmed", "dirty")

    def __init__(self, geometry: FlashGeometry) -> None:
        self.geometry = geometry
        self.erase_counts: list[int] = [0] * geometry.num_erase_blocks
        self.programmed: set[int] = set()
        self.trimmed: set[int] = set()
        self.dirty: set[int] = set()

    def pages_of(self, eb: int) -> range:
        """Block addresses covered by erase block ``eb``."""
        ebb = self.geometry.erase_block_blocks
        return range(eb * ebb, min((eb + 1) * ebb, self.geometry.num_blocks))

    def metrics(self) -> FlashMetrics:
        counts = self.erase_counts
        return FlashMetrics(
            erase_blocks=len(counts),
            erases_total=sum(counts),
            wear_min=min(counts) if counts else 0,
            wear_max=max(counts) if counts else 0,
            wear_spread=(max(counts) - min(counts)) if counts else 0,
            programmed_pages=len(self.programmed),
            trimmed_pages=len(self.trimmed),
        )


class Disk:
    """An in-memory block device with a disk-arm service-time model.

    Blocks never written read back as all zeroes. The head position is
    tracked so that a request beginning where the previous one ended is
    recognized as sequential and pays no positioning cost.
    """

    def __init__(
        self,
        geometry: DiskGeometry | None = None,
        *,
        clock: SimClock | None = None,
    ) -> None:
        self.geometry = geometry if geometry is not None else DiskGeometry.wren4()
        self.clock = clock if clock is not None else SimClock()
        # Erase-block state exists only on flash geometries; everywhere
        # else ``flash is None`` and the flash paths cost one check.
        self.flash: _FlashState | None = (
            _FlashState(self.geometry)
            if isinstance(self.geometry, FlashGeometry)
            else None
        )
        self.stats = IOStats()
        self.faults = CrashInjector()
        self.media = MediaFaultModel()
        self.retry = RetryPolicy()
        # Optional observability hook (repro.obs.Observation). None means
        # disabled: the only cost on the request path is this one check.
        self.obs = None
        # Address -> stored payload for every block ever stored (writes,
        # torn remnants, bit rot); payloads are immutable and shared.
        self._image: dict[int, bytes] = {}
        self._zero_block = bytes(self.geometry.block_size)
        # ``_head`` is the address at which the *next* request would be
        # sequential — one past the last block accessed (see _account).
        # A fresh device parks the arm at the start of the platter
        # (_head = 0), so the very first access to block 0 streams with
        # no positioning cost, while the first access to any other block
        # pays a full seek plus rotational latency.
        self._head = 0

    # ------------------------------------------------------------------
    # validation helpers

    def _check_range(self, addr: int, count: int = 1) -> None:
        if count <= 0:
            raise DiskRangeError(f"request for {count} blocks")
        if addr < 0 or addr + count > self.geometry.num_blocks:
            raise DiskRangeError(
                f"blocks [{addr}, {addr + count}) outside device of "
                f"{self.geometry.num_blocks} blocks"
            )

    def _check_payload(self, data: bytes | bytearray | memoryview) -> bytes:
        """``data`` as exactly one block of immutable ``bytes``.

        An exact-size ``bytes`` object comes back as is; any other
        bytes-like value is copied once, so a caller that mutates its
        buffer afterwards cannot reach the stored block.
        """
        if type(data) is not bytes:
            data = bytes(data)
        bs = self.geometry.block_size
        if len(data) != bs:
            if len(data) > bs:
                raise DiskRangeError(
                    f"payload of {len(data)} bytes exceeds block size {bs}"
                )
            data += bytes(bs - len(data))
        return data

    # ------------------------------------------------------------------
    # image storage

    def _load(self, addr: int) -> bytes:
        """One block's stored payload (the shared zero block if unwritten)."""
        return self._image.get(addr, self._zero_block)

    def _store(self, addr: int, payload: bytes) -> None:
        """Store one exactly-block-sized ``bytes`` payload into the image."""
        self._image[addr] = payload

    def _account(
        self, to_block: int, nblocks: int, *, write: bool, force_latency: bool = False
    ) -> None:
        nbytes = nblocks * self.geometry.block_size
        if self.flash is not None:
            # Flash: no arm, no rotation — position and ``force_latency``
            # are irrelevant; reads and programs pay asymmetric fixed
            # latencies plus a channel-striped transfer.
            elapsed = self.geometry.service_time(nbytes, write=write)
            seeked = False
            self.clock.advance(elapsed)
            self.stats.busy_time += elapsed
            self.stats.transfer_time += elapsed
        else:
            elapsed = self.geometry.access_time(self._head, to_block, nbytes)
            seeked = to_block != self._head
            if force_latency and not seeked:
                # An individually issued request misses the rotation even
                # when the target is adjacent (no controller streaming) —
                # how the paper's SunOS performs "individual disk
                # operations for each block".
                elapsed += self.geometry.rotation_time / 2.0
                seeked = True
            self.clock.advance(elapsed)
            self.stats.busy_time += elapsed
            self.stats.transfer_time += self.geometry.transfer_time(nbytes)
            if seeked:
                self.stats.seeks += 1
                self.stats.seek_time += elapsed - self.geometry.transfer_time(nbytes)
        if write:
            self.stats.writes += 1
            self.stats.blocks_written += nblocks
            self.stats.bytes_written += nbytes
        else:
            self.stats.reads += 1
            self.stats.blocks_read += nblocks
            self.stats.bytes_read += nbytes
        self._head = to_block + nblocks
        if self.obs is not None:
            self.obs.on_io(
                self.clock.now, to_block, nblocks, elapsed, write=write, seeked=seeked
            )

    def _media_check(self, addr: int, count: int, op: str) -> None:
        """Run the sick-disk gauntlet for one request, with bounded retry.

        Dormant (no registered faults) this is a single attribute check.
        Otherwise each attempt probes every block of the request; a media
        error waits out the policy's backoff (clock time, *not* busy
        time — the arm is recovering, not transferring) and retries.
        Exhausting the attempts surfaces the last :class:`MediaError`.
        """
        if not self.media.active:
            return
        attempt = 1
        while True:
            try:
                for i in range(count):
                    self.media.check_access(addr + i, op)
                return
            except MediaError as exc:
                if attempt >= self.retry.attempts:
                    self.stats.media_errors += 1
                    if self.obs is not None:
                        self.obs.emit(
                            MEDIA_ERROR, addr=exc.addr, op=op, attempts=attempt
                        )
                    raise
                attempt += 1
                backoff = self.retry.backoff_before(attempt)
                self.clock.advance(backoff)
                self.stats.retries += 1
                self.stats.retry_time += backoff
                if self.obs is not None:
                    self.obs.emit(
                        MEDIA_RETRY,
                        addr=exc.addr,
                        op=op,
                        attempt=attempt,
                        backoff=backoff,
                    )

    # ------------------------------------------------------------------
    # flash erase-block semantics

    def _flash_check_read(self, addr: int, count: int) -> None:
        """Enforce the flash honesty contract on a semantic read.

        A trimmed-but-not-rewritten page has no contents anymore: the
        read fails with a typed :class:`TrimmedBlockError` rather than
        returning whatever bytes the image still holds. (``peek`` and
        ``view`` stay raw — they are the forensic, non-semantic probes.)
        """
        fl = self.flash
        if fl is None or not fl.trimmed:
            return
        for a in range(addr, addr + count):
            if a in fl.trimmed:
                raise TrimmedBlockError(
                    "block was trimmed and not rewritten", addr=a, op="read"
                )

    def _flash_prepare(self, addr: int, nblocks: int) -> None:
        """Enforce erase-before-reuse ahead of a program.

        Reprogramming any page still programmed from a previous write
        forces an erase of its whole erase block first (charged to the
        clock and the wear ledger). A range the FS trimmed ahead of time
        was already erased by :meth:`trim`, so reuse pays no stall —
        that is the entire point of TRIM.
        """
        fl = self.flash
        if fl is None:
            return
        ebb = self.geometry.erase_block_blocks
        span = range(addr, addr + nblocks)
        for eb in range(addr // ebb, (addr + nblocks - 1) // ebb + 1):
            lo = max(addr, eb * ebb)
            hi = min(addr + nblocks, (eb + 1) * ebb)
            if any(a in fl.programmed for a in range(lo, hi)):
                self._erase_block(eb, reason="reuse")
        fl.programmed.update(span)
        fl.trimmed.difference_update(span)
        fl.dirty.update(range(addr // ebb, (addr + nblocks - 1) // ebb + 1))

    def _erase_block(self, eb: int, *, reason: str) -> None:
        """Erase one erase block: wear +1, erase latency on the clock.

        Like retry backoff, erase time advances the clock but not
        ``busy_time`` (busy time stays the sum of served transfers so
        per-cause attribution adds up). Contents are preserved — the
        model's FTL migrates surviving pages — but every page in the
        block becomes programmable again without a further erase.
        """
        fl = self.flash
        fl.erase_counts[eb] += 1
        fl.programmed.difference_update(fl.pages_of(eb))
        fl.dirty.discard(eb)
        self.stats.erases += 1
        latency = self.geometry.erase_latency
        self.clock.advance(latency)
        self.stats.erase_time += latency
        if self.obs is not None:
            ebb = self.geometry.erase_block_blocks
            self.obs.emit(
                FLASH_ERASE,
                block=eb,
                start=eb * ebb,
                blocks=len(fl.pages_of(eb)),
                count=fl.erase_counts[eb],
                reason=reason,
            )

    def trim(self, addr: int, count: int = 1) -> int:
        """Declare ``count`` blocks dead (TRIM); returns erases performed.

        On a non-flash geometry this is a free no-op. On flash the pages
        are marked trimmed — reads raise :class:`TrimmedBlockError`
        until they are rewritten — and any erase block left with no
        programmed pages is erased immediately ("erase ahead of reuse"),
        so the next log write into a trimmed segment pays no erase
        stall. The TRIM command itself costs no simulated time; the
        erases it triggers are charged normally.
        """
        self._check_range(addr, count)
        fl = self.flash
        if fl is None:
            return 0
        span = range(addr, addr + count)
        fl.programmed.difference_update(span)
        fl.trimmed.update(span)
        erased = 0
        for eb in range(addr // fl.geometry.erase_block_blocks,
                        (addr + count - 1) // fl.geometry.erase_block_blocks + 1):
            if eb in fl.dirty and not any(
                a in fl.programmed for a in fl.pages_of(eb)
            ):
                self._erase_block(eb, reason="trim")
                erased += 1
        return erased

    def flash_metrics(self) -> FlashMetrics | None:
        """Wear/state scrape for the metrics registry (None off flash)."""
        return self.flash.metrics() if self.flash is not None else None

    # ------------------------------------------------------------------
    # I/O

    def read_block(self, addr: int, *, force_latency: bool = False) -> bytes:
        """Read one block; unwritten blocks are zero-filled.

        ``force_latency`` models an individually issued request that
        cannot stream from the previous one (pays rotational latency even
        when the address is adjacent).
        """
        self._check_range(addr)
        self.faults.check_read(addr)
        self._flash_check_read(addr, 1)
        self._media_check(addr, 1, "read")
        self._account(addr, 1, write=False, force_latency=force_latency)
        return self._load(addr)

    def read_blocks(self, addr: int, count: int) -> list[bytes]:
        """Read ``count`` contiguous blocks as one streamed request."""
        self._check_range(addr, count)
        self.faults.check_read(addr)
        self._flash_check_read(addr, count)
        self._media_check(addr, count, "read")
        self._account(addr, count, write=False)
        return [self._load(a) for a in range(addr, addr + count)]

    def write_block(self, addr: int, data: bytes, *, force_latency: bool = False) -> None:
        """Write one block (short payloads are zero-padded).

        See :meth:`read_block` for ``force_latency``.
        """
        self._check_range(addr)
        data = self._check_payload(data)
        self._media_check(addr, 1, "write")
        self._flash_prepare(addr, 1)
        self._persist(addr, data)
        self._account(addr, 1, write=True, force_latency=force_latency)

    def _persist(self, addr: int, payload: bytes) -> None:
        """Store one block, honoring the crash injector's verdict.

        If the injector trips on this block, a torn-mode crash still
        persists a partial payload before the exception propagates.
        """
        try:
            self.faults.check_write(addr)
        except DiskCrashed:
            torn = self.faults.torn_payload(payload, self._load(addr))
            if torn is not None:
                self._store(addr, torn)
            raise
        self._store(addr, payload)

    def write_blocks(
        self, addr: int, blocks: Sequence[bytes], *, force_latency: bool = False
    ) -> None:
        """Write contiguous blocks as one streamed request.

        Under crash injection the request may persist a durable *prefix*
        and then raise — mirroring a power cut in the middle of a large
        sequential transfer. In the injector's ``reorder`` mode the
        queued blocks persist in a seeded order instead, so the durable
        part is an arbitrary subset; in ``torn`` mode the dying block
        keeps a partial payload.

        See :meth:`read_block` for ``force_latency``.
        """
        if not blocks:
            raise DiskRangeError("empty multi-block write")
        self._check_range(addr, len(blocks))
        payloads = [self._check_payload(b) for b in blocks]
        self._media_check(addr, len(payloads), "write")
        self._flash_prepare(addr, len(payloads))
        self._account(addr, len(payloads), write=True, force_latency=force_latency)
        for i in self.faults.request_order(len(payloads)):
            self._persist(addr + i, payloads[i])

    # ------------------------------------------------------------------
    # inspection / lifecycle

    def peek(self, addr: int) -> bytes:
        """Read block contents without advancing time (for tests/tools)."""
        self._check_range(addr)
        return self._load(addr)

    def view(self, addr: int, count: int = 1) -> memoryview:
        """A read-only window onto stored bytes — no time.

        A one-block view is zero-copy over the stored payload (joining a
        single ``bytes`` returns that object). Stored payloads are
        immutable (a write replaces the object, it never edits it), so
        the view keeps showing the bytes it was taken of. A multi-block
        view joins its blocks into one buffer.
        """
        self._check_range(addr, count)
        return memoryview(b"".join(self._load(a) for a in range(addr, addr + count)))

    def corrupt_block(self, addr: int, payload: bytes) -> None:
        """Silently replace stored bytes — no time, no stats, no faults.

        This is the bit-rot injection channel: the device's own write path
        never ran, so nothing above it can know the contents changed until
        a checksum fails.
        """
        self._check_range(addr)
        self._store(addr, self._check_payload(payload))

    def written_addresses(self) -> Iterable[int]:
        """Addresses of every block that has ever been written."""
        return self._image.keys()

    def snapshot_state(self) -> DiskState:
        """Capture contents for later :meth:`restore_state` (picklable)."""
        fl = self.flash
        return DiskState(
            blocks=dict(self._image),
            num_blocks=self.geometry.num_blocks,
            block_size=self.geometry.block_size,
            erase_counts=tuple(fl.erase_counts) if fl is not None else None,
            programmed=frozenset(fl.programmed) if fl is not None else None,
            trimmed=frozenset(fl.trimmed) if fl is not None else None,
            dirty_blocks=frozenset(fl.dirty) if fl is not None else None,
        )

    def restore_state(self, state: DiskState) -> None:
        """Replace contents with a prior :meth:`snapshot_state` capture."""
        geo = self.geometry
        if (state.num_blocks, state.block_size) != (geo.num_blocks, geo.block_size):
            raise DiskRangeError(
                f"snapshot of {state.num_blocks} x {state.block_size} B blocks "
                f"does not fit a device of {geo.num_blocks} x {geo.block_size} B"
            )
        self._image = dict(state.blocks)
        if self.flash is not None:
            if state.erase_counts is not None:
                self.flash.erase_counts = list(state.erase_counts)
                self.flash.programmed = set(state.programmed or ())
                self.flash.trimmed = set(state.trimmed or ())
                self.flash.dirty = set(state.dirty_blocks or ())
            else:
                # Snapshot predates the flash model (or came from a
                # non-flash device): start from factory-fresh blocks.
                self.flash = _FlashState(self.geometry)

    def crash(
        self, *, after_writes: int | None = None, mode: str = "clean", seed: int = 0
    ) -> None:
        """Cut power now, or arm a cut after ``after_writes`` more writes.

        ``mode``/``seed`` select the dying write's behavior (see
        :meth:`CrashInjector.arm_after_writes`): a clean cut, a torn
        block, or seeded reordering of queued requests.
        """
        if after_writes is None:
            self.faults.force_crash()
        else:
            self.faults.arm_after_writes(after_writes, mode=mode, seed=seed)

    def power_on(self) -> None:
        """Bring a crashed device back; contents persist, head resets."""
        self.faults.power_on()
        self._head = 0

    def reset_stats(self) -> IOStats:
        """Replace the counters with fresh ones, returning the old ones."""
        old = self.stats
        self.stats = IOStats()
        return old

    def __repr__(self) -> str:
        return (
            f"Disk(blocks={self.geometry.num_blocks}, "
            f"block_size={self.geometry.block_size}, "
            f"written={len(self._image)})"
        )
