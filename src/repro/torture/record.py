"""Recording a workload's block-write stream for crash replay.

A torture run executes its workload exactly once, on a ``RecordingDisk``
that remembers every write request the file system issued (in order, with
full payloads). Replaying a prefix of that request stream onto a copy of
the freshly formatted image reproduces the device bit-for-bit as it stood
at any point during the run — so thousands of crash points can be explored
in parallel without re-running the workload, and every worker sees the
identical stream regardless of scheduling.

Alongside the request stream the recorder keeps the operation log for the
durability oracle: each file-system call is mirrored into a
:class:`~repro.torture.oracle.ModelFS`, tagged with the block-write count
at which it started, and every completed ``sync``/``checkpoint`` snapshots
the model as a durability barrier.

With ``nvram=True`` the recorder captures a *second* write stream: every
NVM staging-log append (the framed record bytes, tagged with the disk
block count at which it happened) and every truncate (tagged the same
way, with the cumulative append count it wiped). Crash points are then
expressed in **global units** — one unit per durable disk block *or* NVM
append, merged in issue order — so a single cut enumerates every
interleaving of the two domains' durable prefixes. For recordings without
NVM the global unit count equals the disk block count, so existing
recordings, oracles, and digests are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import LFSConfig
from repro.core.filesystem import LFS
from repro.disk.device import Disk, DiskState
from repro.disk.faults import DiskCrashed
from repro.disk.geometry import DiskGeometry
from repro.disk.timing import SimClock
from repro.torture.oracle import Barrier, ModelFS, OpRecord

#: Operations after which everything the model holds is durable.
_BARRIER_KINDS = frozenset({"sync", "fsync", "checkpoint"})


class RecordingDisk(Disk):
    """A :class:`Disk` that logs every write request once recording starts.

    Each request is stored as ``(addr, payloads)`` with payloads already
    padded to the block size; ``blocks_logged`` counts individual blocks,
    which is the unit crash points are expressed in.
    """

    def __init__(self, geometry: DiskGeometry | None = None, *, clock: SimClock | None = None):
        super().__init__(geometry, clock=clock)
        self.recording = False
        self.requests: list[tuple[int, tuple[bytes, ...]]] = []
        self.blocks_logged = 0

    def write_block(self, addr: int, data: bytes, *, force_latency: bool = False) -> None:
        super().write_block(addr, data, force_latency=force_latency)
        if self.recording:
            self.requests.append((addr, (self.peek(addr),)))
            self.blocks_logged += 1

    def write_blocks(self, addr: int, blocks, *, force_latency: bool = False) -> None:
        super().write_blocks(addr, blocks, force_latency=force_latency)
        if self.recording:
            payloads = tuple(self.peek(addr + i) for i in range(len(blocks)))
            self.requests.append((addr, payloads))
            self.blocks_logged += len(payloads)


@dataclass
class Recording:
    """Everything a replay worker needs, in one picklable bundle.

    ``base_state``/``base_clock`` capture the device right after
    ``LFS.format`` (before recording starts); ``requests`` is the write
    stream issued after that; ``total_blocks`` is the stream's length in
    blocks, so crash cuts range over ``0..total_blocks`` inclusive
    (``total_blocks`` = no crash).
    """

    geometry: DiskGeometry
    config: LFSConfig
    base_state: DiskState
    base_clock: float
    requests: list[tuple[int, tuple[bytes, ...]]]
    total_blocks: int
    ops: list[OpRecord] = field(default_factory=list)
    barriers: list[Barrier] = field(default_factory=list)
    workload: str = ""
    seed: int = 0
    #: Two-domain recordings only. ``nvm_appends`` is the staging-log
    #: write stream: ``(disk_blocks_at_append, framed_record_bytes)`` in
    #: append order. ``nvm_truncates`` marks each staging-log reset as
    #: ``(disk_blocks_at_truncate, cumulative_appends_wiped)``. With
    #: ``nvram`` set, ``total_blocks`` (and every op/barrier tag) counts
    #: global units: disk blocks plus NVM appends, merged in issue order.
    nvram: bool = False
    nvm_appends: list[tuple[int, bytes]] = field(default_factory=list)
    nvm_truncates: list[tuple[int, int]] = field(default_factory=list)

    @property
    def disk_blocks(self) -> int:
        """The disk-only write count (= ``total_blocks`` without NVM)."""
        return self.total_blocks - len(self.nvm_appends)

    def fresh_disk(self) -> Disk:
        """A device restored to the post-format image, clock included."""
        disk = Disk(self.geometry, clock=SimClock(self.base_clock))
        disk.restore_state(self.base_state)
        return disk

    def replay(self, disk: Disk, tick=None) -> DiskCrashed | None:
        """Write the recorded stream onto ``disk``, then power it back on.

        A crash armed on ``disk`` stops the stream where it fires; the
        :class:`DiskCrashed` it raised is returned (None when the whole
        stream persisted). ``tick`` is called after every request.
        """
        crashed = None
        try:
            for addr, payloads in self.requests:
                if len(payloads) == 1:
                    disk.write_block(addr, payloads[0])
                else:
                    disk.write_blocks(addr, list(payloads))
                if tick is not None:
                    tick()
        except DiskCrashed as exc:
            crashed = exc
        disk.power_on()
        return crashed


class TortureRecorder:
    """Drives a workload against the real FS and the oracle model in step."""

    def __init__(
        self,
        config: LFSConfig,
        geometry: DiskGeometry,
        *,
        workload: str,
        seed: int,
        nvram: bool = False,
    ):
        self.disk = RecordingDisk(geometry)
        self.nvram = nvram
        self.nvm_appends: list[tuple[int, bytes]] = []
        self.nvm_truncates: list[tuple[int, int]] = []
        nvm_dev = None
        if nvram:
            from repro.disk.nvram import NVMDevice

            nvm_dev = NVMDevice(clock=self.disk.clock)
        self.fs = LFS.format(self.disk, config, nvram=nvm_dev)
        self.model = ModelFS()
        self.ops: list[OpRecord] = []
        self.barriers: list[Barrier] = []
        self._config = config
        self._workload = workload
        self._seed = seed
        # The formatted image itself is the first durability barrier: an
        # immediate crash must recover the empty root. The NVM capture
        # hooks install here too — format's own flushes never stage.
        self._base_state = self.disk.snapshot_state()
        self._base_clock = self.disk.clock.now
        self.disk.recording = True
        if nvm_dev is not None:
            nvm_dev.on_append = lambda framed: self.nvm_appends.append(
                (self.disk.blocks_logged, framed)
            )
            nvm_dev.on_truncate = lambda n: self.nvm_truncates.append(
                (self.disk.blocks_logged, len(self.nvm_appends))
            )
        self.barriers.append(self.model.snapshot(-1, 0))

    def _global_units(self) -> int:
        """Durable units issued so far: disk blocks plus NVM appends."""
        return self.disk.blocks_logged + len(self.nvm_appends)

    # -- mirrored operations -------------------------------------------
    def _mirror(self, op: OpRecord, call, *args) -> None:
        """Run one FS call and mirror it into the op log and the model.

        ``sync``/``fsync``/``checkpoint`` then snapshot the model as a
        durability barrier. (fsync absorbs the whole pending set, see
        ``LFS.fsync``, so the oracle treats it as a full barrier.) A
        cleaning pass checkpoints before reusing segments, but it may not
        run at all, so cleaning is deliberately NOT a barrier — the oracle
        only under-approximates what must survive.
        """
        op.start_blocks = self._global_units()
        self.ops.append(op)
        call(*args)
        self.model.apply(op)
        if op.kind in _BARRIER_KINDS:
            self.barriers.append(
                self.model.snapshot(len(self.ops) - 1, self._global_units())
            )

    def mkdir(self, path: str) -> None:
        self._mirror(OpRecord("mkdir", path=path), self.fs.mkdir, path)

    def write(self, path: str, data: bytes) -> None:
        self._mirror(OpRecord("write", path=path, data=data), self.fs.write_file, path, data)

    def append(self, path: str, data: bytes) -> None:
        self._mirror(OpRecord("append", path=path, data=data), self.fs.append, path, data)

    def update(self, path: str, data: bytes, offset: int) -> None:
        self._mirror(
            OpRecord("update", path=path, data=data, offset=offset),
            self.fs.write, path, data, offset,
        )

    def unlink(self, path: str) -> None:
        self._mirror(OpRecord("unlink", path=path), self.fs.unlink, path)

    def rename(self, old: str, new: str) -> None:
        self._mirror(OpRecord("rename", path=old, path2=new), self.fs.rename, old, new)

    def link(self, existing: str, new: str) -> None:
        self._mirror(OpRecord("link", path=existing, path2=new), self.fs.link, existing, new)

    def sync(self) -> None:
        self._mirror(OpRecord("sync"), self.fs.sync)

    def fsync(self, path: str) -> None:
        self._mirror(OpRecord("fsync", path=path), self.fs.fsync, path)

    def checkpoint(self) -> None:
        self._mirror(OpRecord("checkpoint"), self.fs.checkpoint)

    def clean(self) -> None:
        self._mirror(OpRecord("clean"), self.fs.clean_now)

    # -- finishing ------------------------------------------------------
    def finish(self) -> Recording:
        """Stop recording (leaving any unsynced tail dirty) and bundle up."""
        self.disk.recording = False
        if self.fs.nvram is not None:
            self.fs.nvram.on_append = None
            self.fs.nvram.on_truncate = None
        return Recording(
            geometry=self.disk.geometry,
            config=self._config,
            base_state=self._base_state,
            base_clock=self._base_clock,
            requests=self.disk.requests,
            total_blocks=self._global_units(),
            ops=self.ops,
            barriers=self.barriers,
            workload=self._workload,
            seed=self._seed,
            nvram=self.nvram,
            nvm_appends=self.nvm_appends,
            nvm_truncates=self.nvm_truncates,
        )
