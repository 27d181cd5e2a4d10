"""Operation traces: record, save, load, and replay on any file system.

A trace is a list of logical operations (create/write/read/unlink/
rename/mkdir/truncate). Traces make comparisons airtight — the *same*
operation stream drives LFS and FFS — and persist as JSON lines so a
workload captured once can be replayed forever.

``generate_office_trace`` synthesizes the paper's Section 2.2 office/
engineering profile: accesses dominated by small files, metadata-heavy,
with a hot working set.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from repro.core.errors import LFSError


@dataclass(frozen=True)
class TraceOp:
    """One logical file-system operation.

    ``data_len``/``seed`` describe write payloads compactly: the payload
    is ``data_len`` pseudo-random bytes derived from ``seed``, so traces
    stay small but replay produces verifiable content.
    """

    op: str
    path: str
    path2: str = ""
    offset: int = 0
    data_len: int = 0
    seed: int = 0

    def payload(self) -> bytes:
        if self.data_len == 0:
            return b""
        pattern = bytes((self.seed + i) % 256 for i in range(64))
        repeats = (self.data_len + 63) // 64
        return (pattern * repeats)[: self.data_len]

    def to_json(self) -> str:
        return json.dumps(
            {
                "op": self.op,
                "path": self.path,
                "path2": self.path2,
                "offset": self.offset,
                "len": self.data_len,
                "seed": self.seed,
            }
        )

    @classmethod
    def from_json(cls, line: str) -> "TraceOp":
        raw = json.loads(line)
        return cls(
            op=raw["op"],
            path=raw["path"],
            path2=raw.get("path2", ""),
            offset=raw.get("offset", 0),
            data_len=raw.get("len", 0),
            seed=raw.get("seed", 0),
        )


@dataclass
class Trace:
    """An ordered operation stream."""

    ops: list[TraceOp] = field(default_factory=list)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            for op in self.ops:
                fh.write(op.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "Trace":
        with open(path) as fh:
            return cls(ops=[TraceOp.from_json(line) for line in fh if line.strip()])

    def __len__(self) -> int:
        return len(self.ops)


@dataclass
class ReplayResult:
    """Outcome of replaying a trace."""

    applied: int = 0
    skipped: int = 0
    elapsed: float = 0.0
    final_files: dict[str, bytes] = field(default_factory=dict)


def replay(fs, trace: Trace, *, verify_model: bool = True) -> ReplayResult:
    """Apply a trace to a file system; returns elapsed simulated time.

    With ``verify_model`` the replay maintains a dict model and returns
    the expected final contents so callers can assert correctness. An
    operation the file system refuses (an :class:`LFSError`) or does not
    know counts as skipped; any other exception is a bug and propagates.
    """
    result = ReplayResult()
    model: dict[str, bytes] = {}
    start = fs.disk.clock.now
    for op in trace.ops:
        try:
            if op.op == "mkdir":
                fs.mkdir(op.path)
            elif op.op == "write":
                payload = op.payload()
                if not fs.exists(op.path):
                    fs.create(op.path)
                inum = fs.stat(op.path).inum
                fs.write_inum(inum, payload, op.offset)
                if verify_model:
                    old = model.get(op.path, b"")
                    if len(old) < op.offset:
                        old = old + bytes(op.offset - len(old))
                    model[op.path] = (
                        old[: op.offset] + payload + old[op.offset + len(payload) :]
                    )
            elif op.op == "read":
                fs.read(op.path)
            elif op.op == "unlink":
                fs.unlink(op.path)
                model.pop(op.path, None)
            elif op.op == "truncate":
                fs.truncate(op.path, op.offset)
                if verify_model and op.path in model:
                    model[op.path] = model[op.path][: op.offset]
            elif op.op == "rename":
                fs.rename(op.path, op.path2)
                if verify_model and op.path in model:
                    model[op.path2] = model.pop(op.path)
            else:
                result.skipped += 1
                continue
            result.applied += 1
        except LFSError:
            result.skipped += 1
    result.elapsed = fs.disk.clock.now - start
    result.final_files = model
    return result


def generate_office_trace(
    *,
    num_ops: int = 2000,
    num_dirs: int = 8,
    files_per_dir: int = 20,
    mean_file_bytes: int = 8192,
    hot_fraction: float = 0.2,
    read_fraction: float = 0.45,
    seed: int = 0,
) -> Trace:
    """Synthesize an office/engineering trace (paper Section 2.2).

    Small files, lots of metadata traffic, a hot working set receiving
    most of the accesses, whole-file rewrites (editors), and periodic
    create/delete churn (build artifacts, temporaries).
    """
    rng = random.Random(seed)
    trace = Trace()
    paths = []
    for d in range(num_dirs):
        trace.ops.append(TraceOp(op="mkdir", path=f"/w{d}"))
        for f in range(files_per_dir):
            paths.append(f"/w{d}/f{f}")
    hot = paths[: max(1, int(len(paths) * hot_fraction))]

    def pick() -> str:
        return rng.choice(hot) if rng.random() < 0.8 else rng.choice(paths)

    alive: set[str] = set()
    for step in range(num_ops):
        path = pick()
        roll = rng.random()
        if roll < read_fraction and path in alive:
            trace.ops.append(TraceOp(op="read", path=path))
        elif roll < read_fraction + 0.08 and path in alive:
            trace.ops.append(TraceOp(op="unlink", path=path))
            alive.discard(path)
        elif roll < read_fraction + 0.12 and path in alive:
            other = pick()
            if other not in alive and other != path:
                trace.ops.append(TraceOp(op="rename", path=path, path2=other))
                alive.discard(path)
                alive.add(other)
        else:
            size = max(64, int(rng.expovariate(1.0 / mean_file_bytes)))
            trace.ops.append(
                TraceOp(op="write", path=path, data_len=min(size, 262144), seed=step)
            )
            alive.add(path)
    return trace
