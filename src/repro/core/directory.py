"""Directory file format, and the in-memory directory LFS and FFS share.

A directory is an ordinary file whose data blocks hold packed entries
(inode number, name). Each block is self-contained: entries never span
blocks, and a zero name length terminates the block's used region.

:class:`Directory` keeps each block as its encoded entry records plus a
running count of their bytes, so an insert appends one record and a
remove deletes one; writing a block back is a join of its records. A
create in a directory of N entries therefore re-encodes nothing but its
own name, and dirties one block. Which block an insert goes to is each
file system's own rule; the class only reports the byte counts.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator

from repro.core.errors import CorruptionError, InvalidOperationError

_ENTRY_HEAD = struct.Struct("<QH")

MAX_NAME_LEN = 255


def entry_size(name: str) -> int:
    """Bytes one entry occupies in a directory block."""
    encoded = name.encode("utf-8")
    return _ENTRY_HEAD.size + len(encoded)


def validate_name(name: str) -> bytes:
    """Check a file name and return its encoded form."""
    if not name or name in (".", ".."):
        raise InvalidOperationError(f"invalid file name {name!r}")
    if "/" in name or "\0" in name:
        raise InvalidOperationError(f"file name {name!r} contains '/' or NUL")
    encoded = name.encode("utf-8")
    if len(encoded) > MAX_NAME_LEN:
        raise InvalidOperationError(f"file name longer than {MAX_NAME_LEN} bytes")
    return encoded


def split_path(path: str) -> list[str]:
    """The components of an absolute ``/``-separated path."""
    if not path.startswith("/"):
        raise InvalidOperationError(f"path {path!r} must be absolute")
    return [part for part in path.split("/") if part]


def refuse_move_into_itself(oldpath: str, newpath: str) -> None:
    """Reject a rename whose target lies below its source (POSIX ``EINVAL``).

    Done on paths, before anything is changed: the directory graph has no
    hard links to directories, so a path prefix is the only way in.
    """
    old, new = split_path(oldpath), split_path(newpath)
    if len(new) > len(old) and new[: len(old)] == old:
        raise InvalidOperationError(f"cannot move {oldpath!r} inside itself to {newpath!r}")


def _records(payload: bytes) -> Iterator[tuple[str, int, bytes]]:
    """Yield ``(name, inum, record)`` for each entry of one block, in order."""
    head = _ENTRY_HEAD.size
    pos = 0
    limit = len(payload)
    while pos + head <= limit:
        inum, namelen = _ENTRY_HEAD.unpack_from(payload, pos)
        if namelen == 0:
            break
        end = pos + head + namelen
        if end > limit:
            raise CorruptionError("directory entry overruns its block")
        try:
            name = payload[pos + head : end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptionError("directory entry name is not valid UTF-8") from exc
        yield name, inum, payload[pos:end]
        pos = end


def parse_block(payload: bytes) -> list[tuple[str, int]]:
    """Decode every entry in one directory block.

    Returns (name, inum) pairs in block order.
    """
    return [(name, inum) for name, inum, _ in _records(payload)]


def pack_block(entries: list[tuple[str, int]], block_size: int) -> bytes:
    """Encode entries into one zero-padded directory block payload."""
    parts = []
    used = 0
    for name, inum in entries:
        encoded = validate_name(name)
        record = _ENTRY_HEAD.pack(inum, len(encoded)) + encoded
        used += len(record)
        if used > block_size:
            raise InvalidOperationError("directory entries overflow one block")
        parts.append(record)
    return b"".join(parts).ljust(block_size, b"\0")


class Directory:
    """One directory in memory: each block's entry records, and a name index.

    ``records[b]`` holds block ``b``'s encoded entries in block order,
    ``used[b]`` their total bytes, and ``index`` maps a name to its
    ``(inum, block)``. :meth:`payload` is byte-identical to
    :func:`pack_block` over the block's entries.
    """

    __slots__ = ("block_size", "records", "used", "index")

    def __init__(self, block_size: int) -> None:
        self.block_size = block_size
        self.records: list[list[bytes]] = []
        self.used: list[int] = []
        self.index: dict[str, tuple[int, int]] = {}

    @classmethod
    def load(cls, payloads: Iterable[bytes], block_size: int) -> "Directory":
        """Parse each block once; every record is a slice of its block.

        Entries naming inode 0 are dropped. No writer produces one (a
        block is only ever written from live entries), so one can only be
        a leftover that the next write of its block would drop anyway.
        """
        directory = cls(block_size)
        index = directory.index
        for block, payload in enumerate(payloads):
            kept = []
            for name, inum, record in _records(payload):
                if inum:
                    kept.append(record)
                    index[name] = (inum, block)
            directory.records.append(kept)
            directory.used.append(sum(map(len, kept)))
        return directory

    def lookup(self, name: str) -> int | None:
        hit = self.index.get(name)
        return hit[0] if hit else None

    def names(self) -> list[str]:
        return sorted(self.index)

    def __len__(self) -> int:
        return len(self.index)

    def insert(self, name: str, inum: int, block: int) -> None:
        """Append ``name``'s record to ``block``; ``len(used)`` opens a new one."""
        encoded = validate_name(name)
        record = _ENTRY_HEAD.pack(inum, len(encoded)) + encoded
        if block == len(self.used):
            self.records.append([])
            self.used.append(0)
        if self.used[block] + len(record) > self.block_size:
            raise InvalidOperationError("directory entries overflow one block")
        self.records[block].append(record)
        self.used[block] += len(record)
        self.index[name] = (inum, block)

    def remove(self, name: str) -> tuple[int, int]:
        """Delete ``name``'s record; returns the ``(inum, block)`` it had."""
        inum, block = self.index.pop(name)
        encoded = name.encode("utf-8")
        record = _ENTRY_HEAD.pack(inum, len(encoded)) + encoded
        self.records[block].remove(record)
        self.used[block] -= len(record)
        return inum, block

    def payload(self, block: int) -> bytes:
        """Block ``block`` as written: its records, zero-padded."""
        return b"".join(self.records[block]).ljust(self.block_size, b"\0")
