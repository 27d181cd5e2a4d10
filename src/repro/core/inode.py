"""Inodes and inode-block packing.

As in the paper (Section 3.1), an inode holds the file's attributes plus
the disk addresses of its first ten blocks; larger files add a single- and
a double-indirect block. Inodes are written to the log in *inode blocks*
that pack several inodes each; the inode map records where each file's
current inode lives.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.blocks import require
from repro.core.constants import INODE_SIZE, NULL_ADDR, NUM_DIRECT, FileType
from repro.core.errors import CorruptionError, InvalidOperationError

# inum, version, ftype, pad, nlink, size, mtime, ctime, 10 direct,
# indirect, double-indirect  (144 bytes packed, padded to INODE_SIZE)
_INODE = struct.Struct("<QQB3xIQdd10QQQ")
assert _INODE.size <= INODE_SIZE
# the same fields zero-padded to a whole slot, so packing needs no ljust
_INODE_SLOT = struct.Struct(f"{_INODE.format}{INODE_SIZE - _INODE.size}x")
#: on-disk file type byte -> type; a byte missing here is corruption
_FTYPES = {int(t): t for t in FileType}
# one whole slot, keeping only its identity: inum, version, the rest skipped
_SLOT_ID = struct.Struct(f"<QQ{INODE_SIZE - 16}x")


@dataclass
class Inode:
    """One file's on-disk attributes and block pointers.

    Attributes:
        inum: inode number (``ROOT_INUM`` for the root directory).
        version: the inode-map version current when this inode instance
            was written; together with ``inum`` it forms the paper's "uid".
        ftype: regular file or directory.
        nlink: directory entries referring to this inode.
        size: file length in bytes.
        mtime: last modification, simulated seconds.
        ctime: creation time, simulated seconds.
        direct: disk addresses of the first ten blocks.
        indirect: address of the single-indirect block, or ``NULL_ADDR``.
        dindirect: address of the double-indirect block, or ``NULL_ADDR``.
    """

    inum: int
    version: int = 0
    ftype: FileType = FileType.REGULAR
    nlink: int = 1
    size: int = 0
    mtime: float = 0.0
    ctime: float = 0.0
    direct: list[int] = field(default_factory=lambda: [NULL_ADDR] * NUM_DIRECT)
    indirect: int = NULL_ADDR
    dindirect: int = NULL_ADDR

    def __post_init__(self) -> None:
        if self.inum <= 0:
            raise InvalidOperationError(f"invalid inode number {self.inum}")
        if len(self.direct) != NUM_DIRECT:
            raise InvalidOperationError(
                f"direct pointer array must have {NUM_DIRECT} entries"
            )

    @property
    def is_directory(self) -> bool:
        """True for directory inodes."""
        return self.ftype == FileType.DIRECTORY

    def nblocks(self, block_size: int) -> int:
        """Number of data blocks implied by the file size."""
        return (self.size + block_size - 1) // block_size

    def to_bytes(self) -> bytes:
        """Serialize to a fixed ``INODE_SIZE`` record."""
        return _INODE_SLOT.pack(
            self.inum,
            self.version,
            self.ftype,
            self.nlink,
            self.size,
            self.mtime,
            self.ctime,
            *self.direct,
            self.indirect,
            self.dindirect,
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Inode":
        """Parse a fixed-size inode record."""
        require(len(raw) >= _INODE.size, "inode record truncated")
        fields = _INODE.unpack_from(raw, 0)
        inum, version, ftype_raw, nlink, size, mtime, ctime = fields[:7]
        direct = list(fields[7 : 7 + NUM_DIRECT])
        indirect, dindirect = fields[7 + NUM_DIRECT :]
        ftype = _FTYPES.get(ftype_raw)
        if ftype is None:
            raise CorruptionError(f"bad file type {ftype_raw} in inode {inum}")
        # positional, in field order: inum, version, ftype, nlink, size,
        # mtime, ctime, direct, indirect, dindirect
        return cls(inum, version, ftype, nlink, size, mtime, ctime, direct, indirect, dindirect)

    def copy(self) -> "Inode":
        """Deep copy (direct pointer list included)."""
        return Inode(
            inum=self.inum,
            version=self.version,
            ftype=self.ftype,
            nlink=self.nlink,
            size=self.size,
            mtime=self.mtime,
            ctime=self.ctime,
            direct=list(self.direct),
            indirect=self.indirect,
            dindirect=self.dindirect,
        )


def inodes_per_block(block_size: int) -> int:
    """How many packed inodes fit in one inode block."""
    return block_size // INODE_SIZE


def pack_inode_block(inodes: list[Inode], block_size: int) -> bytes:
    """Pack inodes into one zero-padded inode-block payload."""
    cap = inodes_per_block(block_size)
    if len(inodes) > cap:
        raise InvalidOperationError(f"{len(inodes)} inodes exceed block capacity {cap}")
    payload = b"".join([ino.to_bytes() for ino in inodes])
    return payload.ljust(block_size, b"\0")


def unpack_inode_block(payload: bytes, block_size: int) -> list[Inode]:
    """Parse every inode in an inode-block payload.

    A slot whose inode number is zero terminates the block (zero padding).
    """
    out: list[Inode] = []
    for start in range(0, (len(payload) // INODE_SIZE) * INODE_SIZE, INODE_SIZE):
        chunk = payload[start : start + INODE_SIZE]
        (inum,) = struct.unpack_from("<Q", chunk, 0)
        if inum == 0:
            break
        out.append(Inode.from_bytes(chunk))
    return out


def find_inode(payload: bytes, inum: int) -> Inode | None:
    """Inode ``inum`` from an inode-block payload, or None if absent.

    Walks the slot identities and parses only the matching slot; a zero
    slot ends the block, as in :func:`unpack_inode_block`.
    """
    for slot, (found, _) in enumerate(inode_slot_ids(payload)):
        if found == 0:
            break
        if found == inum:
            start = slot * INODE_SIZE
            return Inode.from_bytes(payload[start : start + INODE_SIZE])
    return None


def inode_slot_ids(payload: bytes) -> Iterator[tuple[int, int]]:
    """``(inum, version)`` of every slot of an inode-block payload, in
    slot order, without parsing the rest of any inode. Zero padding reads
    as inum 0; the caller decides where the block ends."""
    slots = len(payload) // INODE_SIZE
    return _SLOT_ID.iter_unpack(memoryview(payload)[: slots * INODE_SIZE])


def addrs_per_indirect(block_size: int) -> int:
    """Block addresses held by one indirect block."""
    return block_size // 8


def max_file_blocks(block_size: int) -> int:
    """Largest file (in blocks) addressable by the inode geometry."""
    per = addrs_per_indirect(block_size)
    return NUM_DIRECT + per + per * per
