"""Low-level serialization helpers shared by the on-disk structures.

Every structure Sprite LFS puts on disk in this reproduction is real
struct-packed bytes; re-mounting reads them back with these helpers. All
integers are little-endian. Addresses are 8-byte block numbers with
``NULL_ADDR`` (0) meaning "no block".
"""

from __future__ import annotations

import struct
import zlib
from functools import lru_cache
from typing import Iterable, Sequence

from repro.core.errors import CorruptionError


def pack_addrs(addrs: Sequence[int], block_size: int) -> bytes:
    """Pack block addresses into one zero-padded block payload.

    One ``struct`` call per block: the addresses as little-endian u64s,
    then zero padding. An address outside u64 raises ``struct.error``.
    """
    count = len(addrs)
    per_block = block_size // 8
    if count > per_block:
        raise ValueError(f"{count} addresses exceed block capacity {per_block}")
    return struct.pack(f"<{count}Q{block_size - 8 * count}x", *addrs)


@lru_cache(maxsize=None)
def table_block(entry_format: str, count: int, block_size: int) -> struct.Struct:
    """The ``struct`` of one table block: ``count`` little-endian entries
    of ``entry_format``, then zero padding to ``block_size``.

    The inode map and the usage table pack a whole block with one call
    of it, as :func:`pack_addrs` does; an unused slot packs from zeros.
    """
    entries = struct.Struct("<" + entry_format * count)
    return struct.Struct(entries.format + f"{max(0, block_size - entries.size)}x")


def unpack_addrs(payload: bytes, count: int) -> list[int]:
    """Unpack the first ``count`` addresses from a block payload."""
    if count * 8 > len(payload):
        raise CorruptionError(
            f"address block too short: need {count * 8} bytes, have {len(payload)}"
        )
    return list(struct.unpack_from(f"<{count}Q", payload, 0)) if count else []


def pack_addr_list(addrs: Sequence[int], block_size: int) -> list[bytes]:
    """Split an address list across as many blocks as needed."""
    per_block = block_size // 8
    blocks = []
    for start in range(0, len(addrs), per_block):
        blocks.append(pack_addrs(addrs[start : start + per_block], block_size))
    return blocks or [pack_addrs([], block_size)]


def unpack_addr_list(payloads: Iterable[bytes], count: int, block_size: int) -> list[int]:
    """Reassemble ``count`` addresses spread across consecutive blocks."""
    per_block = block_size // 8
    out: list[int] = []
    remaining = count
    for payload in payloads:
        take = min(per_block, remaining)
        out.extend(unpack_addrs(payload, take))
        remaining -= take
        if remaining == 0:
            break
    if remaining:
        raise CorruptionError(f"address list truncated: {remaining} addresses missing")
    return out


def splice(block: bytes, at: int, piece) -> bytes:
    """``block`` with ``piece`` written over it from byte ``at`` on.

    The read-modify-write of a partial-block write: both file systems'
    writes and NVM patch replay merge a piece into a block through it.
    """
    return block[:at] + piece + block[at + len(piece) :]


def checksum(payloads: Iterable[bytes]) -> int:
    """CRC-32 over a sequence of block payloads.

    Used by segment summaries to make a torn partial-segment write
    self-invalidating during roll-forward.
    """
    return zlib.crc32(b"".join(payloads))  # a chain of per-payload calls, in one


def require(condition: bool, message: str) -> None:
    """Raise :class:`CorruptionError` with ``message`` unless ``condition``."""
    if not condition:
        raise CorruptionError(message)
