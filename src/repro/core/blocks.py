"""Low-level serialization helpers shared by the on-disk structures.

Every structure Sprite LFS puts on disk in this reproduction is real
struct-packed bytes; re-mounting reads them back with these helpers. All
integers are little-endian. Addresses are 8-byte block numbers with
``NULL_ADDR`` (0) meaning "no block".
"""

from __future__ import annotations

import struct
import zlib
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


def checksum(payloads: Iterable[bytes]) -> int:
    """CRC-32 over a sequence of block payloads.

    Used by segment summaries to make a torn partial-segment write
    self-invalidating during roll-forward.
    """
    crc = 0
    for payload in payloads:
        crc = zlib.crc32(payload, crc)
    return crc & 0xFFFFFFFF


def require(condition: bool, message: str) -> None:
    """Raise :class:`CorruptionError` with ``message`` unless ``condition``."""
    if not condition:
        raise CorruptionError(message)
