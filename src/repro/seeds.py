"""Deterministic per-point seeds, shared by every randomized runner.

Kept free of other imports so a server or torture run can derive its
seeds without loading the simulator.
"""

from __future__ import annotations

import zlib


def derive_point_seed(base_seed: int, *parts: object) -> int:
    """A deterministic per-point seed from a run's base seed.

    Stable across processes and Python versions (CRC32, not ``hash()``),
    so a sweep is reproducible from ``SimConfig.seed`` alone while every
    point still gets decorrelated randomness.
    """
    text = "|".join(str(p) for p in parts)
    return (base_seed * 1_000_003 + zlib.crc32(text.encode("utf-8"))) % (2**31)
