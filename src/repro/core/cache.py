"""The file cache / write buffer.

The premise of a log-structured file system (Section 2.1) is that main
memory absorbs reads and batches writes: "collect large amounts of new
data in a file cache in main memory, then write the data to disk in a
single large I/O". This cache holds file data blocks keyed by
``(inum, file block number)``, tracks dirty state and per-block
modification times (used for age-sorting during cleaning), and evicts
clean blocks LRU when full.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.core.errors import InvalidOperationError


@dataclass
class CacheEntry:
    """One cached file block."""

    payload: bytes
    dirty: bool
    mtime: float


class BlockCache:
    """An LRU write-back cache of file data blocks.

    Dirty blocks are never evicted here — the file system is responsible
    for flushing when :meth:`over_capacity` or the dirty count says so.
    """

    def __init__(self, capacity_blocks: int = 8192) -> None:
        if capacity_blocks < 1:
            raise InvalidOperationError("cache capacity must be >= 1 block")
        self.capacity_blocks = capacity_blocks
        self._entries: "OrderedDict[tuple[int, int], CacheEntry]" = OrderedDict()
        self._dirty: set[tuple[int, int]] = set()
        # Cached block numbers per file, so unlink/truncate cost the
        # blocks of that file instead of a scan of every entry. Always
        # the keys of ``_entries`` grouped by inum; no empty sets kept.
        self._by_file: dict[int, set[int]] = {}
        self.hits = 0
        self.misses = 0
        # Optional observability hook (repro.obs.Observation); None = off.
        self.obs = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def dirty_count(self) -> int:
        """Number of dirty blocks awaiting a log write."""
        return len(self._dirty)

    def lookup(self, inum: int, fbn: int) -> CacheEntry | None:
        """Return the cached entry (refreshing LRU), or None on a miss."""
        key = (inum, fbn)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def peek(self, inum: int, fbn: int) -> CacheEntry | None:
        """Unmetered lookup: no hit/miss accounting, no LRU refresh.

        For *internal* traffic — the cleaner's liveness checks, flush
        placement — so ``hit_rate`` and eviction order reflect only
        application lookups.
        """
        return self._entries.get((inum, fbn))

    def contains(self, inum: int, fbn: int) -> bool:
        """Membership test without perturbing LRU order or hit counters."""
        return (inum, fbn) in self._entries

    def insert_clean(self, inum: int, fbn: int, payload: bytes, mtime: float = 0.0) -> None:
        """Cache a block read from disk."""
        key = (inum, fbn)
        existing = self._entries.get(key)
        if existing is not None and existing.dirty:
            raise InvalidOperationError(
                f"refusing to overwrite dirty block {key} with a clean read"
            )
        self._entries[key] = CacheEntry(payload=payload, dirty=False, mtime=mtime)
        self._entries.move_to_end(key)
        self._index(inum, fbn)
        self._evict_if_needed()

    def write(self, inum: int, fbn: int, payload: bytes, mtime: float) -> None:
        """Buffer a modified block (marks it dirty)."""
        key = (inum, fbn)
        self._entries[key] = CacheEntry(payload=payload, dirty=True, mtime=mtime)
        self._entries.move_to_end(key)
        self._dirty.add(key)
        self._index(inum, fbn)
        self._evict_if_needed()

    def mark_clean(self, inum: int, fbn: int) -> None:
        """Mark a block clean after it has been written to the log."""
        key = (inum, fbn)
        entry = self._entries.get(key)
        if entry is not None:
            entry.dirty = False
        self._dirty.discard(key)

    def drop(self, inum: int, fbn: int) -> None:
        """Forget one block (dirty or not) — used by delete/truncate."""
        if self._entries.pop((inum, fbn), None) is not None:
            self._unindex(inum, fbn)
        self._dirty.discard((inum, fbn))

    def drop_file(self, inum: int) -> None:
        """Forget every cached block of one file."""
        for fbn in self._by_file.pop(inum, ()):
            del self._entries[inum, fbn]
            self._dirty.discard((inum, fbn))

    def drop_from(self, inum: int, first_fbn: int) -> None:
        """Forget blocks of ``inum`` at or past ``first_fbn`` (truncate)."""
        for fbn in [f for f in self._by_file.get(inum, ()) if f >= first_fbn]:
            self.drop(inum, fbn)

    def dirty_blocks(self) -> list[tuple[int, int, CacheEntry]]:
        """Every dirty block as ``(inum, fbn, entry)``, sorted by key."""
        out = []
        for key in sorted(self._dirty):
            entry = self._entries.get(key)
            if entry is not None:
                out.append((key[0], key[1], entry))
        return out

    def clear_all(self) -> None:
        """Drop everything (crash simulation: RAM contents are lost)."""
        self._entries.clear()
        self._dirty.clear()
        self._by_file.clear()

    def _index(self, inum: int, fbn: int) -> None:
        fbns = self._by_file.get(inum)
        if fbns is None:
            self._by_file[inum] = {fbn}
        else:
            fbns.add(fbn)

    def _unindex(self, inum: int, fbn: int) -> None:
        fbns = self._by_file[inum]
        fbns.discard(fbn)
        if not fbns:
            del self._by_file[inum]

    def _evict_if_needed(self) -> None:
        """Evict clean LRU entries while over capacity.

        Pops from the LRU end; a dirty entry encountered there is rotated
        to the MRU end (it is pinned until flushed anyway), keeping the
        scan amortized O(1) per insert. If everything is dirty the cache
        may exceed capacity; the file system's flush policy bounds how
        long that can last.
        """
        scans = len(self._entries)
        while len(self._entries) > self.capacity_blocks and scans > 0:
            if len(self._entries) <= len(self._dirty):
                return  # nothing evictable
            key, entry = self._entries.popitem(last=False)
            if entry.dirty:
                self._entries[key] = entry  # rotate to MRU end
                scans -= 1
                continue
            scans -= 1
            self._unindex(*key)
            if self.obs is not None:
                self.obs.emit("cache.evict", inum=key[0], fbn=key[1])

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from memory."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
