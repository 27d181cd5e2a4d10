"""Access patterns for the cleaning simulator (Section 3.5).

Two pseudo-random patterns from the paper: *uniform* (every file equally
likely) and *hot-and-cold* (a hot group holding ``hot_fraction`` of the
files receives ``hot_access_fraction`` of the writes; 10%/90% in the
paper). Patterns are deterministic given the injected RNG.

Both draw an index below ``n`` the way CPython's ``Random.randrange(n)``
does (``_randbelow``): take ``getrandbits(k)`` with ``k = n.bit_length()``
and reject values ``>= n``. Doing it inline skips ``randrange``'s
argument checks on every simulated step; the stream of indices is the
same, draw for draw, as ``randrange`` on the same ``random.Random``.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod


class AccessPattern(ABC):
    """Chooses which file each simulation step overwrites."""

    @abstractmethod
    def bind(self, num_files: int, rng: random.Random) -> None:
        """Fix the file population and randomness source."""

    @abstractmethod
    def next_file(self) -> int:
        """The file index overwritten by the next step."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Label used in figures."""


class UniformPattern(AccessPattern):
    """Every file has equal likelihood of being selected in each step."""

    def __init__(self) -> None:
        self._num_files = 0
        self._bits = 0
        self._getrandbits = None

    def bind(self, num_files: int, rng: random.Random) -> None:
        if num_files < 1:
            raise ValueError("need at least one file")
        self._num_files = num_files
        self._bits = num_files.bit_length()
        self._getrandbits = rng.getrandbits

    def next_file(self) -> int:
        n, k, getrandbits = self._num_files, self._bits, self._getrandbits
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    @property
    def name(self) -> str:
        return "uniform"


class HotColdPattern(AccessPattern):
    """The paper's locality model.

    ``hot_fraction`` of the files (the hot group) receive
    ``hot_access_fraction`` of the accesses; within each group selection
    is uniform. The paper's experiment uses 0.1 and 0.9 ("90% of the
    accesses go to 10% of the files") and notes that performance of the
    greedy policy gets worse as locality increases.
    """

    def __init__(self, hot_fraction: float = 0.1, hot_access_fraction: float = 0.9) -> None:
        if not 0.0 < hot_fraction < 1.0:
            raise ValueError("hot_fraction must be in (0, 1)")
        if not 0.0 < hot_access_fraction < 1.0:
            raise ValueError("hot_access_fraction must be in (0, 1)")
        self.hot_fraction = hot_fraction
        self.hot_access_fraction = hot_access_fraction
        # (first file, size, size.bit_length()) of each group
        self._hot = self._cold = (0, 0, 0)
        self._random = None
        self._getrandbits = None

    def bind(self, num_files: int, rng: random.Random) -> None:
        if num_files < 2:
            raise ValueError("need at least two files for two groups")
        num_hot = max(1, round(num_files * self.hot_fraction))
        num_cold = num_files - num_hot
        if num_cold < 1:
            raise ValueError(f"hot_fraction {self.hot_fraction} leaves no cold files")
        self._hot = (0, num_hot, num_hot.bit_length())
        self._cold = (num_hot, num_cold, num_cold.bit_length())
        self._random = rng.random
        self._getrandbits = rng.getrandbits

    def next_file(self) -> int:
        if self._random() < self.hot_access_fraction:
            base, n, k = self._hot
        else:
            base, n, k = self._cold
        getrandbits = self._getrandbits
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return base + r

    @property
    def name(self) -> str:
        hot_pct = round(self.hot_access_fraction * 100)
        files_pct = round(self.hot_fraction * 100)
        return f"hot-and-cold {hot_pct}/{files_pct}"
