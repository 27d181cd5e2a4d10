"""The cleaning simulator's core model (Section 3.5).

"The simulator models a file system as a fixed number of 4-kbyte files,
with the number chosen to produce a particular overall disk capacity
utilization. At each step, the simulator overwrites one of the files with
new data. [...] The simulator runs until all clean segments are
exhausted, then simulates the actions of a cleaner until a threshold
number of clean segments is available again."

Files are one block each. No read traffic is modeled. All results are in
block counts, which is exactly the currency of the write-cost metric.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field

from repro.simulator.patterns import AccessPattern, UniformPattern
from repro.simulator.policies import GroupingPolicy, SelectionPolicy, rank
from repro.simulator.writecost import measured_write_cost


@dataclass
class SimConfig:
    """Parameters of one simulation run.

    Attributes:
        num_segments: segments on the simulated disk.
        blocks_per_segment: one-block files per segment.
        utilization: overall disk capacity utilization; fixes the file
            population size.
        selection: greedy or cost-benefit victim selection.
        grouping: whether the cleaner age-sorts live blocks on the way out.
        clean_threshold: the cleaner runs until this many clean segments
            are available again. The defaults model the paper's regime of
            fine-grained cleaning — the cleaner kicks in exactly when the
            log runs dry and reclaims one segment at a time — which is
            what makes locality *hurt* the greedy policy (fresh segments
            are consumed before their hot blocks have died, and cold
            segments linger just above the cleaning point). Large
            thresholds with big passes let fresh segments decay fully
            before cleaning and wash the effect out.
        segments_per_pass: victims examined per cleaning pass.
        seed: RNG seed (runs are deterministic).
        warmup_factor: steps before the first measurement window, as a
            multiple of total blocks.
        measure_factor: steps per measurement window, as a multiple of
            total blocks.
        stable_tol: relative write-cost change between consecutive windows
            below which the run is considered converged (the paper runs
            "until the write cost stabilized").
        stable_windows: consecutive converged windows required.
        max_windows: hard cap on measurement windows. Hot-and-cold runs
            need many windows: the cold-segment free-space hoarding that
            drives Figure 5 develops over several cold-file lifetimes.
    """

    num_segments: int = 100
    blocks_per_segment: int = 128
    utilization: float = 0.75
    selection: SelectionPolicy = SelectionPolicy.GREEDY
    grouping: GroupingPolicy = GroupingPolicy.NONE
    clean_threshold: int = 2
    segments_per_pass: int = 1
    seed: int = 42
    warmup_factor: float = 6.0
    measure_factor: float = 4.0
    stable_tol: float = 0.04
    stable_windows: int = 2
    max_windows: int = 40

    def __post_init__(self) -> None:
        if self.num_segments < 4 or self.blocks_per_segment < 1:
            raise ValueError("disk too small to simulate")
        if not 0.0 < self.utilization < 1.0:
            raise ValueError("utilization must be in (0, 1)")
        total = self.num_segments * self.blocks_per_segment
        files = round(self.utilization * total)
        free_segments = self.num_segments - (files + self.blocks_per_segment - 1) // self.blocks_per_segment
        if free_segments < 3:
            raise ValueError(
                f"utilization {self.utilization} leaves no room for the cleaner"
            )
        if self.clean_threshold < 1:
            raise ValueError("clean_threshold must be >= 1")

    @property
    def total_blocks(self) -> int:
        return self.num_segments * self.blocks_per_segment

    @property
    def num_files(self) -> int:
        return round(self.utilization * self.total_blocks)


@dataclass
class SimResult:
    """Measured outcome of a simulation run."""

    config: SimConfig
    pattern_name: str
    write_cost: float
    new_blocks: int
    moved_blocks: int
    read_blocks: int
    segments_cleaned: int
    total_steps: int = 0
    cleaned_utilizations: list[float] = field(repr=False, default_factory=list)
    utilization_histogram: list[float] = field(repr=False, default_factory=list)

    @property
    def avg_cleaned_utilization(self) -> float:
        """Mean utilization of segments the cleaner processed."""
        if not self.cleaned_utilizations:
            return 0.0
        return sum(self.cleaned_utilizations) / len(self.cleaned_utilizations)


class Simulator:
    """One simulated log-structured disk under churn."""

    def __init__(self, config: SimConfig, pattern: AccessPattern | None = None) -> None:
        self.config = config
        self.pattern = pattern if pattern is not None else UniformPattern()
        self.rng = random.Random(config.seed)
        self.pattern.bind(config.num_files, self.rng)

        S = config.num_segments
        self.file_seg = [-1] * config.num_files
        self.file_mtime = [0.0] * config.num_files
        self.seg_live = [0] * S
        self.seg_mtime = [0.0] * S
        # Per-segment live-file membership, iterated in *log order* (the
        # order blocks were appended): insertion-ordered dicts with None
        # values. Log order is what a real segment scan would yield, it
        # is deterministic across engines (unlike set hash order), and
        # the vectorized engine's slot table reproduces it exactly.
        self.seg_files: list[dict[int, None]] = [{} for _ in range(S)]
        self.clean_segs = list(range(S - 1, -1, -1))  # stack, pop() -> seg 0 first
        self.clean_set = set(self.clean_segs)  # O(1) membership, kept in sync
        self.cur_seg = self.clean_segs.pop()
        self.clean_set.discard(self.cur_seg)
        # All non-clean segments, kept sorted ascending: the cleaner's
        # candidate universe, maintained incrementally instead of being
        # rebuilt by an O(num_segments) range scan per cleaner call.
        self._inlog: list[int] = [self.cur_seg]
        self.cur_fill = 0
        self.out_seg = -1  # cleaner's output segment
        self.out_fill = 0
        self.step_no = 0

        # counters (split into total and post-warmup "measured")
        self.new_blocks = 0
        self.moved_blocks = 0
        self.read_blocks = 0
        self.segments_cleaned = 0
        self.measuring = False
        self.m_new = 0
        self.m_moved = 0
        self.m_read = 0
        self.cleaned_utilizations: list[float] = []
        self.util_snapshots: list[float] = []

        # initial layout: every file written once, in file order
        for f in range(config.num_files):
            self._append_new(f)

    # ------------------------------------------------------------------
    # write path

    def _take_clean(self) -> int:
        if not self.clean_segs:
            self._run_cleaner()
        if not self.clean_segs:
            raise RuntimeError("cleaner could not produce a clean segment")
        seg = self.clean_segs.pop()
        self.clean_set.discard(seg)
        insort(self._inlog, seg)
        return seg

    def _append_new(self, f: int) -> None:
        """Write file ``f`` at the head of the log."""
        if self.cur_fill >= self.config.blocks_per_segment:
            self.cur_seg = self._take_clean()
            self.cur_fill = 0
        seg = self.cur_seg
        self.file_seg[f] = seg
        self.seg_live[seg] += 1
        self.seg_files[seg][f] = None
        if self.file_mtime[f] > self.seg_mtime[seg]:
            self.seg_mtime[seg] = self.file_mtime[f]
        self.cur_fill += 1
        self.new_blocks += 1
        if self.measuring:
            self.m_new += 1

    def _append_moved(self, f: int) -> None:
        """Write a live file the cleaner is carrying to its output head."""
        if self.out_seg < 0 or self.out_fill >= self.config.blocks_per_segment:
            if not self.clean_segs:
                raise RuntimeError("cleaner ran out of output segments")
            self.out_seg = self.clean_segs.pop()
            self.clean_set.discard(self.out_seg)
            insort(self._inlog, self.out_seg)
            self.out_fill = 0
        seg = self.out_seg
        self.file_seg[f] = seg
        self.seg_live[seg] += 1
        self.seg_files[seg][f] = None
        if self.file_mtime[f] > self.seg_mtime[seg]:
            self.seg_mtime[seg] = self.file_mtime[f]
        self.out_fill += 1
        self.moved_blocks += 1
        if self.measuring:
            self.m_moved += 1

    def step(self) -> None:
        """Overwrite one file chosen by the access pattern."""
        self.step_no += 1
        f = self.pattern.next_file()
        old = self.file_seg[f]
        if old >= 0:
            self.seg_live[old] -= 1
            self.seg_files[old].pop(f, None)
        self.file_mtime[f] = float(self.step_no)
        self._append_new(f)

    # ------------------------------------------------------------------
    # cleaning

    def _candidates(self) -> list[int]:
        # ``_inlog`` is exactly the non-clean segments, already sorted
        # ascending, so no range scan over all of num_segments is needed
        return [
            s for s in self._inlog if s != self.cur_seg and s != self.out_seg
        ]

    def _select_victims(self, count: int) -> list[int]:
        """The ``count`` best candidates under the selection policy."""
        B = self.config.blocks_per_segment
        ranked = rank(
            self.config.selection,
            self._candidates(),
            self,
            float(self.step_no),
            B,
        )
        # A fully live segment yields nothing: cleaning it is pure
        # cost (benefit is zero under both policies), so never pick
        # one while anything better exists.
        ranked = [s for s in ranked if self.seg_live[s] < B]
        return ranked[:count]

    def _run_cleaner(self) -> None:
        """Clean until the threshold of clean segments is available."""
        B = self.config.blocks_per_segment
        if self.measuring:
            for s in self._candidates():
                self.util_snapshots.append(self.seg_live[s] / B)
        while len(self.clean_segs) < self.config.clean_threshold:
            victims = self._select_victims(self.config.segments_per_pass)
            if not victims:
                break  # everything left is fully live: no reclaimable space
            live_files: list[int] = []
            for v in victims:
                u = self.seg_live[v] / B
                self.cleaned_utilizations.append(u)
                if self.seg_live[v] > 0:
                    self.read_blocks += B
                    if self.measuring:
                        self.m_read += B
                live_files.extend(self.seg_files[v])
                # the victim's space is reclaimed; its live data is in hand
                self.seg_live[v] = 0
                self.seg_files[v] = {}
                self.seg_mtime[v] = 0.0
                self.clean_segs.append(v)
                self.clean_set.add(v)
                del self._inlog[bisect_left(self._inlog, v)]
                self.segments_cleaned += 1
            if self.config.grouping == GroupingPolicy.AGE_SORT:
                live_files.sort(key=lambda f: self.file_mtime[f])
            for f in live_files:
                self._append_moved(f)

    # SegmentView protocol -------------------------------------------------

    def live_blocks(self, seg: int) -> int:
        """Live blocks in a segment (policy callback)."""
        return self.seg_live[seg]

    def segment_mtime(self, seg: int) -> float:
        """Youngest block's modified time (policy callback)."""
        return self.seg_mtime[seg]

    # ------------------------------------------------------------------
    # runs

    def _reset_window(self) -> None:
        self.m_new = self.m_moved = self.m_read = 0
        self.cleaned_utilizations.clear()
        self.util_snapshots.clear()

    def run(self) -> SimResult:
        """Run to steady state and return the last window's measurements.

        Measurement proceeds in windows; the run ends once the per-window
        write cost has stopped moving (``stable_tol`` over
        ``stable_windows`` consecutive windows) or ``max_windows`` is
        reached — the paper's "until the write cost stabilized and all
        cold-start variance had been removed".
        """
        cfg = self.config
        warmup = int(cfg.warmup_factor * cfg.total_blocks)
        window = max(1, int(cfg.measure_factor * cfg.total_blocks))
        for _ in range(warmup):
            self.step()
        self.measuring = True
        prev_cost = None
        stable = 0
        for _ in range(cfg.max_windows):
            self._reset_window()
            for _ in range(window):
                self.step()
            cost = measured_write_cost(self.m_new, self.m_moved, self.m_read)
            if prev_cost is not None and prev_cost > 0:
                if abs(cost - prev_cost) / prev_cost <= cfg.stable_tol:
                    stable += 1
                else:
                    stable = 0
            prev_cost = cost
            if stable >= cfg.stable_windows:
                break
        return SimResult(
            config=cfg,
            pattern_name=self.pattern.name,
            write_cost=prev_cost if prev_cost is not None else 1.0,
            new_blocks=self.m_new,
            moved_blocks=self.m_moved,
            read_blocks=self.m_read,
            segments_cleaned=self.segments_cleaned,
            total_steps=self.step_no,
            cleaned_utilizations=list(self.cleaned_utilizations),
            utilization_histogram=list(self.util_snapshots),
        )
