"""Tests for the Section 3.5 cleaning simulator.

``Simulator`` batches its write loop, picks victims without a full sort
and moves live blocks a segment at a time, all for speed. Its contract
is that none of this shows: ``reference_run`` below is the simulator as
it was before those changes — one ``step()`` per write, one
``_append_moved`` per block, a full ``rank`` sort per pass — and every
result must match it bit for bit.
"""

import random
from bisect import bisect_left, insort

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.simulator.model import SimConfig, SimResult, Simulator
from repro.simulator.patterns import AccessPattern, HotColdPattern, UniformPattern
from repro.simulator.policies import (
    GroupingPolicy,
    SelectionPolicy,
    rank_cost_benefit,
    rank_greedy,
)
from repro.simulator.sweep import derive_point_seed
from repro.simulator.writecost import (
    bandwidth_fraction,
    lfs_write_cost,
    measured_write_cost,
)

SELECTIONS = (SelectionPolicy.GREEDY, SelectionPolicy.COST_BENEFIT)
GROUPINGS = (GroupingPolicy.NONE, GroupingPolicy.AGE_SORT)


class _ReferenceSimulator:
    """The per-step simulator, kept only as the oracle for ``Simulator``."""

    def __init__(self, config, pattern):
        self.config = config
        self.pattern = pattern
        self.rng = random.Random(config.seed)
        self.pattern.bind(config.num_files, self.rng)

        S = config.num_segments
        self.file_seg = [-1] * config.num_files
        self.file_mtime = [0.0] * config.num_files
        self.seg_live = [0] * S
        self.seg_mtime = [0.0] * S
        self.seg_files = [{} for _ in range(S)]
        self.clean_segs = list(range(S - 1, -1, -1))  # stack, pop() -> seg 0 first
        self.cur_seg = self.clean_segs.pop()
        self._inlog = [self.cur_seg]
        self.cur_fill = 0
        self.out_seg = -1  # cleaner's output segment
        self.out_fill = 0
        self.step_no = 0

        self.new_blocks = 0
        self.moved_blocks = 0
        self.read_blocks = 0
        self.segments_cleaned = 0
        self.measuring = False
        self.m_new = 0
        self.m_moved = 0
        self.m_read = 0
        self.cleaned_utilizations = []
        self.util_snapshots = []

        # initial layout: every file written once, in file order
        for f in range(config.num_files):
            self._append_new(f)

    def _take_clean(self):
        if not self.clean_segs:
            self._run_cleaner()
        if not self.clean_segs:
            raise RuntimeError("cleaner could not produce a clean segment")
        seg = self.clean_segs.pop()
        insort(self._inlog, seg)
        return seg

    def _append_new(self, f):
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

    def _append_moved(self, f):
        if self.out_seg < 0 or self.out_fill >= self.config.blocks_per_segment:
            if not self.clean_segs:
                raise RuntimeError("cleaner ran out of output segments")
            self.out_seg = self.clean_segs.pop()
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

    def step(self):
        self.step_no += 1
        f = self.pattern.next_file()
        old = self.file_seg[f]
        if old >= 0:
            self.seg_live[old] -= 1
            self.seg_files[old].pop(f, None)
        self.file_mtime[f] = float(self.step_no)
        self._append_new(f)

    def _candidates(self):
        return [
            s for s in self._inlog if s != self.cur_seg and s != self.out_seg
        ]

    def _select_victims(self, count):
        B = self.config.blocks_per_segment
        if self.config.selection == SelectionPolicy.GREEDY:
            ranked = rank_greedy(self._candidates(), self)
        else:
            ranked = rank_cost_benefit(
                self._candidates(), self, float(self.step_no), B
            )
        ranked = [s for s in ranked if self.seg_live[s] < B]
        return ranked[:count]

    def _run_cleaner(self):
        B = self.config.blocks_per_segment
        if self.measuring:
            for s in self._candidates():
                self.util_snapshots.append(self.seg_live[s] / B)
        while len(self.clean_segs) < self.config.clean_threshold:
            victims = self._select_victims(self.config.segments_per_pass)
            if not victims:
                break
            live_files = []
            for v in victims:
                u = self.seg_live[v] / B
                self.cleaned_utilizations.append(u)
                if self.seg_live[v] > 0:
                    self.read_blocks += B
                    if self.measuring:
                        self.m_read += B
                live_files.extend(self.seg_files[v])
                self.seg_live[v] = 0
                self.seg_files[v] = {}
                self.seg_mtime[v] = 0.0
                self.clean_segs.append(v)
                del self._inlog[bisect_left(self._inlog, v)]
                self.segments_cleaned += 1
            if self.config.grouping == GroupingPolicy.AGE_SORT:
                live_files.sort(key=lambda f: self.file_mtime[f])
            for f in live_files:
                self._append_moved(f)

    def live_blocks(self, seg):
        return self.seg_live[seg]

    def segment_mtime(self, seg):
        return self.seg_mtime[seg]

    def _reset_window(self):
        self.m_new = self.m_moved = self.m_read = 0
        self.cleaned_utilizations.clear()
        self.util_snapshots.clear()

    def run(self):
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


def reference_run(config: SimConfig, pattern: AccessPattern) -> SimResult:
    """What ``Simulator(config, pattern).run()`` must return."""
    return _ReferenceSimulator(config, pattern).run()


def tiny_config(**kw):
    defaults = dict(
        num_segments=40,
        blocks_per_segment=32,
        utilization=0.6,
        clean_threshold=2,
        segments_per_pass=1,
        warmup_factor=3,
        measure_factor=2,
        max_windows=6,
        stable_tol=0.1,
        stable_windows=1,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class TestWriteCostFormula:
    def test_u_zero_is_one(self):
        assert lfs_write_cost(0.0) == 1.0

    def test_formula_values(self):
        assert lfs_write_cost(0.5) == pytest.approx(4.0)
        assert lfs_write_cost(0.8) == pytest.approx(10.0)

    def test_monotonic(self):
        costs = [lfs_write_cost(u / 10) for u in range(10)]
        assert costs == sorted(costs)

    def test_rejects_one(self):
        with pytest.raises(ValueError):
            lfs_write_cost(1.0)

    def test_measured(self):
        assert measured_write_cost(100, 50, 150) == pytest.approx(3.0)
        assert measured_write_cost(0, 0, 0) == 1.0

    def test_bandwidth_fraction(self):
        assert bandwidth_fraction(4.0) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            bandwidth_fraction(0.5)


class TestInvariants:
    def test_live_count_conserved(self):
        sim = Simulator(tiny_config())
        for _ in range(2000):
            sim.step()
        assert sum(sim.seg_live) == sim.config.num_files
        assert sum(len(s) for s in sim.seg_files) == sim.config.num_files

    def test_file_seg_consistent(self):
        sim = Simulator(tiny_config())
        for _ in range(3000):
            sim.step()
        for f, seg in enumerate(sim.file_seg):
            assert f in sim.seg_files[seg]

    def test_clean_segments_have_no_live(self):
        sim = Simulator(tiny_config())
        for _ in range(3000):
            sim.step()
        for seg in sim.clean_segs:
            assert sim.seg_live[seg] == 0

    def test_deterministic_given_seed(self):
        r1 = Simulator(tiny_config(seed=5)).run()
        r2 = Simulator(tiny_config(seed=5)).run()
        assert r1.write_cost == r2.write_cost

    def test_different_seeds_diverge(self):
        r1 = Simulator(tiny_config(seed=1)).run()
        r2 = Simulator(tiny_config(seed=2)).run()
        # not a strict requirement, but equal costs to full precision
        # would indicate the seed is ignored
        assert r1.new_blocks == r2.new_blocks  # same step counts
        assert r1.moved_blocks != r2.moved_blocks or r1.write_cost != r2.write_cost


class TestPatterns:
    def test_uniform_covers_population(self):
        import random

        p = UniformPattern()
        p.bind(50, random.Random(1))
        seen = {p.next_file() for _ in range(2000)}
        assert len(seen) == 50

    def test_hot_cold_split(self):
        import random

        p = HotColdPattern(hot_fraction=0.1, hot_access_fraction=0.9)
        p.bind(100, random.Random(1))
        hits = [p.next_file() for _ in range(10000)]
        hot_hits = sum(1 for f in hits if f < 10)
        assert 0.85 < hot_hits / len(hits) < 0.95

    def test_hot_cold_validation(self):
        with pytest.raises(ValueError):
            HotColdPattern(hot_fraction=0.0)
        with pytest.raises(ValueError):
            HotColdPattern(hot_access_fraction=1.5)

    def test_names(self):
        assert UniformPattern().name == "uniform"
        assert "90/10" in HotColdPattern().name


class TestPolicies:
    class _View:
        def __init__(self, live, mtimes):
            self._live = live
            self._mtimes = mtimes

        def live_blocks(self, seg):
            return self._live[seg]

        def segment_mtime(self, seg):
            return self._mtimes[seg]

    def test_greedy_orders_by_liveness(self):
        view = self._View({0: 30, 1: 5, 2: 17}, {0: 0, 1: 0, 2: 0})
        assert rank_greedy([0, 1, 2], view) == [1, 2, 0]

    def test_cost_benefit_prefers_old_at_equal_u(self):
        view = self._View({0: 16, 1: 16}, {0: 100.0, 1: 900.0})
        ranked = rank_cost_benefit([0, 1], view, now=1000.0, blocks_per_segment=32)
        assert ranked == [0, 1]  # the older segment wins

    def test_cost_benefit_protects_full_segments(self):
        view = self._View({0: 32, 1: 20}, {0: 0.0, 1: 500.0})
        ranked = rank_cost_benefit([0, 1], view, now=1000.0, blocks_per_segment=32)
        assert ranked[0] == 1  # u = 1.0 has zero benefit


class TestBehaviour:
    def test_write_cost_grows_with_utilization(self):
        low = Simulator(tiny_config(utilization=0.3)).run()
        high = Simulator(tiny_config(utilization=0.75)).run()
        assert high.write_cost > low.write_cost

    def test_cost_benefit_beats_greedy_hot_cold_at_high_util(self):
        greedy = Simulator(
            tiny_config(
                utilization=0.75,
                selection=SelectionPolicy.GREEDY,
                grouping=GroupingPolicy.AGE_SORT,
                num_segments=60,
                blocks_per_segment=64,
                warmup_factor=6,
                max_windows=12,
            ),
            HotColdPattern(),
        ).run()
        costben = Simulator(
            tiny_config(
                utilization=0.75,
                selection=SelectionPolicy.COST_BENEFIT,
                grouping=GroupingPolicy.AGE_SORT,
                num_segments=60,
                blocks_per_segment=64,
                warmup_factor=6,
                max_windows=12,
            ),
            HotColdPattern(),
        ).run()
        assert costben.write_cost < greedy.write_cost

    def test_cleaned_utilizations_recorded(self):
        result = Simulator(tiny_config(utilization=0.7)).run()
        assert result.segments_cleaned > 0
        assert result.cleaned_utilizations
        assert all(0.0 <= u <= 1.0 for u in result.cleaned_utilizations)

    def test_utilization_snapshots_recorded(self):
        result = Simulator(tiny_config(utilization=0.7)).run()
        assert result.utilization_histogram

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(utilization=0.0)
        with pytest.raises(ValueError):
            SimConfig(utilization=0.995)
        with pytest.raises(ValueError):
            SimConfig(num_segments=2)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_windows", 0),
            ("warmup_factor", -1.0),
            ("measure_factor", 0.0),
            ("measure_factor", -2.0),
            ("segments_per_pass", 0),
            ("stable_windows", 0),
        ],
    )
    def test_config_rejects_runs_that_measure_nothing(self, field, value):
        with pytest.raises(ValueError, match=field):
            tiny_config(**{field: value})


def make_pattern(spec: str) -> AccessPattern:
    return UniformPattern() if spec == "uniform" else HotColdPattern()


def small_config(util, selection, grouping, seed=7, **overrides) -> SimConfig:
    base = dict(
        num_segments=40,
        blocks_per_segment=32,
        utilization=util,
        clean_threshold=2,
        segments_per_pass=1,
        warmup_factor=3,
        measure_factor=2,
        max_windows=4,
        stable_tol=0.1,
        stable_windows=1,
        selection=selection,
        grouping=grouping,
        seed=seed,
    )
    base.update(overrides)
    return SimConfig(**base)


def matrix_pairs() -> list[tuple[SimConfig, str]]:
    pairs = []
    for selection in SELECTIONS:
        for grouping in GROUPINGS:
            for pattern in ("uniform", "hot-cold"):
                for util in (0.4, 0.75):
                    seed = derive_point_seed(
                        99, util, selection.value, grouping.value, pattern
                    )
                    cfg = small_config(util, selection, grouping, seed=seed)
                    pairs.append((cfg, pattern))
    return pairs


class CubedPattern(AccessPattern):
    """A pattern the simulator knows nothing about: skewed toward file 0."""

    def bind(self, num_files, rng):
        self._num_files = num_files
        self._rng = rng

    def next_file(self):
        return int(self._rng.random() ** 3 * self._num_files)

    @property
    def name(self):
        return "cubed"


class TestMatchesReference:
    def test_full_matrix_bit_identical(self):
        """Every selection x grouping x pattern x utilization cell agrees."""
        for cfg, pattern in matrix_pairs():
            got = Simulator(cfg, make_pattern(pattern)).run()
            assert got == reference_run(cfg, make_pattern(pattern)), (
                f"diverged at {cfg.utilization}/"
                f"{cfg.selection.value}/{cfg.grouping.value}/{pattern}"
            )

    def test_identity_covers_every_oracle_field(self):
        cfg, pattern = matrix_pairs()[0]
        got = Simulator(cfg, make_pattern(pattern)).run()
        ref = reference_run(cfg, make_pattern(pattern))
        assert got.write_cost == ref.write_cost
        assert got.new_blocks == ref.new_blocks
        assert got.moved_blocks == ref.moved_blocks
        assert got.read_blocks == ref.read_blocks
        assert got.segments_cleaned == ref.segments_cleaned
        assert got.total_steps == ref.total_steps
        assert got.cleaned_utilizations == ref.cleaned_utilizations
        assert got.utilization_histogram == ref.utilization_histogram

    @pytest.mark.parametrize("selection", SELECTIONS)
    def test_custom_pattern_bit_identical(self, selection):
        cfg = small_config(0.75, selection, GroupingPolicy.AGE_SORT, segments_per_pass=2)
        assert Simulator(cfg, CubedPattern()).run() == reference_run(cfg, CubedPattern())

    def test_stepwise_state_matches(self):
        """``step()`` leaves the same state the per-step loop does."""
        cfg = small_config(0.8, SelectionPolicy.COST_BENEFIT, GroupingPolicy.AGE_SORT)
        sim = Simulator(cfg, HotColdPattern())
        ref = _ReferenceSimulator(cfg, HotColdPattern())
        for _ in range(3000):
            sim.step()
            ref.step()
        for attr in ("file_seg", "file_mtime", "seg_live", "seg_mtime",
                     "clean_segs", "_inlog", "cur_seg", "cur_fill", "out_seg",
                     "out_fill", "step_no", "new_blocks", "moved_blocks"):
            assert getattr(sim, attr) == getattr(ref, attr), attr
        assert [list(d) for d in sim.seg_files] == [list(d) for d in ref.seg_files]

    @settings(max_examples=12, deadline=None)
    @given(
        num_segments=st.integers(8, 60),
        blocks_per_segment=st.sampled_from([4, 8, 16, 32]),
        utilization=st.floats(0.2, 0.9),
        clean_threshold=st.integers(1, 4),
        segments_per_pass=st.integers(1, 3),
        selection=st.sampled_from(SELECTIONS),
        grouping=st.sampled_from(GROUPINGS),
        pattern=st.sampled_from(["uniform", "hot-cold"]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_property_random_configs_bit_identical(
        self,
        num_segments,
        blocks_per_segment,
        utilization,
        clean_threshold,
        segments_per_pass,
        selection,
        grouping,
        pattern,
        seed,
    ):
        try:
            cfg = SimConfig(
                num_segments=num_segments,
                blocks_per_segment=blocks_per_segment,
                utilization=utilization,
                clean_threshold=min(clean_threshold, max(1, num_segments // 4)),
                segments_per_pass=segments_per_pass,
                warmup_factor=2,
                measure_factor=1,
                max_windows=3,
                stable_tol=0.1,
                stable_windows=1,
                selection=selection,
                grouping=grouping,
                seed=seed,
            )
        except ValueError:  # e.g. utilization leaves no cleaner headroom
            assume(False)
        if cfg.num_files < 2:  # hot-cold needs two groups
            pattern = "uniform"
        got = Simulator(cfg, make_pattern(pattern)).run()
        assert got == reference_run(cfg, make_pattern(pattern))


class TestSelectVictims:
    """``_select_victims`` equals the full ranked sort, ties included."""

    def _oracle(self, sim, count):
        B = sim.config.blocks_per_segment
        if sim.config.selection == SelectionPolicy.GREEDY:
            ranked = rank_greedy(sim._candidates(), sim)
        else:
            ranked = rank_cost_benefit(sim._candidates(), sim, float(sim.step_no), B)
        return [s for s in ranked if sim.seg_live[s] < B][:count]

    @pytest.mark.parametrize("selection", SELECTIONS)
    def test_matches_rank_during_a_run(self, selection):
        sim = Simulator(small_config(0.75, selection, GroupingPolicy.AGE_SORT), HotColdPattern())
        for _ in range(20):
            sim._steps(97)
            for count in (1, 2, 3, 50):
                assert sim._select_victims(count) == self._oracle(sim, count)

    @pytest.mark.parametrize("selection", SELECTIONS)
    def test_ties_break_by_ascending_segment(self, selection):
        sim = Simulator(small_config(0.5, selection, GroupingPolicy.NONE))
        B = sim.config.blocks_per_segment
        # staged: equal live counts and ages everywhere, a few fully live
        for s in sim._candidates():
            sim.seg_live[s] = B if s % 3 == 0 else B // 2
            sim.seg_mtime[s] = 0.0
        sim.step_no = 1000
        for count in (1, 2, 5):
            got = sim._select_victims(count)
            assert got == self._oracle(sim, count)
            assert got == sorted(got) and all(s % 3 for s in got)

    def test_all_fully_live_yields_nothing(self):
        sim = Simulator(small_config(0.5, SelectionPolicy.GREEDY, GroupingPolicy.NONE))
        for s in sim._candidates():
            sim.seg_live[s] = sim.config.blocks_per_segment
        assert sim._select_victims(1) == [] == self._oracle(sim, 1)


class TestDrawParity:
    """``next_file`` draws exactly what ``random.Random.randrange`` would."""

    @pytest.mark.parametrize("num_files", [1, 2, 7, 8, 9, 960, 2**20 + 1])
    def test_uniform_matches_randrange(self, num_files):
        pattern = UniformPattern()
        pattern.bind(num_files, random.Random(42))
        rng = random.Random(42)
        assert [pattern.next_file() for _ in range(3000)] == [
            rng.randrange(num_files) for _ in range(3000)
        ]

    @pytest.mark.parametrize("hot, access", [(0.1, 0.9), (0.05, 0.95), (0.5, 0.6)])
    def test_hot_cold_matches_randrange(self, hot, access):
        num_files, seed = 961, 1234
        pattern = HotColdPattern(hot, access)
        pattern.bind(num_files, random.Random(seed))
        rng = random.Random(seed)
        num_hot = max(1, round(num_files * hot))

        def draw():
            if rng.random() < access:
                return rng.randrange(num_hot)
            return num_hot + rng.randrange(num_files - num_hot)

        assert [pattern.next_file() for _ in range(4000)] == [
            draw() for _ in range(4000)
        ]

    def test_hot_cold_rejects_an_empty_cold_group(self):
        with pytest.raises(ValueError, match="no cold files"):
            HotColdPattern(0.9, 0.9).bind(2, random.Random(0))
