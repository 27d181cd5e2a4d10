"""Self-tests of the layered benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/layered -q`` (under
30 s). Everything here uses ``--quick`` sizes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from layered import cli
from layered import metrics as M
from layered.trace import HARNESS, LAYERS, Tracer
from layered.workloads import WORKLOADS, Churn, Rep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CONTRACT = [m.name for m in M.END_TO_END if m.contract]

_records: dict[tuple, dict] = {}


def record(name: str, seed: int = 1991, traced: bool = False, run: int = 0) -> dict:
    """One quick in-process run, cached per (workload, seed, traced, run)."""
    key = (name, seed, traced, run)
    if key not in _records:
        _records[key] = cli.run_once(name, seed, 0.0, traced, True, 0.0)
    return _records[key]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_smoke_is_correct_and_complete(name):
    rec = record(name)
    assert rec["correct"], rec["notes"]
    assert rec["failed"] == 0 and rec["attempted"] > 0
    assert rec["end_to_end"]["fail_ratio"] == 0
    for metric in CONTRACT:
        assert rec["end_to_end"][metric] > 0, metric
    line = json.loads(cli.contract_line(rec))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == CONTRACT


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_simulated_metrics_repeat_exactly_and_follow_the_seed(name):
    first, again, other = record(name), record(name, run=1), record(name, seed=7)
    assert first["result_digest"] == again["result_digest"]
    assert M.sim_values(first["end_to_end"]) == M.sim_values(again["end_to_end"])
    assert first["result_digest"] != other["result_digest"]
    assert M.sim_values(first["end_to_end"]) != M.sim_values(other["end_to_end"])


def test_traced_run_fills_every_listed_layer_metric():
    rec = record("serve", traced=True)
    assert rec["correct"], rec["notes"]
    line = json.loads(cli.contract_line(rec))
    assert list(line["metrics"]) == [m.name for m in M.PER_LAYER]
    layers = rec["layers"]
    assert not rec["warnings"]
    assert all(layers[m.name] is not None for m in M.PER_LAYER if m.name in layers)
    for layer in ("server", "vfs", "core.filesystem.ops", "core.segments", "obs"):
        assert layers[f"{layer}.calls"] > 0 and layers[f"{layer}.self_s"] > 0
    assert 0.8 <= layers["trace.coverage_frac"] <= 1.0
    assert layers["vfs.opens_per_request"] == 1
    # due-time latency is measured from outside, beside the server's own
    assert layers["server.arrival_lag_max_s"] >= layers["server.arrival_lag_p99_s"] >= 0
    assert layers["server.reported_p99_s"] > 0 and layers["sim_latency_p99_s"] > 0


def test_cleaner_counts_only_on_the_cleaner_workload():
    churn = record("churn", traced=True)["layers"]
    assert churn["core.cleaner.clean_calls"] >= 20
    assert churn["core.cleaner.segments_cleaned"] > 0
    assert churn["core.cleaner.blocks_read"] >= churn["core.cleaner.blocks_rewritten"] > 0
    assert 0.70 < churn["core.seg_usage.disk_util"] < 0.80
    small = record("smallfile", traced=True)["layers"]
    assert small["core.cleaner.clean_calls"] == 0 and small["core.cleaner.self_s"] == 0


def test_span_self_time_arithmetic_on_a_synthetic_trace():
    tracer = Tracer()
    outer = tracer._name_id("server", "outer")
    mid = tracer._name_id("vfs", "mid")
    leaf = tracer._name_id("disk.device", "leaf")

    def span(name_id, parent, start, end):
        tracer.span_name.append(name_id)
        tracer.span_parent.append(parent)
        tracer.span_op.append(0)
        tracer.span_start.append(start)
        tracer.span_end.append(end)
        return len(tracer.span_name) - 1

    root = span(tracer._name_id(HARNESS, "root"), -1, 0.0, 10.0)
    a = span(outer, root, 1.0, 9.0)        # 8 s, children cover 5 s
    b = span(mid, a, 2.0, 6.0)             # 4 s, children cover 3 s
    span(leaf, b, 2.5, 4.5)                # 2 s
    span(leaf, b, 5.0, 6.0)                # 1 s
    span(mid, a, 7.0, 8.0)                 # 1 s, same layer as b
    totals, calls = tracer.layer_totals(root)
    assert totals["server"] == {"self_s": pytest.approx(3.0), "calls": 1}
    assert totals["vfs"] == {"self_s": pytest.approx(2.0), "calls": 2}
    assert totals["disk.device"] == {"self_s": pytest.approx(3.0), "calls": 2}
    assert totals[HARNESS]["self_s"] == pytest.approx(2.0)
    assert calls["disk.device:leaf"] == 2
    assert sum(row["self_s"] for row in totals.values()) == pytest.approx(10.0)


def test_missing_wrapped_attribute_gives_null_not_a_crash():
    layers = dict(LAYERS)
    layers["core.segments"] = [("repro.core.segments", "LogWriter", "renamed_away")]
    tracer = Tracer()
    tracer.install(layers)
    try:
        rep = cli._one_rep(WORKLOADS["smallfile"], 1991, True, [], tracer)
    finally:
        tracer.uninstall()
    assert "core.segments" in tracer.incomplete and tracer.warnings
    assert rep.failed == rep.unverified == 0
    values = M.traced_layer_values(rep, M.ops_wall_s(rep))
    assert values["core.segments.self_s"] is None
    assert values["core.segments.appends"] is None
    assert values["core.segments.items_per_append"] is None
    assert values["core.cleaner.blocks_rewritten"] is None   # seen via appends
    assert values["disk.device.write_calls"] > 0
    json.dumps(values)


def test_uninstall_restores_every_original():
    from repro.core.filesystem import LFS
    from repro.disk.device import Disk

    before = (vars(LFS)["mount"], vars(LFS)["flush"], vars(Disk)["read_blocks"])
    tracer = Tracer()
    tracer.install()
    assert vars(LFS)["flush"] is not before[1]
    tracer.uninstall()
    assert (vars(LFS)["mount"], vars(LFS)["flush"], vars(Disk)["read_blocks"]) == before


def test_corrupted_read_back_raises_fail_ratio():
    workload = Churn(1991, quick=True)
    workload.setup()
    rep = Rep()
    with rep.timed():
        workload.run(rep)
    victim = next(iter(workload.model))
    workload.model[victim] ^= 0xFF          # the model now disagrees with the disk
    workload.verify(rep)
    assert rep.unverified == 1
    assert M.end_to_end_values(rep, 0.0, 0.0)["fail_ratio"] > 0


def test_verdicts():
    by_name = {m.name: m for m in M.END_TO_END}
    metric = by_name["wall_ops_per_s"]   # higher is better

    def runs(*values):
        return M.summarise(list(values))

    steady = runs(100, 101, 99, 100, 100)
    assert M.verdict(metric, 0.10, steady, runs(80, 81, 79, 80, 80))[0] == "regressed"
    assert M.verdict(metric, 0.10, steady, runs(97, 98, 96, 97, 97))[0] == "unchanged"
    assert M.verdict(metric, 0.10, steady, runs(120, 121, 119, 120, 120))[0] == "improved"
    noisy = runs(60, 100, 140, 80, 120)
    assert M.verdict(metric, 0.10, noisy, runs(50, 50, 50, 50, 50))[0] == "unresolved"
    exact = by_name["sim_write_cost"]    # lower is better
    word, worse = M.verdict(exact, 0.05, runs(2.0, 2.0), runs(2.2, 2.2))
    assert word == "regressed" and worse == pytest.approx(0.10)


def test_benchmark_json_echoes_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/layered"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [c.why for c in WORKLOADS.values()]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in M.END_TO_END if m.contract]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in M.PER_LAYER]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and len(spec["per_layer"]) <= 128


def test_command_line_contract_and_comparison(tmp_path):
    command = [sys.executable, str(HERE / "run.py")]
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)             # run.py finds src on its own
    done = subprocess.run(
        command + ["--workload", "largefile", "--seed", "3", "--seconds", "0",
                   "--trace", "0", "--quick"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    assert list(last["metrics"]) == CONTRACT
    assert all(set(v) == {"value", "unit"} for v in last["metrics"].values())

    out = tmp_path / "a.json"
    done = subprocess.run(
        command + ["--workload", "largefile", "--quick", "--repeats", "2",
                   "--json", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(out.read_text())
    assert result["comparable"] is False
    assert {"nproc", "python", "numpy", "git_sha", "seed", "repeats",
            "PYTHONHASHSEED"} <= set(result["env"])
    entry = result["workloads"]["largefile"]
    assert entry["end_to_end"]["wall_ops_per_s"]["n"] == 2
    assert entry["layers"]["trace.coverage_frac"] > 0.8

    # the same result against itself: nothing can have regressed
    done = subprocess.run(command + ["--compare", str(out), str(out)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0 and "0 regressed" in done.stdout
    worse = json.loads(out.read_text())
    worse["workloads"]["largefile"]["end_to_end"]["sim_write_cost"]["median"] *= 1.5
    bad = tmp_path / "b.json"
    bad.write_text(json.dumps(worse))
    done = subprocess.run(command + ["--compare", str(out), str(bad)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1 and "regressed" in done.stdout
