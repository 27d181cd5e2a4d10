"""Command line of the layered benchmark.

Three modes share one entry point (``run.py``):

- ``--trace 0|1`` - **one run** of one workload in this process, as the
  benchmark driver invokes it. The last line of standard output is one
  JSON object ``{"correct", "attempted", "failed", "metrics"}``.
- no ``--trace`` - **a full measurement**: ``--repeats`` fresh child
  processes per workload, one at a time, then one traced child per
  workload; prints every metric by name and writes ``--json``.
- ``--compare A.json B.json`` - verdict per (metric, workload) row.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from . import metrics as M
from .trace import Tracer
from .workloads import DEFAULT_SEED, WORKLOADS, Rep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"
#: set-ups timed per run; ``setup_s`` is imports plus their median
SETUP_REPEATS = 3


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# one run


def _one_rep(cls, seed: int, quick: bool, setups: list[float], tracer=None) -> Rep:
    workload = cls(seed, quick)
    start = perf_counter()
    workload.setup()
    setups.append(perf_counter() - start)
    rep = Rep(tracer)
    with rep.timed():
        workload.run(rep)
    rep.peak_rss_mb = _peak_rss_mb()   # before verification allocates
    workload.verify(rep)
    return rep


def run_once(name: str, seed: int, seconds: float, traced: bool, quick: bool,
             import_s: float, spans_out: Path | None = None) -> dict:
    """Measure one workload in this process; returns the run's record."""
    cls = WORKLOADS[name]
    setups: list[float] = []
    for _ in range(SETUP_REPEATS - 1):
        spare = cls(seed, quick)
        start = perf_counter()
        spare.setup()
        setups.append(perf_counter() - start)
    del spare

    reps: list[Rep] = []
    began = perf_counter()
    while True:
        rep_start = perf_counter()
        reps.append(_one_rep(cls, seed, quick, setups))
        now = perf_counter()
        # a traced run spends its budget on the traced repetition instead
        if traced or (now - began) + (now - rep_start) > seconds:
            break

    setup_s = import_s + statistics.median(setups)
    per_rep = [M.end_to_end_values(rep, setup_s, rep.peak_rss_mb) for rep in reps]
    values = dict(per_rep[0])
    values["wall_ops_per_s"] = statistics.median(v["wall_ops_per_s"] for v in per_rep)
    values["peak_rss_mb"] = max(v["peak_rss_mb"] for v in per_rep)

    notes = [note for rep in reps for note in rep.notes]
    digests = {M.result_digest(rep, v) for rep, v in zip(reps, per_rep)}
    per_rep_layers = [M.untraced_layer_values(rep) for rep in reps]
    layers = per_rep_layers[0]
    for key in [k for k in layers if k.endswith(("wall_ops_per_s", "wall_s"))]:
        layers[key] = statistics.median(row[key] for row in per_rep_layers)
    warnings: list[str] = []

    if traced:
        tracer = Tracer()
        tracer.install()
        try:
            traced_rep = _one_rep(cls, seed, quick, [], tracer)
        finally:
            tracer.uninstall()
        reps.append(traced_rep)
        notes += traced_rep.notes
        warnings = tracer.warnings
        traced_values = M.end_to_end_values(traced_rep, setup_s, 0.0)
        digests.add(M.result_digest(traced_rep, traced_values))
        baseline = statistics.median(M.ops_wall_s(rep) for rep in reps[:-1])
        layers.update(M.traced_layer_values(traced_rep, baseline))
        if spans_out is not None:
            spans_out.parent.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(spans_out)

    deterministic = len(digests) == 1
    if not deterministic:
        notes.append(f"simulated results differ between repetitions: {sorted(digests)}")
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed + rep.unverified for rep in reps)
    values["fail_ratio"] = min(1.0, failed / max(1, attempted))
    for metric in M.END_TO_END:
        if not metric.contract and metric.name in values:
            layers[metric.name] = values[metric.name]
    return {
        "workload": name, "seed": seed, "quick": quick, "traced": traced,
        "repetitions": len(reps), "end_to_end": values, "layers": layers,
        "phases": reps[0].phases,
        "attempted": attempted, "failed": min(failed, attempted),
        "correct": failed == 0 and deterministic,
        "result_digest": sorted(digests)[0], "notes": notes, "warnings": warnings,
    }


def contract_line(record: dict) -> str:
    """The driver's result object: every metric BENCHMARK.json lists for
    this trace mode, and nothing else."""
    if record["traced"]:
        listed, source = M.PER_LAYER, record["layers"]
    else:
        listed = [m for m in M.END_TO_END if m.contract]
        source = record["end_to_end"]
    out = {}
    for metric in listed:
        # a per-layer name this workload never touches is a plain zero; a
        # missing wrapper stays null (see trace.py)
        out[metric.name] = {"value": source.get(metric.name, 0), "unit": metric.unit}
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": out,
    })


def _print_layers(layers: dict, indent: str) -> None:
    for metric in M.PER_LAYER:
        if metric.name in layers:
            value = layers[metric.name]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"{indent}{metric.name:40s} {shown:>12s} {metric.unit:6s}"
                  f"{' [' + metric.clock + ']' if metric.clock else ''}")


def _print_record(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} "
          f"repetitions {record['repetitions']} digest {record['result_digest']}"
          f"{' (quick: not comparable)' if record['quick'] else ''}")
    for metric in M.end_to_end_for(record["workload"]):
        value = record["end_to_end"][metric.name]
        print(f"  {metric.name} [{metric.clock or 'count'}] = {value:.6g} {metric.unit} "
              f"({metric.better} is better, bound {metric.bound})")
    for phase in record["phases"]:
        print(f"  phase {phase['name']}: {phase['ops']} ops, wall {phase['wall_s']:.4g} s, "
              f"simulated {phase['sim_s']:.6g} s")
    if record["traced"]:
        _print_layers(record["layers"], indent="  ")
    for line in record["warnings"] + record["notes"]:
        print(f"  ! {line}")


def single_run(args, import_s: float) -> int:
    traced = args.trace == 1
    spans_out = OUT_DIR / f"{args.workload}.spans.tsv" if traced else None
    record = run_once(args.workload, args.seed, args.seconds, traced, args.quick,
                      import_s, spans_out)
    _print_record(record)
    if args.json:
        Path(args.json).write_text(json.dumps(record))
    sys.stdout.flush()
    print(contract_line(record))
    return 0 if record["correct"] else 1


# ----------------------------------------------------------------------
# a full measurement


def _environment(args) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy_version, "git_sha": sha, "seed": args.seed,
        "repeats": args.repeats, "seconds": args.seconds,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def _child(args, workload: str, trace: int, scratch: Path) -> dict:
    out = scratch / f"{workload}-{trace}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--json", str(out),
    ]
    if args.quick:
        command.append("--quick")
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=900)
    if not out.exists():
        raise RuntimeError(
            f"{workload} run produced no result (exit {done.returncode}):\n{done.stderr}")
    return json.loads(out.read_text())


def measure(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    result = {
        "schema": 1, "benchmark": "layered", "quick": args.quick,
        "comparable": not args.quick, "env": _environment(args), "workloads": {},
    }
    ok = True
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        for name in names:
            runs = [] if args.traced else [
                _child(args, name, 0, scratch) for _ in range(args.repeats)]
            traced = _child(args, name, 1, scratch)
            records = runs or [traced]
            entry = {"why": WORKLOADS[name].why, "end_to_end": {}, "layers": traced["layers"]}
            for metric in M.end_to_end_for(name):
                values = [r["end_to_end"][metric.name] for r in records]
                summary = M.summarise(values)
                summary.update(values=values, unit=metric.unit, better=metric.better,
                               clock=metric.clock, bound=metric.bound)
                if metric.clock == "sim" and len(set(values)) > 1:
                    ok = False
                    summary["error"] = "simulated metric differs between repeats"
                entry["end_to_end"][metric.name] = summary
            digests = {r["result_digest"] for r in records + [traced]}
            entry["result_digest"] = sorted(digests)[0]
            entry["attempted"] = sum(r["attempted"] for r in records)
            entry["failed"] = sum(r["failed"] for r in records)
            entry["correct"] = all(r["correct"] for r in records + [traced]) and len(digests) == 1
            entry["notes"] = [n for r in records + [traced] for n in r["notes"] + r["warnings"]]
            ok = ok and entry["correct"]
            result["workloads"][name] = entry
            _print_entry(name, entry)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.quick:
        print("quick run: sizes shrunk about 20x, numbers are not comparable")
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1))
    print("OK" if ok else "FAILED: a check did not hold (see notes above)")
    return 0 if ok else 1


def _print_entry(name: str, entry: dict) -> None:
    print(f"== {name}: {entry['why']}")
    print(f"   result_digest {entry['result_digest']}  attempted {entry['attempted']}  "
          f"failed {entry['failed']}  correct {entry['correct']}")
    for metric_name, s in entry["end_to_end"].items():
        print(f"   {metric_name:22s} [{s['clock'] or 'count':5s}] {s['median']:14.6g} "
              f"{s['unit']:6s} q1 {s['q1']:.6g} q3 {s['q3']:.6g} n {s['n']} "
              f"{s['better']} is better, bound {s['bound']}")
    _print_layers(entry["layers"], indent="     ")
    for note in entry["notes"]:
        print(f"   ! {note}")


# ----------------------------------------------------------------------
# comparison


def compare(args) -> int:
    parent_path, change_path = args.compare
    parent = json.loads(Path(parent_path).read_text())
    change = json.loads(Path(change_path).read_text())
    if not (parent.get("comparable") and change.get("comparable")):
        print("warning: a --quick result is not comparable")
    same_seed = parent["env"]["seed"] == change["env"]["seed"]
    regressed = 0
    print(f"{'workload':11s} {'metric':22s} {'parent median [q1..q3] n':38s} "
          f"{'change median [q1..q3] n':38s} {'worse by':>9s} {'bound':>6s} verdict")
    for name, before in parent["workloads"].items():
        after = change["workloads"].get(name)
        if after is None:
            continue
        for metric in M.END_TO_END:
            a = before["end_to_end"].get(metric.name)
            b = after["end_to_end"].get(metric.name)
            if a is None or b is None:
                continue
            bound = metric.bound   # BENCHMARK.json echoes these (self-tested)
            if same_seed and metric.clock == "sim":
                bound = min(bound, M.SAME_SEED_SIM_BOUND)
            word, worse = M.verdict(metric, bound, a, b)
            regressed += word == "regressed"

            def show(s: dict) -> str:
                return f"{s['median']:.6g} [{s['q1']:.6g}..{s['q3']:.6g}] {s['n']}"

            print(f"{name:11s} {metric.name:22s} {show(a):38s} {show(b):38s} "
                  f"{worse:+9.2%} {bound:6.2f} {word}")
    print(f"{regressed} regressed")
    return 1 if regressed else 0


# ----------------------------------------------------------------------


def main(argv: list[str], import_started: float) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep repeating the workload while another repetition "
                             "fits in this many seconds (always at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one run in this process: 0 end-to-end, 1 per-layer")
    parser.add_argument("--repeats", type=int, default=5,
                        help="untraced child runs per workload (full measurement)")
    parser.add_argument("--traced", action="store_true",
                        help="full measurement: only the traced run per workload")
    parser.add_argument("--quick", action="store_true",
                        help="shrink every workload about 20x; not comparable")
    parser.add_argument("--json", metavar="OUT")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args)
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return single_run(args, perf_counter() - import_started)
    return measure(args)
