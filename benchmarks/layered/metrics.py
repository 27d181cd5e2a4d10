"""Metric catalogue and the arithmetic that fills it.

``END_TO_END`` and ``PER_LAYER`` are the names every later change is
judged by; ``BENCHMARK.json`` echoes them (a self-test keeps the two in
step). Each end-to-end metric names its clock: ``wall`` and ``host``
numbers vary from run to run and are reported as medians with quartiles;
``sim`` numbers come from the simulated disk clock and repeat exactly for
one seed.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass

from .trace import HARNESS, LAYERS
from .workloads import Rep, percentile


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str            # "higher" | "lower"
    clock: str = ""        # "wall" | "host" | "sim" | "" (a count)
    bound: float | None = None
    #: workloads it is defined on; empty = all
    workloads: tuple[str, ...] = ()
    #: carried in BENCHMARK.json's end_to_end list: defined and never zero
    #: on every workload. The others ride in per_layer under the same name,
    #: computed on every workload that can (0 elsewhere).
    contract: bool = False


#: ``--compare`` holds simulated metrics of two runs *of one seed* to this
#: bound whatever BENCHMARK.json says: with the inputs equal they repeat
#: exactly, so any difference is the change's. The bounds in END_TO_END are
#: for runs across seeds (the benchmark driver's protocol), where the count
#: of cleaner passes in a served run flips with the seed.
SAME_SEED_SIM_BOUND = 0.01

END_TO_END = [
    Metric("setup_s", "s", "lower", "wall", 0.25, contract=True),
    Metric("wall_ops_per_s", "ops/s", "higher", "wall", 0.25, contract=True),
    Metric("peak_rss_mb", "MiB", "lower", "host", 0.10, contract=True),
    Metric("sim_ops_per_s", "ops/s", "higher", "sim", 0.25, contract=True),
    Metric("sim_write_cost", "ratio", "lower", "sim", 0.25, contract=True),
    Metric("fail_ratio", "ratio", "lower", "", 0.0),
    Metric("sim_recovery_s", "s", "lower", "sim", 0.01, ("smallfile", "churn")),
    Metric("sim_latency_p50_s", "s", "lower", "sim", 0.01, ("serve",)),
    Metric("sim_latency_p99_s", "s", "lower", "sim", 0.01, ("serve",)),
    Metric("sim_latency_p999_s", "s", "lower", "sim", 0.01, ("serve",)),
    Metric("sim_light_p99_s", "s", "lower", "sim", 0.01, ("serve",)),
    Metric("sim_p99_r1_s", "s", "lower", "sim", 0.01, ("serve_open",)),
    Metric("sim_p99_r2_s", "s", "lower", "sim", 0.01, ("serve_open",)),
    Metric("sim_p99_r3_s", "s", "lower", "sim", 0.01, ("serve_open",)),
    Metric("sim_max_rate_ok_rps", "1/s", "higher", "sim", 0.0, ("serve_open",)),
]


def end_to_end_for(workload: str) -> list[Metric]:
    """The end-to-end metrics defined on one workload."""
    return [m for m in END_TO_END if not m.workloads or workload in m.workloads]


def _layer_metrics() -> list[Metric]:
    out = []
    for layer in [*LAYERS, HARNESS]:
        out.append(Metric(f"{layer}.self_s", "s", "lower", "wall"))
        out.append(Metric(f"{layer}.calls", "count", "lower"))
    return out


_SMALLFILE_PHASES = ("create", "read", "delete")
_LARGEFILE_PHASES = ("seq_write", "seq_read", "rand_write", "rand_read", "seq_reread")

PER_LAYER = [
    *_layer_metrics(),
    Metric("trace.overhead_frac", "ratio", "lower", "wall"),
    Metric("trace.coverage_frac", "ratio", "higher", "wall"),
    Metric("disk.device.write_calls", "count", "lower"),
    Metric("disk.device.read_calls", "count", "lower"),
    Metric("disk.device.blocks_written", "count", "lower"),
    Metric("disk.device.blocks_read", "count", "lower"),
    Metric("disk.device.blocks_per_write", "ratio", "higher"),
    Metric("disk.device.seeks", "count", "lower"),
    Metric("disk.device.busy_s", "s", "lower", "sim"),
    Metric("disk.device.busy_frac", "ratio", "higher", "sim"),
    Metric("core.segments.appends", "count", "lower"),
    Metric("core.segments.items_logged", "count", "lower"),
    Metric("core.segments.items_per_append", "ratio", "higher"),
    Metric("core.cleaner.clean_calls", "count", "lower"),
    Metric("core.cleaner.segments_cleaned", "count", "lower"),
    Metric("core.cleaner.blocks_read", "count", "lower"),
    Metric("core.cleaner.blocks_rewritten", "count", "lower"),
    Metric("core.cleaner.rewritten_per_segment", "ratio", "lower"),
    Metric("core.cleaner.wall_s", "s", "lower", "wall"),
    Metric("core.cleaner.sim_s", "s", "lower", "sim"),
    Metric("core.cleaner.max_pass_sim_s", "s", "lower", "sim"),
    Metric("core.filesystem.flushes", "count", "lower"),
    Metric("core.filesystem.checkpoints", "count", "lower"),
    Metric("core.filesystem.flush_sim_s", "s", "lower", "sim"),
    Metric("core.filesystem.checkpoint_sim_s", "s", "lower", "sim"),
    Metric("core.recovery.blocks_read", "count", "lower"),
    Metric("core.seg_usage.disk_util", "ratio", "higher"),
    Metric("core.seg_usage.clean_segments_end", "count", "higher"),
    Metric("vfs.opens", "count", "lower"),
    Metric("vfs.opens_per_request", "ratio", "lower"),
    Metric("obs.emits", "count", "lower"),
    Metric("obs.emits_per_op", "ratio", "lower"),
    Metric("server.events_fired", "count", "lower"),
    Metric("server.events_per_request", "ratio", "lower"),
    Metric("server.arrival_lag_p99_s", "s", "lower", "sim"),
    Metric("server.arrival_lag_max_s", "s", "lower", "sim"),
    Metric("server.reported_p99_s", "s", "lower", "sim"),
    Metric("server.queue_wait_mean_s", "s", "lower", "sim"),
    Metric("server.service_mean_s", "s", "lower", "sim"),
    Metric("server.queue_depth_max", "count", "lower"),
    Metric("server.cleaner_passes", "count", "lower"),
    *[Metric(f"server.drain_r{n}_s", "s", "lower", "sim") for n in (1, 2, 3)],
    *[Metric(f"server.reported_p99_r{n}_s", "s", "lower", "sim") for n in (1, 2, 3)],
    *[Metric(f"phase.{p}.wall_ops_per_s", "ops/s", "higher", "wall") for p in _SMALLFILE_PHASES],
    *[Metric(f"phase.{p}.sim_ops_per_s", "ops/s", "higher", "sim") for p in _SMALLFILE_PHASES],
    *[Metric(f"phase.{p}.wall_ops_per_s", "ops/s", "higher", "wall") for p in _LARGEFILE_PHASES],
    *[Metric(f"phase.{p}.sim_kb_per_s", "KB/s", "higher", "sim") for p in _LARGEFILE_PHASES],
    Metric("phase.mount.wall_s", "s", "lower", "wall"),
    *[Metric(f"phase.q{q}.write_cost", "ratio", "lower", "sim") for q in (1, 2, 3, 4)],
    # user-visible numbers that are zero or undefined on some workload, so
    # BENCHMARK.json cannot carry them in end_to_end (see README)
    *[m for m in END_TO_END if not m.contract],
]

#: boundary counts of the traced run -> the layers whose wrappers each one
#: needs (a count taken at another layer's boundary needs that layer too)
_TRACED_COUNTS = {
    "disk.device.write_calls": ("disk.device",),
    "disk.device.read_calls": ("disk.device",),
    "disk.device.blocks_written": ("disk.device",),
    "disk.device.blocks_read": ("disk.device",),
    "core.segments.appends": ("core.segments",),
    "core.segments.items_logged": ("core.segments",),
    "core.cleaner.clean_calls": ("core.cleaner",),
    "core.cleaner.segments_cleaned": ("core.cleaner",),
    "core.cleaner.blocks_read": ("core.cleaner", "disk.device"),
    "core.cleaner.blocks_rewritten": ("core.segments",),
    "core.cleaner.wall_s": ("core.cleaner",),
    "core.cleaner.sim_s": ("core.cleaner",),
    "core.cleaner.max_pass_sim_s": ("core.cleaner",),
    "core.filesystem.flush_sim_s": ("core.filesystem.flush",),
    "core.filesystem.checkpoint_sim_s": ("core.filesystem.checkpoint",),
    "core.recovery.blocks_read": ("core.recovery", "disk.device"),
    "vfs.opens": ("vfs",),
    "obs.emits": ("obs",),
}


def ratio(numerator, denominator):
    """``None`` propagates (a missing wrapper); an empty base gives 0."""
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def ops_wall_s(rep: Rep) -> float:
    """Wall seconds of the operation phases: the timed region less recovery."""
    return rep.timed_wall_s - sum(
        p["wall_s"] for p in rep.phases if p["name"] == "recover")


def end_to_end_values(rep: Rep, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    """Every end-to-end metric one repetition defines."""
    ordered = sorted(rep.latencies)
    out = {
        "setup_s": setup_s,
        "wall_ops_per_s": rep.ops / ops_wall_s(rep),
        "peak_rss_mb": peak_rss_mb,
        "fail_ratio": min(1.0, (rep.failed + rep.unverified) / max(1, rep.attempted)),
        "sim_latency_p50_s": percentile(ordered, 0.50),
        "sim_latency_p99_s": percentile(ordered, 0.99),
        "sim_latency_p999_s": percentile(ordered, 0.999),
    }
    out.update(rep.sim)
    return out


def sim_values(values: dict[str, float]) -> dict[str, float]:
    """The simulated-clock subset: must repeat exactly for one seed."""
    sim = {m.name for m in END_TO_END if m.clock == "sim"}
    return {k: v for k, v in values.items() if k in sim}


def result_digest(rep: Rep, values: dict[str, float]) -> str:
    """sha256 over the simulated metrics, phase times and server digests."""
    h = hashlib.sha256()
    for name, value in sorted(sim_values(values).items()):
        h.update(f"{name}={value!r};".encode())
    for phase in rep.phases:
        h.update(f"{phase['name']}:{phase['sim_s']!r};".encode())
    h.update("|".join(rep.digest_parts).encode())
    return h.hexdigest()[:16]


def untraced_layer_values(rep: Rep) -> dict[str, float]:
    """Per-layer names that need no wrapper: phases, device and queue counts."""
    out: dict[str, float] = {}
    for phase in rep.phases:
        name, wall, sim = phase["name"], phase["wall_s"], phase["sim_s"]
        if name in _SMALLFILE_PHASES or name in _LARGEFILE_PHASES:
            out[f"phase.{name}.wall_ops_per_s"] = phase["ops"] / wall
            if phase["kb"]:
                out[f"phase.{name}.sim_kb_per_s"] = phase["kb"] / sim
            else:
                out[f"phase.{name}.sim_ops_per_s"] = phase["ops"] / sim
    # three mounts on serve_open: report their sum
    out["phase.mount.wall_s"] = sum(
        p["wall_s"] for p in rep.phases if p["name"] == "mount")
    counts = dict(rep.counts)
    elapsed = counts.pop("sim_elapsed_s", 0.0)
    out.update(counts)
    out["disk.device.busy_frac"] = ratio(counts.get("disk.device.busy_s", 0.0), elapsed)
    return out


def traced_layer_values(rep: Rep, untraced_ops_wall_s: float) -> dict[str, float | None]:
    """Self time, calls and boundary counts from the traced repetition."""
    tracer = rep.tracer
    out: dict[str, float | None] = {}
    totals, name_calls = tracer.layer_totals(rep.first_span, rep.last_span)
    covered = 0.0
    for layer, row in totals.items():
        out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.calls"] = row["calls"]
        if layer != HARNESS and row["self_s"] is not None:
            covered += row["self_s"]
    out["trace.coverage_frac"] = covered / rep.timed_wall_s
    out["trace.overhead_frac"] = ops_wall_s(rep) / untraced_ops_wall_s - 1.0

    missing = tracer.incomplete
    for name, needs in _TRACED_COUNTS.items():
        out[name] = (None if missing.intersection(needs)
                     else rep.trace_counts.get(name, 0))
    for name, layer, label in (
        ("core.filesystem.flushes", "core.filesystem.flush", "LFS.flush"),
        ("core.filesystem.checkpoints", "core.filesystem.checkpoint", "LFS.checkpoint"),
    ):
        out[name] = None if layer in missing else name_calls.get(f"{layer}:{label}", 0)

    out["disk.device.blocks_per_write"] = ratio(
        out["disk.device.blocks_written"], out["disk.device.write_calls"])
    out["core.segments.items_per_append"] = ratio(
        out["core.segments.items_logged"], out["core.segments.appends"])
    out["core.cleaner.rewritten_per_segment"] = ratio(
        out["core.cleaner.blocks_rewritten"], out["core.cleaner.segments_cleaned"])
    served = rep.ops if totals["server"]["calls"] else 0
    out["vfs.opens_per_request"] = ratio(out["vfs.opens"], served)
    out["obs.emits_per_op"] = ratio(out["obs.emits"], rep.ops)
    return out


# ----------------------------------------------------------------------
# statistics over repeated runs


def summarise(values: list[float]) -> dict:
    """Median, quartiles (as ``statistics.quantiles(values, n=4)`` gives
    them) and their distance as a share of the median."""
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def verdict(metric: Metric, bound: float, parent: dict, change: dict) -> tuple[str, float]:
    """``improved | unchanged | regressed | unresolved`` and the signed
    worsening as a share of the parent's median (positive = worse)."""
    base = parent["median"]
    delta = change["median"] - base
    if metric.better == "higher":
        delta = -delta
    worse = delta / abs(base) if base else (1.0 if delta > 0 else -1.0 if delta < 0 else 0.0)
    worse += 0.0   # no negative zero in the printed row
    if parent["spread"] > bound:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if -worse > parent["spread"] and worse < 0:
        return "improved", worse
    return "unchanged", worse
