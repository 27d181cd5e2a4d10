"""Run reports and bench-to-bench regression verdicts.

Two consumers of the observatory:

- :func:`build_report` folds one observed run — attribution, I/O
  counters, write cost, cleaning distributions — into a single
  JSON-serializable dict; :func:`render_report` prints it as text
  (``repro report`` emits both). Each number is read from the counter
  that owns it: the usage table, the cleaner's ``CleanerStats``, the
  device and NVM registry sources, and the tracer's per-kind emit
  counts.
- :func:`bench_diff` compares any two ``BENCH_*.json`` files (the
  schema-1 records :func:`benchmarks.conftest.record_bench` writes) and
  issues per-metric regressed/improved/unchanged verdicts, so the bench
  trajectory across PRs is finally *read* instead of just accumulated.
  Only metrics with a known better-direction can regress; unrecognized
  numeric fields are reported informationally. ``repro bench-diff``
  exits 1 on any regression.
"""

from __future__ import annotations

import math

from repro.obs.framing import FormatError, open_text, parse_object
from repro.obs.registry import scrape

#: Version of the dict build_report returns.
REPORT_SCHEMA = 1

#: Metric name -> +1 (higher is better) or -1 (lower is better).
#: ``write_cost``-prefixed and ``violations``-like metrics are matched
#: by rule below; this table covers the scalar bench fields.
METRIC_DIRECTIONS = {
    "steps_per_sec": +1,
    "wall_seconds": -1,
    "violations": -1,
    "mean_recovery_seconds": -1,
    "write_cost": -1,
    "wear_spread": -1,
    # Small-synchronous-write benchmark (BENCH_nvram_sync.json): commits
    # per simulated second with NVM staging, its ratio over the no-NVM
    # baseline, and how close staging runs to the NVM bandwidth bound
    # (simulated-time ratios — deterministic, so gating is noise-free).
    "sync_throughput": +1,
    "speedup": +1,
    "bound_ratio": -1,
}

#: Metrics whose values are wall-clock dependent: machine noise, not
#: semantics. ``bench_diff(..., include_perf=False)`` excludes them from
#: the verdict (useful when OLD and NEW ran on different hardware).
PERF_METRICS = frozenset({"steps_per_sec", "wall_seconds", "mean_recovery_seconds"})


# ----------------------------------------------------------------------
# run reports


#: Section keys a caller may explicitly request (``sections=``) and the
#: human titles render_report uses when saying one is not enabled.
SECTION_TITLES = {
    "flash": "flash wear and TRIM",
    "nvm": "NVM staging",
    "latency": "latency percentiles",
    "timeline": "timeline (flight recorder)",
}


def build_report(obs, fs=None, *, name: str = "run", latency=None, sections=()) -> dict:
    """One run's observatory summary as a JSON-serializable dict.

    ``latency`` is an optional ``{name: LatencyHistogram}`` mapping; when
    omitted, any histograms registered on ``obs.latency`` (the server
    records per-tenant and global request latencies there) are used. The
    report then gains a ``latency`` section with p50/p95/p99/p999 + max
    per histogram. The tenant x cause busy-time matrix rides along in
    the attribution section whenever tenant scopes charged any time.

    ``sections`` names report sections the *user asked for* (e.g.
    ``("flash",)`` for ``repro report --flash``). A requested section
    whose source never registered this run is recorded as ``None`` so
    :func:`render_report` can say "not enabled for this run" explicitly
    instead of silently omitting it or rendering an empty table.
    """
    report: dict = {
        "schema": REPORT_SCHEMA,
        "name": name,
        "elapsed_seconds": obs.now(),
        "attribution": {
            "seconds": dict(obs.attribution.seconds),
            "fractions": obs.attribution.fractions(),
            "total": obs.attribution.total,
        },
        "tracer": {
            "emitted": dict(obs.tracer.emitted_counts),
            "total_emitted": obs.tracer.total_emitted,
            "retained": len(obs.tracer),
            "ring_dropped": obs.tracer.dropped,
        },
    }
    if obs.attribution.tenant_seconds:
        report["attribution"]["tenants"] = {
            t: dict(row) for t, row in sorted(obs.attribution.tenant_seconds.items())
        }
        report["attribution"]["tenant_cleaning_seconds"] = (
            obs.attribution.tenant_cleaning_seconds()
        )
    if latency is None:
        latency = getattr(obs, "latency", None)
    if latency:
        report["latency"] = {
            hist_name: hist.percentiles() for hist_name, hist in latency.items()
        }
    timeline = getattr(obs, "timeline", None)
    if timeline is not None:
        report["timeline"] = timeline.summary()
    if "io" in obs.registry.names():
        report["io"] = scrape(obs.registry.source("io"))
    if "flash" in obs.registry.names():
        report["flash"] = scrape(obs.registry.source("flash"))
    if "nvm" in obs.registry.names():
        report["nvm"] = scrape(obs.registry.source("nvm"))
    if fs is not None:
        fs_section: dict = {}
        if hasattr(fs, "write_cost"):
            fs_section["write_cost"] = fs.write_cost
        if hasattr(fs, "disk_capacity_utilization"):
            fs_section["disk_capacity_utilization"] = fs.disk_capacity_utilization
        if hasattr(fs, "usage"):
            fs_section["live_utilization_histogram"] = fs.usage.utilization_histogram()
            fs_section["total_live_bytes"] = fs.usage.total_live_bytes()
        if hasattr(fs, "cleaner"):
            stats = fs.cleaner.stats
            fs_section["cleaning"] = {
                **stats.table2(),
                "live_blocks_seen": stats.live_blocks_seen,
                "live_blocks_moved": stats.live_blocks_moved,
                "blocks_rescued": stats.blocks_rescued,
                "blocks_lost": stats.blocks_lost,
                "segments_quarantined": stats.segments_quarantined,
            }
        report["fs"] = fs_section
    if hasattr(fs, "cleaner"):
        report["table2"] = fs.cleaner.stats.table2()
        report["figure6_distribution"] = fs.cleaner.stats.figure6()
    for section in sections:
        if not report.get(section):
            report[section] = None  # requested, but nothing ran under it
    return report


def render_report(report: dict) -> str:
    """Text rendering of a :func:`build_report` dict."""
    from repro.analysis.ascii_chart import render_table

    lines = [f"run report: {report.get('name', '?')} "
             f"(schema {report.get('schema', '?')})"]
    lines.append(f"elapsed simulated time: {report.get('elapsed_seconds', 0.0):.6f}s")

    attribution = report.get("attribution", {})
    rows = [
        [cause, f"{secs:.6f}", f"{attribution.get('fractions', {}).get(cause, 0.0):.4f}"]
        for cause, secs in sorted(attribution.get("seconds", {}).items())
    ]
    if rows:
        lines.append(render_table(["cause", "seconds", "fraction"], rows,
                                  title="busy-time attribution"))

    tenants = attribution.get("tenants")
    if tenants:
        cleaning = attribution.get("tenant_cleaning_seconds", {})
        rows = []
        for tenant, row in sorted(tenants.items()):
            total = sum(row.values())
            interference = cleaning.get(tenant, 0.0)
            rows.append(
                [
                    tenant,
                    f"{total:.6f}",
                    f"{interference:.6f}",
                    f"{interference / total:.4f}" if total > 0 else "-",
                ]
            )
        lines.append(render_table(
            ["tenant", "disk seconds", "cleaning", "cleaning share"],
            rows, title="per-tenant busy-time (cleaner interference)"))

    latency = report.get("latency")
    if latency:
        rows = [
            [
                name,
                str(p.get("count", 0)),
                f"{p.get('p50', 0.0):.6f}",
                f"{p.get('p95', 0.0):.6f}",
                f"{p.get('p99', 0.0):.6f}",
                f"{p.get('p999', 0.0):.6f}",
                f"{p.get('max', 0.0):.6f}",
                "exact" if p.get("exact") else "bucketed",
            ]
            for name, p in latency.items()
        ]
        lines.append(render_table(
            ["histogram", "count", "p50", "p95", "p99", "p999", "max", "mode"],
            rows, title="latency percentiles (simulated seconds)"))

    fs_section = report.get("fs", {})
    if fs_section:
        rows = []
        if "write_cost" in fs_section:
            rows.append(["write cost", f"{fs_section['write_cost']:.4f}"])
        if "disk_capacity_utilization" in fs_section:
            rows.append(["disk utilization",
                         f"{fs_section['disk_capacity_utilization']:.4f}"])
        if "total_live_bytes" in fs_section:
            rows.append(["total live bytes", str(fs_section["total_live_bytes"])])
        cleaning = fs_section.get("cleaning", {})
        for key in ("segments_cleaned", "empty_segments_cleaned",
                    "segments_quarantined", "live_blocks_seen",
                    "live_blocks_moved", "blocks_rescued", "blocks_lost"):
            if key in cleaning:
                rows.append([key.replace("_", " "), str(cleaning[key])])
        if "fraction_empty" in cleaning:
            rows.append(["fraction empty", f"{cleaning['fraction_empty']:.4f}"])
        if "avg_nonempty_utilization" in cleaning:
            rows.append(["avg non-empty u",
                         f"{cleaning['avg_nonempty_utilization']:.4f}"])
        lines.append(render_table(["metric", "value"], rows, title="file system"))

    flash = report.get("flash")
    if flash:
        rows = [[k.replace("_", " "), str(v)] for k, v in sorted(flash.items())]
        lines.append(render_table(["metric", "value"], rows,
                                  title="flash wear and TRIM"))

    nvm = report.get("nvm")
    if nvm:
        rows = [[k.replace("_", " "), str(v)] for k, v in sorted(nvm.items())]
        lines.append(render_table(["metric", "value"], rows,
                                  title="NVM staging"))

    timeline = report.get("timeline")
    if timeline:
        span = timeline.get("span", [0.0, 0.0])
        rows = [
            ["samples", str(timeline.get("samples", 0))],
            ["columns", str(timeline.get("columns", 0))],
            ["cadence", f"{timeline.get('cadence', 0.0):g}s "
                        f"(stride {timeline.get('stride', 1)})"],
            ["span", f"{span[0]:.3f}s - {span[1]:.3f}s"],
            ["digest", str(timeline.get("digest", "-"))],
        ]
        peaks = timeline.get("peaks", {})
        if "peak_write_cost" in peaks:
            rows.append(["peak write cost", f"{peaks['peak_write_cost']:.4f}"])
        if "peak_cleaner_share" in peaks:
            rows.append(["peak cleaner share", f"{peaks['peak_cleaner_share']:.4f}"])
        lines.append(render_table(["metric", "value"], rows,
                                  title="timeline (flight recorder)"))
        slo = timeline.get("slo", {})
        if slo:
            rows = []
            for name, s in sorted(slo.items()):
                worst = s.get("worst_burn", {})
                rows.append(
                    [
                        name,
                        f"{s.get('threshold', 0.0):g}s",
                        str(s.get("requests", 0)),
                        str(s.get("breaches", 0)),
                        ", ".join(f"{w}={b:.2f}" for w, b in sorted(worst.items()))
                        or "-",
                        f"{s.get('time_above_slo', 0.0):.3f}s",
                    ]
                )
            lines.append(render_table(
                ["objective", "threshold", "requests", "breaches",
                 "worst burn", "above SLO"],
                rows, title="SLO burn rates"))
        annotations = timeline.get("annotations", [])
        if annotations:
            rows = [
                [
                    a.get("type", "?"),
                    f"{a.get('start', 0.0):.3f}",
                    f"{a.get('end', 0.0):.3f}",
                    f"{a.get('severity', 0.0):.3f}",
                ]
                for a in annotations
            ]
            lines.append(render_table(
                ["phase", "start", "end", "severity"], rows,
                title="detected phases"))

    for section, title in SECTION_TITLES.items():
        # Requested sections build_report nulled out: say so explicitly
        # rather than silently omitting the table the user asked for.
        if section in report and report[section] is None:
            lines.append(f"{title}: not enabled for this run")

    fig6 = report.get("figure6_distribution")
    if fig6 and sum(fig6):
        bins = len(fig6)
        rows = [
            [f"{i / bins:.2f}-{(i + 1) / bins:.2f}", str(count)]
            for i, count in enumerate(fig6)
            if count
        ]
        lines.append(render_table(["u at cleaning", "segments"], rows,
                                  title="Figure 6: utilization at cleaning"))

    tracer = report.get("tracer", {})
    lines.append(
        f"trace: {tracer.get('total_emitted', 0)} events emitted, "
        f"{tracer.get('retained', 0)} retained, "
        f"{tracer.get('ring_dropped', 0)} dropped by the ring"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# bench diffing


class BenchFormatError(FormatError):
    """A BENCH_*.json file could not be understood."""


def load_bench(path: str) -> dict:
    """Read one ``BENCH_*.json`` file, validating the schema field."""
    with open_text(path, BenchFormatError) as fh:
        data = parse_object(fh.read(), BenchFormatError, path, "BENCH_*.json record")
    schema = data.get("schema")
    if not isinstance(schema, int):
        raise BenchFormatError(
            f"{path}: missing integer 'schema' field — not a BENCH_*.json record "
            "(or written by an incompatible version)"
        )
    return data


def _flatten_metrics(bench: dict) -> dict[str, float]:
    """Numeric comparable metrics from one bench record, flattened."""
    out: dict[str, float] = {}
    for key, value in bench.items():
        if key in ("schema", "workers", "steps", "sample", "population",
                   "base_seed", "created_at", "git_sha", "bench"):
            continue
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[key] = float(value)
        elif key == "write_costs" and isinstance(value, dict):
            for label, wc in value.items():
                if isinstance(wc, (int, float)):
                    out[f"write_cost[{label}]"] = float(wc)
                elif isinstance(wc, list):
                    for pair in wc:
                        if isinstance(pair, list) and len(pair) == 2:
                            out[f"write_cost[{label}@{pair[0]}]"] = float(pair[1])
        elif key == "write_costs" and isinstance(value, list):
            for i, wc in enumerate(value):
                if isinstance(wc, (int, float)):
                    out[f"write_cost[{i}]"] = float(wc)
    return out


def _direction(metric: str) -> int | None:
    """+1 higher-better, -1 lower-better, None unknown (informational)."""
    if metric.startswith("write_cost"):
        return -1
    # Server tail-latency metrics (BENCH_server_tail_latency.json writes
    # e.g. ``latency_p99[c1000/drr/cleaner]``): simulated-time latencies
    # are deterministic per seed, so gating them is noise-free.
    if metric.startswith("latency_"):
        return -1
    # Flash cleaning-migration ratios (blocks moved per block written):
    # deterministic in simulated time, lower is better.
    if metric.startswith("migration_ratio"):
        return -1
    # Timeline curve-level metrics (``peak_write_cost[label]``,
    # ``worst_burn_1m[label]``, ``time_above_slo[label]``): extrema and
    # integrals over the flight recorder's sampled curves. All derive
    # from simulated time, so they gate as deterministically as the
    # point metrics above, and lower is always better.
    if metric.startswith(("peak_write_cost", "worst_burn", "time_above_slo")):
        return -1
    return METRIC_DIRECTIONS.get(metric)


def bench_diff(
    old: dict,
    new: dict,
    *,
    threshold: float = 0.05,
    include_perf: bool = True,
) -> dict:
    """Compare two bench records; verdict per shared metric and overall.

    A metric regresses when it moves beyond ``threshold`` (relative)
    in its bad direction — except exact counters like ``violations``,
    where *any* increase regresses. Metrics with no known direction are
    listed as ``informational`` and never affect the overall verdict.
    With ``include_perf=False`` wall-clock-dependent metrics
    (:data:`PERF_METRICS`) are informational too, for cross-machine
    comparisons where timing noise would drown the signal.
    """
    old_metrics = _flatten_metrics(old)
    new_metrics = _flatten_metrics(new)
    shared = sorted(set(old_metrics) & set(new_metrics))
    metrics = []
    regressed: list[str] = []
    improved: list[str] = []
    for name in shared:
        before, after = old_metrics[name], new_metrics[name]
        delta = after - before
        rel = (delta / abs(before)) if before else (math.inf if delta else 0.0)
        direction = _direction(name)
        if direction is None or (not include_perf and name in PERF_METRICS):
            verdict = "informational"
        elif name == "violations":
            # Exact counter: any increase is a regression, full stop.
            verdict = (
                "regressed" if delta > 0 else "improved" if delta < 0 else "unchanged"
            )
        else:
            bad = -direction  # sign of a move in the bad direction
            if rel * bad > threshold:
                verdict = "regressed"
            elif rel * bad < -threshold:
                verdict = "improved"
            else:
                verdict = "unchanged"
        if verdict == "regressed":
            regressed.append(name)
        elif verdict == "improved":
            improved.append(name)
        metrics.append(
            {
                "metric": name,
                "old": before,
                "new": after,
                "delta": delta,
                "relative": rel,
                "verdict": verdict,
            }
        )
    overall = "regressed" if regressed else ("improved" if improved else "unchanged")
    return {
        "schema_old": old.get("schema"),
        "schema_new": new.get("schema"),
        "bench_old": old.get("bench"),
        "bench_new": new.get("bench"),
        "threshold": threshold,
        "include_perf": include_perf,
        "metrics": metrics,
        "regressed": regressed,
        "improved": improved,
        "only_in_old": sorted(set(old_metrics) - set(new_metrics)),
        "only_in_new": sorted(set(new_metrics) - set(old_metrics)),
        "verdict": overall,
    }


def render_bench_diff(diff: dict) -> str:
    """Text table of one :func:`bench_diff` result."""
    from repro.analysis.ascii_chart import render_table

    rows = []
    for entry in diff["metrics"]:
        rel = entry["relative"]
        rel_text = "inf" if math.isinf(rel) else f"{rel:+.2%}"
        rows.append(
            [
                entry["metric"],
                f"{entry['old']:.6g}",
                f"{entry['new']:.6g}",
                rel_text,
                entry["verdict"],
            ]
        )
    title = (
        f"bench diff: {diff.get('bench_old') or 'old'} -> "
        f"{diff.get('bench_new') or 'new'} "
        f"(threshold {diff['threshold']:.0%}"
        f"{'' if diff['include_perf'] else ', perf informational'})"
    )
    lines = [render_table(["metric", "old", "new", "rel", "verdict"], rows, title=title)]
    for side, names in (("old", diff["only_in_old"]), ("new", diff["only_in_new"])):
        if names:
            lines.append(f"only in {side}: {', '.join(names)}")
    lines.append(f"verdict: {diff['verdict'].upper()}")
    return "\n".join(lines)
