"""Command-line interface: operate on persistent LFS disk images.

Usage (after ``pip install -e .``)::

    python -m repro mkfs demo.lfs --size-mb 64
    python -m repro put demo.lfs README.md /docs/readme.md
    python -m repro ls demo.lfs /docs
    python -m repro get demo.lfs /docs/readme.md out.md
    python -m repro stats demo.lfs
    python -m repro fsck demo.lfs
    python -m repro dump demo.lfs --segment 0
    python -m repro sweep --utils 0.5,0.75,0.9 --workers 4 --json out.json
    python -m repro serve --timeline --export run.jsonl
    python -m repro timeline run.jsonl --tenant t0

Every mutating command mounts the image (running roll-forward if the
image was not cleanly unmounted), performs the operation, checkpoints,
and saves the image back — so images on disk are always recoverable.
``sweep`` needs no image: it fans cleaning-simulator runs across a
process pool and optionally records a machine-readable benchmark file.
``timeline`` runs nothing: it views what ``serve --timeline`` exported.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Callable

from repro.analysis.ascii_chart import render_table
from repro.core.config import LFSConfig
from repro.core.errors import CorruptionError
from repro.core.filesystem import LFS
from repro.core.policy import CleaningPolicy, GroupingPolicy
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry, FlashGeometry
from repro.disk.image import load_disk, save_disk
from repro.obs.framing import FormatError
from repro.simulator.model import SimConfig
from repro.seeds import derive_point_seed
from repro.simulator.sweep import (
    SweepPoint,
    make_pattern,
    record_bench,
    resolve_workers,
    result_digest,
    run_sweep,
)
from repro.tools.dumplog import dump_checkpoints, dump_segment, dump_superblock
from repro.tools.lfsck import check_filesystem
from repro.tools.scrub import scrub_filesystem
from repro.torture import TORTURE_MODES, WORKLOADS, check_request, run_torture
from repro.disk.faults import FAULT_MODES


def _mount(image: str) -> tuple[Disk, LFS]:
    disk = load_disk(image)
    return disk, LFS.mount(disk)


def _update(image: str, op: Callable[[LFS], object]) -> None:
    """Mount ``image``, apply ``op``, then checkpoint and save it back."""
    disk, fs = _mount(image)
    op(fs)
    fs.unmount()
    save_disk(disk, image)


def cmd_mkfs(args: argparse.Namespace) -> int:
    geometry = DiskGeometry.wren4(num_blocks=args.size_mb * 256)
    disk = Disk(geometry)
    fs = LFS.format(disk, LFSConfig(segment_bytes=args.segment_kb * 1024))
    fs.unmount()
    save_disk(disk, args.image)
    print(
        f"created {args.image}: {args.size_mb}MB, "
        f"{fs.layout.num_segments} segments of {args.segment_kb}KB"
    )
    return 0


def cmd_ls(args: argparse.Namespace) -> int:
    disk, fs = _mount(args.image)
    for name in fs.readdir(args.path):
        st = fs.stat(args.path.rstrip("/") + "/" + name)
        kind = "d" if st.is_directory else "-"
        print(f"{kind} {st.size:>10}  {name}")
    return 0


def cmd_put(args: argparse.Namespace) -> int:
    with open(args.local, "rb") as fh:
        data = fh.read()
    _update(args.image, lambda fs: fs.write_file(args.path, data))
    print(f"wrote {len(data)} bytes to {args.path}")
    return 0


def cmd_get(args: argparse.Namespace) -> int:
    disk, fs = _mount(args.image)
    data = fs.read(args.path)
    if args.local:
        with open(args.local, "wb") as fh:
            fh.write(data)
        print(f"read {len(data)} bytes to {args.local}")
    else:
        sys.stdout.buffer.write(data)
    return 0


def cmd_rm(args: argparse.Namespace) -> int:
    _update(args.image, lambda fs: fs.unlink(args.path))
    print(f"removed {args.path}")
    return 0


def cmd_mkdir(args: argparse.Namespace) -> int:
    _update(args.image, lambda fs: fs.mkdir(args.path))
    print(f"created directory {args.path}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import Observation

    disk = load_disk(args.image)
    # Attach before mount so the registry and attribution also cover the
    # mount-time recovery I/O.
    obs = Observation(ring_capacity=4096)
    fs = LFS.mount(disk, obs=obs)
    snapshot = obs.registry.snapshot()
    if args.json:
        print(
            json.dumps(
                {
                    "disk_utilization": fs.disk_capacity_utilization,
                    "clean_segments": fs.usage.clean_count,
                    "total_segments": fs.layout.num_segments,
                    "live_inodes": fs.imap.live_count,
                    "write_cost": fs.write_cost,
                    "segments_cleaned": fs.cleaner.stats.segments_cleaned,
                    "simulated_time": disk.clock.now,
                    "trace_retained": len(obs.tracer),
                    "trace_dropped": obs.tracer.dropped,
                    "registry": snapshot,
                    "attribution_seconds": obs.attribution.seconds,
                },
                indent=2,
            )
        )
        return 0
    print(f"disk utilization  {fs.disk_capacity_utilization:.1%}")
    print(f"clean segments    {fs.usage.clean_count} / {fs.layout.num_segments}")
    print(f"live inodes       {fs.imap.live_count}")
    print(f"write cost        {fs.write_cost:.2f}")
    print(f"segments cleaned  {fs.cleaner.stats.segments_cleaned} (this session)")
    print(f"simulated time    {disk.clock.now:.3f}s")
    print(f"trace ring        {len(obs.tracer)} retained, {obs.tracer.dropped} dropped")
    print()
    print(obs.registry.render(snapshot))
    return 0


def _filter_events(events, args: argparse.Namespace) -> list:
    """Apply the trace command's --kind/--cause/--since filters."""
    return [
        e for e in events
        if (args.kind is None or e.kind == args.kind)
        and (args.cause is None or e.cause == args.cause)
        and (args.since is None or e.time >= args.since)
    ]


def _print_events(events) -> None:
    for e in events:
        fields = " ".join(f"{k}={v}" for k, v in e.fields.items())
        cause = f" cause={e.cause}" if e.cause else ""
        print(f"t={e.time:.6f} {e.kind}{cause} {fields}")


#: Workloads ``trace`` and ``report`` run; the first two take ``--flash``.
OBSERVED_WORKLOADS = ("smallfile", "largefile", "andrew", "production")


def _flash_refused(args: argparse.Namespace) -> bool:
    """True, said on stderr, when ``--flash`` meets a geometry-less workload."""
    refused = args.flash and args.workload not in OBSERVED_WORKLOADS[:2]
    if refused:
        print(f"{args.command}: --flash runs smallfile or largefile only", file=sys.stderr)
    return refused


def _run_observed(args: argparse.Namespace, obs) -> None:
    """Run ``--workload`` with ``obs`` attached."""
    if args.workload == "smallfile":
        from repro.workloads.smallfile import run_smallfile

        geometry = FlashGeometry.nand if args.flash else DiskGeometry.wren4
        geo = geometry(block_size=1024, num_blocks=65536)
        run_smallfile("lfs", num_files=args.files, geometry=geo, obs=obs)
    elif args.workload == "largefile":
        from repro.workloads.largefile import run_largefile

        flash_geo = FlashGeometry.nand() if args.flash else None
        run_largefile(
            "lfs", file_size=args.file_mb * 1024 * 1024, geometry=flash_geo, obs=obs
        )
    elif args.workload == "andrew":
        from repro.workloads.andrew import run_andrew

        run_andrew("lfs", obs=obs)
    else:  # production
        from repro.workloads.production import ProductionConfig, run_production

        run_production(
            ProductionConfig(name="/trace", disk_mb=32, traffic_mb=32), obs=obs
        )


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a workload under the tracer: event counts, busy-time
    attribution, and Tables 2 and 4 from the cleaner and log counters
    (so a bounded ``--ring`` never changes them). With ``--load`` no
    workload runs: a previously exported JSONL trace is rendered instead
    (the filters and --spans apply the same way).
    """
    from repro.obs import Observation, load_trace_jsonl, render_span_tree

    filtering = args.kind or args.cause or args.since is not None

    if args.load:
        header, events = load_trace_jsonl(args.load)
        trailer = header.get("trailer", {})
        print(
            f"loaded {args.load}: schema {header.get('schema')}, "
            f"{len(events)} events"
        )
        if trailer.get("warning"):
            print(f"warning: {trailer['warning']}")
        if args.spans:
            print(render_span_tree(events))
        if filtering or not args.spans:
            _print_events(_filter_events(events, args))
        return 0

    if _flash_refused(args):
        return 2
    obs = Observation(
        ring_capacity=args.ring if args.ring > 0 else None,
        jsonl_path=args.jsonl,
    )
    _run_observed(args, obs)
    obs.tracer.close()

    counts = obs.tracer.emitted_counts
    rows = [[kind, counts[kind]] for kind in sorted(counts)]
    print(render_table(["event kind", "emitted"], rows, title=f"trace — {args.workload}"))
    if obs.tracer.dropped:
        print(f"ring dropped {obs.tracer.dropped} events")
    print()
    print(obs.attribution.render())
    print()

    fs = obs._fs
    summary = fs.cleaner.stats.table2()
    print("cleaning (Table 2 inputs, from the cleaner counters):")
    print(f"  segments cleaned  {summary['segments_cleaned']}")
    print(f"  fraction empty    {summary['fraction_empty']:.3f}")
    print(f"  avg non-empty u   {summary['avg_nonempty_utilization']:.3f}")
    breakdown = fs.log_bandwidth_breakdown()
    total = sum(breakdown.values()) or 1
    print("log bandwidth by block type (Table 4, from the log-writer counters):")
    for kind, blocks in breakdown.items():
        print(f"  {kind:<10} {blocks:>8} blocks  {100.0 * blocks / total:5.1f}%")

    events = obs.tracer.events()

    if args.spans:
        print()
        print(render_span_tree(events))
    if filtering:
        print()
        matched = _filter_events(events, args)
        print(f"{len(matched)} events match the filters:")
        _print_events(matched)
    if args.jsonl:
        print(f"wrote JSONL trace to {args.jsonl}")
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    """Offline check. Exit 0 = clean, 1 = inconsistencies, 2 = checksum
    mismatches or an unreadable image (media damage, not mere logic bugs)."""
    try:
        disk = load_disk(args.image)
    except (OSError, ValueError, CorruptionError) as exc:
        print(f"fsck: cannot read image {args.image}: {exc}", file=sys.stderr)
        return 2
    report = check_filesystem(disk)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    if report.checksum_errors:
        return 2
    return 0 if report.ok else 1


def cmd_scrub(args: argparse.Namespace) -> int:
    """Patrol-read an image's log and verify every recorded checksum."""
    disk, fs = _mount(args.image)
    report = scrub_filesystem(fs, rescue=args.rescue)
    fs.unmount()
    if args.rescue:
        save_disk(disk, args.image)  # quarantine verdicts must persist
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.clean else 1


def cmd_dump(args: argparse.Namespace) -> int:
    disk = load_disk(args.image)
    if args.segment is not None:
        print(dump_segment(disk, args.segment))
    elif args.checkpoints:
        print(dump_checkpoints(disk))
    else:
        print(dump_superblock(disk))
        print()
        print(dump_checkpoints(disk))
    return 0


def _sweep_points(args: argparse.Namespace) -> tuple[list[SweepPoint], list[tuple]]:
    """The sweep grid a ``sweep``/``profile`` invocation describes."""
    utils = [float(u) for u in args.utils.split(",") if u]
    selections = [CleaningPolicy(p) for p in args.policies.split(",") if p]
    groupings = [GroupingPolicy(g) for g in args.grouping.split(",") if g]
    patterns = [p for p in args.patterns.split(",") if p]
    for spec in patterns:
        make_pattern(spec)  # a bad spec fails here, not in a pool worker

    points: list[SweepPoint] = []
    labels: list[tuple] = []
    for util in utils:
        for selection in selections:
            for grouping in groupings:
                for pattern in patterns:
                    seed = derive_point_seed(
                        args.seed, util, selection.value, grouping.value, pattern
                    )
                    cfg = SimConfig(
                        num_segments=args.segments,
                        blocks_per_segment=args.blocks,
                        utilization=util,
                        selection=selection,
                        grouping=grouping,
                        warmup_factor=args.warmup_factor,
                        measure_factor=args.measure_factor,
                        max_windows=args.max_windows,
                        seed=seed,
                    )
                    points.append(SweepPoint(cfg, pattern))
                    labels.append((util, selection.value, grouping.value, pattern))
    return points, labels


def _record(args: argparse.Namespace, **fields) -> None:
    """Write the ``--json`` BENCH record (a file name or a directory)."""
    out = pathlib.Path(args.json)
    path = record_bench(
        args.bench_name, results_dir=out.parent if out.suffix else out, **fields
    )
    if out.suffix:  # an explicit file name, not a directory
        path = path.rename(out)
    print(f"recorded {path}")


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        points, labels = _sweep_points(args)
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    workers = resolve_workers(args.workers, len(points))
    t0 = time.perf_counter()
    results = run_sweep(points, workers=workers)
    wall = time.perf_counter() - t0

    rows = [
        [util, sel, grp, pat, f"{r.write_cost:.2f}", r.total_steps]
        for (util, sel, grp, pat), r in zip(labels, results)
    ]
    steps = sum(r.total_steps for r in results)
    print(
        render_table(
            ["util", "policy", "grouping", "pattern", "write cost", "steps"],
            rows,
            title=(
                f"sweep — {len(points)} points, {workers} worker(s), "
                f"{wall:.2f}s wall, {steps / wall:,.0f} steps/s"
            ),
        )
    )
    if args.json:
        _record(
            args,
            wall_seconds=wall,
            workers=workers,
            steps=steps,
            write_costs={
                f"{util}/{sel}/{grp}/{pat}": r.write_cost
                for (util, sel, grp, pat), r in zip(labels, results)
            },
            digest=result_digest(results),
            extra={"points": len(points), "base_seed": args.seed},
        )
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile a sweep under cProfile and print the ranked hotspots."""
    import cProfile
    import pstats

    try:
        points, _ = _sweep_points(args)
    except ValueError as exc:
        print(f"profile: {exc}", file=sys.stderr)
        return 2
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    # Always in-process: a pool would move the work (and the profile)
    # into child processes and leave nothing here but pickling.
    results = run_sweep(points, workers=1)
    profiler.disable()
    wall = time.perf_counter() - t0

    steps = sum(r.total_steps for r in results)
    print(
        f"profile — {len(points)} points, "
        f"{wall:.2f}s wall, {steps / wall:,.0f} steps/s, "
        f"digest {result_digest(results)}"
    )
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    if args.out:
        stats.dump_stats(args.out)
        print(f"wrote {args.out} (open with pstats or snakeviz)")
    return 0


def cmd_heatmap(args: argparse.Namespace) -> int:
    """Render an image's per-segment utilization as an ASCII glyph map."""
    from repro.analysis.ascii_chart import render_heatmap

    _, fs = _mount(args.image)
    usage = fs.usage
    utils = [usage.utilization(i) for i in range(usage.num_segments)]
    print(
        render_heatmap(
            utils,
            quarantined=usage.quarantined_segments(),
            clean=usage.clean_segments(),
            current=fs.writer.current_segment,
            width=args.width,
        )
    )
    print(
        f"live: {usage.total_live_bytes()} bytes across "
        f"{usage.num_segments - usage.clean_count} in-log segments; "
        f"{usage.clean_count} clean, {len(usage.quarantined_segments())} quarantined"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Run a workload under the full observatory and print a run report."""
    from repro.obs import Observation, Watchdog, build_report, render_report

    if _flash_refused(args):
        return 2
    obs = Observation(ring_capacity=args.ring if args.ring > 0 else None)
    Watchdog().install(obs)
    if args.timeline:
        from repro.obs import TimelineRecorder

        # No event loop here: the flush/clean/checkpoint hooks and the
        # per-event gate drive the cadence, so a finer default fits the
        # short simulated spans these workloads cover.
        TimelineRecorder(cadence=args.timeline_cadence).install(obs)

    _run_observed(args, obs)
    if obs.timeline is not None:
        obs.timeline.finish()

    sections = tuple(s for s in ("flash", "timeline") if getattr(args, s))
    report = build_report(obs, obs._fs, name=args.workload, sections=sections)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {args.json_out}")
    print(render_report(report))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant file server experiment to completion.

    With ``--timeline`` the flight recorder rides along: the run ends
    with its sparkline dashboard and can export the samples as framed
    JSONL (which ``repro timeline`` renders later) or CSV. Exit 2 when
    an export is asked for without the recorder.
    """
    from repro.obs import Observation, render_dashboard
    from repro.server import ServerConfig, WorkloadConfig, run_server

    if (args.export or args.csv) and not args.timeline:
        print("serve: --export and --csv need --timeline", file=sys.stderr)
        return 2
    workload = WorkloadConfig(
        clients=args.clients,
        tenants=args.tenants,
        ops_per_client=args.ops,
        files_per_client=args.files,
        file_size=args.file_size,
        mode=args.mode,
        think_seconds=args.think,
        heavy_fraction=args.heavy_fraction,
        seed=args.seed,
        sync_writes=args.sync_writes,
    )
    config = ServerConfig(
        workload=workload,
        policy=args.policy,
        quantum=args.quantum,
        cleaner=not args.no_cleaner,
        nvram=args.nvram,
        timeline=args.timeline,
        timeline_cadence=args.timeline_cadence,
        slo_latency=args.slo_latency,
    )
    obs = Observation(ring_capacity=4096)
    t0 = time.perf_counter()
    result = run_server(config, obs=obs, watchdog=args.watchdog)
    wall = time.perf_counter() - t0

    cleaner = "on" if result.cleaner else "off"
    print(
        f"serve — {result.clients} clients / {result.tenants} tenants, "
        f"policy={result.policy}, cleaner={cleaner}, "
        f"{result.requests} requests ({result.failed} failed), "
        f"{result.elapsed_seconds:.2f}s simulated, {wall:.2f}s wall"
    )
    print(
        f"loop: {result.events_fired} events, {result.cleaner_passes} cleaner "
        f"passes, {result.checkpoints} checkpoints"
    )
    print(f"digest {result.digest}  latency-digest {result.latency_digest}")
    print()
    columns = ("p50", "p95", "p99", "p999", "max")
    rows = [
        [name, pct["count"], *(f"{pct[c]:.4f}" for c in columns)]
        for name, pct in result.latency.items()
    ]
    print(
        render_table(
            ["histogram", "n", *columns],
            rows,
            title="request latency (simulated seconds)",
        )
    )
    cleaning = result.tenant_cleaning_seconds
    if cleaning:
        print()
        print(
            render_table(
                ["tenant", "cleaning seconds"],
                [[t, f"{s:.4f}"] for t, s in sorted(cleaning.items())],
                title="cleaner interference by tenant",
            )
        )
    if result.timeline:
        tl = result.timeline
        print()
        print(
            f"timeline: {tl['samples']} samples (stride {tl['stride']}), "
            f"{len(tl['annotations'])} annotation(s), digest {tl['digest']}"
        )
        print()
        store = obs.timeline.store
        print(render_dashboard(store, summary=tl, width=args.width))
        if args.export:
            n = obs.timeline.export_jsonl(args.export)
            print(f"\nwrote {n} samples to {args.export}")
        if args.csv:
            n = store.export_csv(args.csv)
            print(f"wrote {n} rows to {args.csv}")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2)
        print(f"\nwrote {args.json_out}")
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    """Render a timeline that ``serve --timeline --export`` recorded."""
    from repro.obs import load_timeline_jsonl, render_dashboard

    header, store = load_timeline_jsonl(args.file)
    trailer = header.get("trailer", {})
    print(
        f"loaded {args.file}: schema {header['schema']}, "
        f"{len(store)} samples, {len(store.columns)} columns, "
        f"stride {store.stride}"
    )
    if trailer.get("digest"):
        print(f"digest {trailer['digest']}")
    print()
    print(render_dashboard(store, tenant=args.tenant, source=args.source, width=args.width))
    return 0


def cmd_bench_diff(args: argparse.Namespace) -> int:
    """Compare two BENCH_*.json records; exit 1 on regression."""
    from repro.obs import bench_diff, load_bench, render_bench_diff

    diff = bench_diff(
        load_bench(args.old),
        load_bench(args.new),
        threshold=args.threshold,
        include_perf=not args.no_perf,
    )
    if args.json:
        print(json.dumps(diff, indent=2))
    else:
        print(render_bench_diff(diff))
    return 1 if diff["verdict"] == "regressed" else 0


def cmd_torture(args: argparse.Namespace) -> int:
    variants = tuple(v for v in args.variants.split(",") if v)
    try:
        check_request(variants, sample=args.sample, nvram=args.nvram)
    except ValueError as exc:
        print(f"torture: {exc}", file=sys.stderr)
        return 2
    result = run_torture(
        args.workload,
        sample=args.sample,
        seed=args.seed,
        workers=args.workers,
        variants=variants,
        exhaustive=args.exhaustive,
        watchdog=args.watchdog,
        flash=args.flash,
        nvram=args.nvram,
    )

    per_variant: dict[str, dict[str, float]] = {}
    for p in result.points:
        stats = per_variant.setdefault(
            p.variant, {"points": 0, "violations": 0, "recovery": 0.0}
        )
        stats["points"] += 1
        stats["violations"] += len(p.violations)
        stats["recovery"] += p.recovery_elapsed
    rows = [
        [
            variant,
            int(stats["points"]),
            int(stats["violations"]),
            f"{stats['recovery'] / stats['points']:.3f}s",
        ]
        for variant, stats in sorted(per_variant.items())
    ]
    print(
        render_table(
            ["variant", "points", "violations", "mean recovery"],
            rows,
            title=(
                f"torture — {args.workload}, {len(result.points)}/"
                f"{result.population} crash points, {result.workers} worker(s), "
                f"{result.wall_seconds:.2f}s wall"
            ),
        )
    )
    print(
        f"stream: {result.total_blocks} blocks; outcome digest "
        f"{result.outcome_digest}; mean recovery "
        f"{result.mean_recovery_seconds:.3f} simulated seconds"
    )
    for p in result.violations:
        print(f"VIOLATION at cut={p.cut} variant={p.variant}:")
        for msg in p.violations:
            print(f"  {msg}")

    if args.json:
        # Points whose fault localized itself (DiskCrashed / MediaError
        # carrying addr+op) are surfaced so a failure in CI names the
        # exact block and operation, not just a digest mismatch.
        fault_sites = [
            {
                "cut": p.cut,
                "variant": p.variant,
                "error_addr": p.error_addr,
                "error_op": p.error_op,
            }
            for p in result.points
            if p.error_addr is not None
        ]
        _record(
            args,
            wall_seconds=result.wall_seconds,
            workers=result.workers,
            steps=len(result.points),
            extra={
                "workload": args.workload,
                "base_seed": args.seed,
                "sample": len(result.points),
                "population": result.population,
                "total_blocks": result.total_blocks,
                "variants": list(variants),
                "flash": args.flash,
                "nvram": args.nvram,
                "violations": result.violation_count,
                "mean_recovery_seconds": round(result.mean_recovery_seconds, 6),
                "outcome_digest": result.outcome_digest,
                "fault_sites": fault_sites,
            },
        )
    return 1 if result.violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Operate on log-structured file system disk images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_observed_workload(p: argparse.ArgumentParser, *, ring: int, ring_help: str) -> None:
        p.add_argument("--workload", default="smallfile", choices=OBSERVED_WORKLOADS)
        p.add_argument("--files", type=int, default=2000, help="files for the smallfile workload")
        p.add_argument("--file-mb", type=int, default=4, help="file size (MB) for the largefile workload")
        p.add_argument("--flash", action="store_true", help="run smallfile or largefile on the NAND flash profile (a report gains a flash wear/TRIM section)")
        p.add_argument("--ring", type=int, default=ring, help=ring_help)

    p = sub.add_parser("mkfs", help="create a fresh file system image")
    p.add_argument("image")
    p.add_argument("--size-mb", type=int, default=64)
    p.add_argument("--segment-kb", type=int, default=512)
    p.set_defaults(func=cmd_mkfs)

    p = sub.add_parser("ls", help="list a directory")
    p.add_argument("image")
    p.add_argument("path", nargs="?", default="/")
    p.set_defaults(func=cmd_ls)

    p = sub.add_parser("put", help="copy a host file into the image")
    p.add_argument("image")
    p.add_argument("local")
    p.add_argument("path")
    p.set_defaults(func=cmd_put)

    p = sub.add_parser("get", help="copy a file out of the image")
    p.add_argument("image")
    p.add_argument("path")
    p.add_argument("local", nargs="?")
    p.set_defaults(func=cmd_get)

    p = sub.add_parser("rm", help="remove a file or empty directory")
    p.add_argument("image")
    p.add_argument("path")
    p.set_defaults(func=cmd_rm)

    p = sub.add_parser("mkdir", help="create a directory")
    p.add_argument("image")
    p.add_argument("path")
    p.set_defaults(func=cmd_mkdir)

    p = sub.add_parser("stats", help="show file-system statistics")
    p.add_argument("image")
    p.add_argument("--json", action="store_true", help="print a metrics-registry snapshot as JSON")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "trace",
        help="run a workload under the event tracer",
        description=(
            "Run a live workload with the observability layer attached and "
            "print the event counts, the disk-time attribution, and the "
            "Table 2 / Table 4 numbers from the cleaner and log-writer "
            "counters."
        ),
    )
    add_observed_workload(p, ring=0, ring_help="ring capacity (0 = unbounded, the default)")
    p.add_argument("--jsonl", default=None, help="write the trace through to this JSONL file")
    p.add_argument("--spans", action="store_true", help="render the span tree (durations + per-cause breakdown)")
    p.add_argument("--kind", default=None, help="only print events of this kind (e.g. clean.segment)")
    p.add_argument("--cause", default=None, help="only print events charged to this attribution cause")
    p.add_argument("--since", type=float, default=None, metavar="T", help="only print events at simulated time >= T")
    p.add_argument("--load", default=None, metavar="FILE", help="render a previously exported JSONL trace instead of running a workload")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "fsck",
        help="offline integrity check",
        description=(
            "Check an image without mounting it. Exit status: 0 clean, "
            "1 inconsistencies found, 2 image unreadable — so scripts and "
            "CI can shell out and branch on the result."
        ),
    )
    p.add_argument("image")
    p.add_argument("--json", action="store_true", help="print the report as JSON")
    p.set_defaults(func=cmd_fsck)

    p = sub.add_parser(
        "scrub",
        help="patrol-read the log and verify every recorded checksum",
        description=(
            "Mount an image and re-read every partial write in the log, "
            "verifying the summary CRCs and the per-block checksums, so "
            "silent bit-rot and latent sector errors surface before the "
            "data is needed. With --rescue, damaged segments have their "
            "still-verifiable live blocks rewritten to the log head and "
            "are quarantined. Exit status: 0 clean, 1 damage found."
        ),
    )
    p.add_argument("image")
    p.add_argument("--rescue", action="store_true", help="salvage and quarantine damaged segments")
    p.add_argument("--json", action="store_true", help="print the report as JSON")
    p.set_defaults(func=cmd_scrub)

    p = sub.add_parser("dump", help="inspect on-disk structures")
    p.add_argument("image")
    p.add_argument("--segment", type=int)
    p.add_argument("--checkpoints", action="store_true")
    p.set_defaults(func=cmd_dump)

    def add_sweep_grid(p: argparse.ArgumentParser) -> None:
        p.add_argument("--utils", default="0.2,0.4,0.6,0.75,0.8,0.9", help="comma-separated disk utilizations")
        p.add_argument("--policies", default="greedy,cost-benefit", help="comma-separated selection policies")
        p.add_argument("--grouping", default="age-sort", help="comma-separated grouping policies (none, age-sort)")
        p.add_argument("--patterns", default="uniform,hot-cold", help="comma-separated access patterns (uniform, hot-cold, hot-cold:H/A)")
        p.add_argument("--segments", type=int, default=100, help="segments on the simulated disk")
        p.add_argument("--blocks", type=int, default=128, help="blocks per segment")
        p.add_argument("--warmup-factor", type=float, default=8.0)
        p.add_argument("--measure-factor", type=float, default=4.0)
        p.add_argument("--max-windows", type=int, default=25)
        p.add_argument("--seed", type=int, default=42, help="base seed; per-point seeds derive from it")

    p = sub.add_parser(
        "sweep",
        help="run a cleaning-simulator sweep across a process pool",
        description=(
            "Sweep the Section 3.5 cleaning simulator over utilization x "
            "policy x grouping x pattern. Points run in parallel across a "
            "process pool; per-point seeds derive deterministically from "
            "--seed, so the same invocation always reproduces the same "
            "write costs regardless of worker count."
        ),
    )
    add_sweep_grid(p)
    p.add_argument("--workers", type=int, default=None, help="process-pool size (default: $REPRO_SWEEP_WORKERS or cpu count)")
    p.add_argument("--json", default=None, help="record a BENCH_*.json here (file or directory)")
    p.add_argument("--bench-name", default="sweep", help="bench name used in the JSON record")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "profile",
        help="run a sweep under cProfile and rank the hotspots",
        description=(
            "Run the same grid as `sweep` in-process under cProfile and "
            "print the ranked hotspot report — the tool that found the "
            "simulator's per-step and per-pass costs. --out dumps "
            "the raw pstats file for offline viewers."
        ),
    )
    add_sweep_grid(p)
    p.add_argument("--sort", default="tottime", choices=("tottime", "cumulative", "ncalls"), help="stat used to rank the report")
    p.add_argument("--limit", type=int, default=25, help="rows to print")
    p.add_argument("--out", default=None, help="also dump raw pstats data to this path")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "torture",
        help="crash-consistency torture: explore crash points in parallel",
        description=(
            "Record a workload's write stream once, then replay it to many "
            "crash points (clean cuts, torn blocks, reordered requests), "
            "run recovery at each, and verify the recovered namespace "
            "against a durability oracle plus a full lfsck. The 'media' "
            "variant instead replays the whole stream, ages the platter "
            "with seeded bit-rot / latent / transient faults, and verifies "
            "no read ever returns silently wrong data. Deterministic: the "
            "same --seed explores the same points with the same faults "
            "at any worker count. Exit 1 on any oracle violation, 2 on "
            "bad input."
        ),
    )
    p.add_argument("--workload", default="smallfile", choices=WORKLOADS)
    p.add_argument("--sample", type=int, default=200, help="crash points to draw (population = cuts x variants)")
    p.add_argument("--exhaustive", action="store_true", help="explore every crash point, ignoring --sample")
    p.add_argument("--variants", default=",".join(FAULT_MODES), help=f"comma-separated fault modes to explore (available: {','.join(TORTURE_MODES)})")
    p.add_argument("--seed", type=int, default=0, help="base seed; sample and per-point fault seeds derive from it")
    p.add_argument("--workers", type=int, default=None, help="process-pool size (default: $REPRO_SWEEP_WORKERS or cpu count)")
    p.add_argument("--json", default=None, help="record a BENCH_<name>.json here (file or directory)")
    p.add_argument("--bench-name", default="torture", help="bench name used in the JSON record")
    p.add_argument("--watchdog", action="store_true", help="run every point under the invariant watchdog (raises on any broken invariant; outcomes unchanged otherwise)")
    p.add_argument("--flash", action="store_true", help="record the workload on the NAND flash profile (erase-aware device, hot/cold segregation, wear leveling) instead of the Wren IV")
    p.add_argument("--nvram", action="store_true", help="record with the NVM staging board attached: crash cuts enumerate interleaved disk/NVM durable prefixes, and the nvm-media / nvm-dead variants become available")
    p.set_defaults(func=cmd_torture)

    p = sub.add_parser(
        "heatmap",
        help="ASCII per-segment utilization map of an image",
        description=(
            "Mount an image and render every segment as one glyph: "
            "utilization deciles .123456789#, _ for clean, Q for "
            "quarantined, * for the current log tail — the log's shape "
            "at a glance."
        ),
    )
    p.add_argument("image")
    p.add_argument("--width", type=int, default=64, help="segments per row")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser(
        "report",
        help="run a workload under the full observatory and print a run report",
        description=(
            "Run a workload with the tracer, time attribution and "
            "invariant watchdog attached, then print one consolidated "
            "report: write cost, busy-time by cause, live bytes from the "
            "usage table, cleaning distributions (Figure 6 / Table 2 from "
            "the cleaner's counters), and the device's flash and NVM "
            "counters. --json-out also writes the report as JSON for "
            "archiving or diffing."
        ),
    )
    add_observed_workload(p, ring=4096, ring_help="ring capacity (0 = unbounded)")
    p.add_argument("--timeline", action="store_true", help="attach the flight recorder; the report gains a timeline section")
    p.add_argument("--timeline-cadence", type=float, default=0.05, help="flight-recorder cadence in simulated seconds")
    p.add_argument("--json-out", default=None, help="also write the report as JSON to this path")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant file server experiment",
        description=(
            "Serve a simulated client population through the event-loop "
            "front-end: per-tenant namespaces, a pluggable admission "
            "policy (FIFO or deficit round-robin), background cleaner "
            "passes and checkpoints interleaved as loop events, and "
            "latency histograms per tenant. --timeline attaches the "
            "flight recorder, prints its dashboard and can --export it "
            "for `repro timeline`. Deterministic: the same --seed "
            "reproduces the same event order and the same digests "
            "(timeline included), bit for bit."
        ),
    )
    p.add_argument("--clients", type=int, default=1000, help="simulated clients")
    p.add_argument("--tenants", type=int, default=4, help="tenants (clients assigned round-robin)")
    p.add_argument("--ops", type=int, default=4, help="measured requests per client after setup")
    p.add_argument("--files", type=int, default=2, help="working-set files per client")
    p.add_argument("--file-size", type=int, default=1024, help="file / write payload bytes")
    p.add_argument("--mode", default="closed", choices=("closed", "open"), help="closed-loop (think time) or open-loop (fixed rate) arrivals")
    p.add_argument("--think", type=float, default=0.25, help="closed-loop mean think seconds")
    p.add_argument("--heavy-fraction", type=float, default=0.0, help="fraction of clients concentrated on tenant 0 (aggressor-tenant runs)")
    p.add_argument("--policy", default="fifo", choices=("fifo", "drr"), help="admission policy")
    p.add_argument("--quantum", type=float, default=8.0, help="DRR quantum in cost units (KB)")
    p.add_argument("--no-cleaner", action="store_true", help="disable background cleaner passes (emergency cleaning only)")
    p.add_argument("--sync-writes", action="store_true", help="commit every mutating request with a per-handle fsync (mail-server pattern)")
    p.add_argument("--nvram", action="store_true", help="attach an NVM staging board so those fsyncs are absorbed as staging appends")
    p.add_argument("--seed", type=int, default=42, help="workload seed")
    p.add_argument("--watchdog", action="store_true", help="attach the invariant watchdog")
    p.add_argument("--timeline", action="store_true", help="attach the flight recorder and print its dashboard (its summary rides in --json-out)")
    p.add_argument("--timeline-cadence", type=float, default=0.25, help="flight-recorder cadence in simulated seconds")
    p.add_argument("--slo-latency", type=float, default=0.0, help="per-request latency SLO threshold in simulated seconds for burn-rate tracking (0 = off)")
    p.add_argument("--width", type=int, default=64, help="dashboard sparkline width in characters")
    p.add_argument("--export", default=None, metavar="FILE", help="export the timeline as framed JSONL (needs --timeline)")
    p.add_argument("--csv", default=None, metavar="FILE", help="export the timeline as CSV (needs --timeline)")
    p.add_argument("--json-out", default=None, help="write the full result as JSON to this path")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "timeline",
        help="render a flight-recorder timeline exported by serve --timeline",
        description=(
            "Render a JSONL timeline that `repro serve --timeline "
            "--export FILE` recorded: every metrics source plus derived "
            "gauges (instantaneous write cost, cleaner share, cache hit "
            "rate, per-tenant windowed latency percentiles) sampled on a "
            "simulated-time cadence, SLO burn rates, and annotated phases "
            "(cleaning storms, read-only degradation, NVM destage "
            "stalls), as ASCII sparkline dashboards. --tenant/--source "
            "focus them. Exit 2 when the file cannot be parsed."
        ),
    )
    p.add_argument("file", help="a timeline exported with serve --timeline --export")
    focus = p.add_mutually_exclusive_group()
    focus.add_argument("--tenant", default=None, help="focus the dashboard on one tenant's latency/SLO rows")
    focus.add_argument("--source", default=None, help="focus the dashboard on one metrics source (e.g. cleaner, cache)")
    p.add_argument("--width", type=int, default=64, help="sparkline width in characters")
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser(
        "bench-diff",
        help="compare two BENCH_*.json records and issue a verdict",
        description=(
            "Diff two benchmark records metric by metric. Metrics with a "
            "known better-direction get regressed/improved/unchanged "
            "verdicts (beyond --threshold, relative); exact counters like "
            "violations regress on any increase; everything else is "
            "informational. Exit status: 0 ok, 1 regression, 2 unreadable "
            "input. --no-perf makes wall-clock-dependent metrics "
            "informational, for records from different machines."
        ),
    )
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--threshold", type=float, default=0.05, help="relative change needed for a verdict (default 5%%)")
    p.add_argument("--no-perf", action="store_true", help="wall-clock metrics (steps/s, wall seconds) become informational")
    p.add_argument("--json", action="store_true", help="print the diff as JSON")
    p.set_defaults(func=cmd_bench_diff)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command. A record file (trace, timeline, BENCH) that
    cannot be read exits 2 with the reason on stderr."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
