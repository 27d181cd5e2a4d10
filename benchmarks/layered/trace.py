"""Outside-in span tracer: wraps public callables at class level.

The traced run patches the callables named in :data:`LAYERS` on their
classes (or modules), records one span per call into flat in-memory
arrays, and derives per-layer self time afterwards: a layer's self time
is the duration of its spans minus the part their child spans cover.
Nothing under ``src/`` changes; :meth:`Tracer.uninstall` puts every
original back.

A target that no longer exists does not stop the run. Its layer is marked
incomplete and every metric of that layer is reported as ``None``, so a
refactor that renames a wrapped callable shows up as a gap with a warning
and never as a wrong number.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

HARNESS = "harness"

#: layer -> [(module, class or None, attribute)], outermost layers first
LAYERS: dict[str, list[tuple[str, str | None, str]]] = {
    "server": [("repro.server.loop", "EventLoop", "run")],
    "server.policies": [
        ("repro.server.policies", "FIFOQueue", "push"),
        ("repro.server.policies", "FIFOQueue", "pop"),
        ("repro.server.policies", "DRRQueue", "push"),
        ("repro.server.policies", "DRRQueue", "pop"),
    ],
    "server.clients": [
        ("repro.server.clients", "Client", "next_request"),
        ("repro.server.clients", "LoadGenerator", "on_complete"),
    ],
    "vfs": [
        ("repro.vfs", "FileSystemView", "open"),
        ("repro.vfs", "FileSystemView", "remove"),
        ("repro.vfs", "FileHandle", "read"),
        ("repro.vfs", "FileHandle", "write"),
        ("repro.vfs", "FileHandle", "fsync"),
        ("repro.vfs", "FileHandle", "close"),
    ],
    "core.filesystem.ops": [
        ("repro.core.filesystem", "LFS", name)
        for name in (
            "create", "mkdir", "write_inum", "write_file", "read",
            "read_inum", "unlink", "truncate", "stat", "exists",
        )
    ],
    "core.filesystem.flush": [
        ("repro.core.filesystem", "LFS", "flush"),
        ("repro.core.filesystem", "LFS", "sync"),
    ],
    "core.filesystem.checkpoint": [
        ("repro.core.filesystem", "LFS", "checkpoint"),
        ("repro.core.filesystem", None, "write_checkpoint"),
    ],
    "core.segments": [("repro.core.segments", "LogWriter", "append")],
    "core.cleaner": [("repro.core.cleaner", "Cleaner", "clean")],
    "core.summary": [
        ("repro.core.summary", "SegmentSummary", "pack"),
        ("repro.core.summary", "SegmentSummary", "unpack"),
    ],
    "core.recovery": [("repro.core.filesystem", "LFS", "mount")],
    "disk.device": [
        ("repro.disk.device", "Disk", name)
        for name in ("read_block", "read_blocks", "write_block",
                     "write_blocks", "view", "trim")
    ],
    "obs": [("repro.obs.observation", "Observation", "emit")],
}


def _sim_now(owner) -> float:
    """Simulated time as seen from an ``LFS`` or a ``Cleaner``."""
    fs = getattr(owner, "fs", owner)
    return fs.disk.clock.now


class Tracer:
    """Span store plus the counters taken at the wrapped boundaries.

    Spans live in parallel arrays (name id, parent index, workload op id,
    start, end) so a million of them cost tens of megabytes, not hundreds.
    ``op`` is set by the workload driver before each operation and copied
    into every span begun under it.
    """

    def __init__(self) -> None:
        self.names: list[str] = []          # name id -> "layer:Class.attr"
        self.name_layer: list[str] = []     # name id -> layer
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.current = -1
        self.op = -1
        #: layers with a target that could not be wrapped
        self.incomplete: set[str] = set()
        self.warnings: list[str] = []
        self.counts: dict[str, float] = {}
        self._clean_depth = 0
        self._mount_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans

    def _name_id(self, layer: str, label: str) -> int:
        self.names.append(f"{layer}:{label}")
        self.name_layer.append(layer)
        return len(self.names) - 1

    def begin(self, name_id: int) -> int:
        """Open a span by hand (the harness's own regions)."""
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.current)
        self.span_op.append(self.op)
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self.current = idx
        return idx

    def end(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self.current = self.span_parent[idx]

    def harness_span(self, label: str) -> int:
        return self.begin(self._name_id(HARNESS, label))

    def _wrap(self, orig, name_id: int, count=None):
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(tracer.current)
            ops.append(tracer.op)
            ends.append(0.0)
            tracer.current = idx
            starts.append(perf_counter())
            try:
                result = orig(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                tracer.current = parents[idx]
            if count is not None:
                count(args, kwargs, result)
            return result

        traced.__wrapped__ = orig
        return traced

    # ------------------------------------------------------------------
    # counters, taken from arguments and return values only

    def _add(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _counter_for(self, layer: str, attr: str):
        add = self._add
        if layer == "disk.device" and attr in ("read_block", "read_blocks"):
            def count(args, kwargs, result):
                n = 1 if attr == "read_block" else (
                    args[2] if len(args) > 2 else kwargs["count"])
                add("disk.device.read_calls")
                add("disk.device.blocks_read", n)
                if self._clean_depth:
                    add("core.cleaner.blocks_read", n)
                if self._mount_depth:
                    add("core.recovery.blocks_read", n)
            return count
        if layer == "disk.device" and attr in ("write_block", "write_blocks"):
            def count(args, kwargs, result):
                n = 1 if attr == "write_block" else len(
                    args[2] if len(args) > 2 else kwargs["blocks"])
                add("disk.device.write_calls")
                add("disk.device.blocks_written", n)
            return count
        if layer == "core.segments":
            def count(args, kwargs, result):
                items = args[1] if len(args) > 1 else kwargs["items"]
                add("core.segments.appends")
                add("core.segments.items_logged", len(items))
                if kwargs.get("cleaning"):
                    add("core.cleaner.blocks_rewritten", len(items))
            return count
        if layer == "vfs" and attr == "open":
            return lambda args, kwargs, result: add("vfs.opens")
        if layer == "obs":
            return lambda args, kwargs, result: add("obs.emits")
        return None

    def _sim_timed(self, orig, total_key: str, longest_key: str | None = None):
        """Wrap ``orig`` to sum (and optionally take the longest of) the
        simulated seconds spent inside it."""
        add, counts = self._add, self.counts

        def timed(owner, *args, **kwargs):
            before = _sim_now(owner)
            try:
                return orig(owner, *args, **kwargs)
            finally:
                spent = _sim_now(owner) - before
                add(total_key, spent)
                if longest_key and spent > counts.get(longest_key, 0.0):
                    counts[longest_key] = spent

        return timed

    def _counted_clean(self, orig):
        """``Cleaner.clean``: calls, segments returned, and the wall seconds
        of outermost calls with everything they cause (flushes, appends,
        disk requests), which self time leaves to those layers."""
        add = self._add

        def clean(cleaner, *args, **kwargs):
            outermost = self._clean_depth == 0
            self._clean_depth += 1
            start = perf_counter()
            try:
                cleaned = orig(cleaner, *args, **kwargs)
            finally:
                self._clean_depth -= 1
                if outermost:
                    add("core.cleaner.wall_s", perf_counter() - start)
            add("core.cleaner.clean_calls")
            add("core.cleaner.segments_cleaned", cleaned)
            return cleaned

        return clean

    # ------------------------------------------------------------------
    # installation

    def install(self, layers: dict[str, list[tuple[str, str | None, str]]] = LAYERS) -> None:
        for layer, targets in layers.items():
            for module_name, class_name, attr in targets:
                try:
                    self._patch(layer, module_name, class_name, attr)
                except (ImportError, AttributeError) as exc:
                    self.incomplete.add(layer)
                    self.warnings.append(
                        f"layer {layer}: cannot wrap "
                        f"{module_name}.{class_name or ''}.{attr} ({exc}); "
                        "its metrics are reported as null"
                    )

    def _patch(self, layer: str, module_name: str, class_name: str | None, attr: str) -> None:
        module = importlib.import_module(module_name)
        holder = getattr(module, class_name) if class_name else module
        raw = vars(holder).get(attr)
        if raw is None:
            raise AttributeError(f"{holder!r} does not define {attr!r}")
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        label = f"{class_name}.{attr}" if class_name else attr

        inner = func
        if layer == "core.cleaner":
            inner = self._counted_clean(self._sim_timed(
                func, "core.cleaner.sim_s", "core.cleaner.max_pass_sim_s"))
        elif (layer, attr) == ("core.filesystem.flush", "flush"):
            inner = self._sim_timed(func, "core.filesystem.flush_sim_s")
        elif (layer, attr) == ("core.filesystem.checkpoint", "checkpoint"):
            inner = self._sim_timed(func, "core.filesystem.checkpoint_sim_s")
        elif layer == "core.recovery":
            inner = self._in_mount(func)
        traced = self._wrap(inner, self._name_id(layer, label),
                            self._counter_for(layer, attr))
        setattr(holder, attr, classmethod(traced) if is_classmethod else traced)
        self._patched.append((holder, attr, raw))

    def _in_mount(self, orig):
        def mount(cls, *args, **kwargs):
            self._mount_depth += 1
            try:
                return orig(cls, *args, **kwargs)
            finally:
                self._mount_depth -= 1

        return mount

    def uninstall(self) -> None:
        while self._patched:
            holder, attr, raw = self._patched.pop()
            setattr(holder, attr, raw)

    # ------------------------------------------------------------------
    # derivation

    def layer_totals(self, first: int = 0, last: int | None = None):
        """Self seconds and calls per layer over spans ``[first, last)``.

        The slice must hold whole trees (a region's spans are contiguous
        because every span begun inside it also ends inside it). Returns
        ``(per layer, calls per span name)``.
        """
        last = len(self.span_name) if last is None else last
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        name_calls = [0] * len(self.names)
        layer_of = self.name_layer
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for idx in range(first, last):
            layer = layer_of[names[idx]]
            name_calls[names[idx]] += 1
            duration = ends[idx] - starts[idx]
            self_s[layer] = self_s.get(layer, 0.0) + duration
            calls[layer] = calls.get(layer, 0) + 1
            parent = parents[idx]
            if parent >= first:
                parent_layer = layer_of[names[parent]]
                self_s[parent_layer] = self_s.get(parent_layer, 0.0) - duration
        out = {}
        for layer in [*LAYERS, HARNESS]:
            if layer in self.incomplete:
                out[layer] = {"self_s": None, "calls": None}
            else:
                out[layer] = {"self_s": self_s.get(layer, 0.0),
                              "calls": calls.get(layer, 0)}
        return out, dict(zip(self.names, name_calls))

    def write_spans(self, path) -> int:
        """Write every span as one tab-separated line; returns the count.

        Line 1 is ``# name ids`` as a JSON list; then
        ``name_id  parent  op  start_s  end_s`` per span.
        """
        import json

        with open(path, "w") as out:
            out.write("# " + json.dumps(self.names) + "\n")
            rows = zip(self.span_name, self.span_parent, self.span_op,
                       self.span_start, self.span_end)
            out.writelines(
                f"{n}\t{p}\t{o}\t{s:.7f}\t{e:.7f}\n" for n, p, o, s, e in rows
            )
        return len(self.span_name)
