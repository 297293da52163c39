"""Outside-in span recorder for the traced benchmark run.

Spans are recorded around the public entry points of each ``polystl``
module, from the benchmark's side: every binding site of a wrapped
function (including names bound by ``from ... import``) is patched while
the recorder is installed and restored afterwards. Nothing inside
``src/`` changes, and an untraced run installs nothing.

Only layer entry points are wrapped. Per-sample kernels such as
``point_segment_distance`` and the tape arithmetic run hundreds of
thousands of times per optimizer iteration; a span around each would
measure the recorder, not the program.

A span is ``[name, start_ns, end_ns, parent, run, tag]``; ``parent`` is
``(thread, index)`` of the enclosing span. Each thread appends to its own
list, so the ``accuracy`` worker pool records without contention; a
worker's outermost span is parented to the span the main thread has open
(the sweep that fans the work out). CPython collections are recorded as
``gc.collect`` spans through ``gc.callbacks``, in the thread that
triggered them.
"""
from __future__ import annotations

import csv
import functools
import gc
import importlib
import math
import os
import statistics
import sys
import threading
from time import perf_counter_ns, thread_time_ns

# (module, attribute, span name, tag kind). The layer of a span is the
# part of its name before the first dot.
ENTRY_POINTS = [
    ("polystl.cli", "main", "cli.main", None),
    ("polystl.optimize", "optimize", "optimize.optimize", "iterations"),
    ("polystl.optimize", "build_trajectory", "optimize.build_trajectory", None),
    ("polystl.formulas", "parse", "formulas.parse", None),
    ("polystl.formulas", "eval_smooth", "formulas.eval_smooth", "tape_result"),
    ("polystl.formulas", "eval_exact", "formulas.eval_exact", None),
    ("polystl.formulas", "satisfies", "formulas.satisfies", None),
    ("polystl.formulas", "smoothing_budget", "formulas.smoothing_budget", None),
    ("polystl.predicates", "atom_robustness", "predicates.atom", "smooth_flag"),
    ("polystl.geometry", "smooth_polygon_distance", "geometry.distance", "tape_value"),
    ("polystl.geometry", "smooth_sat_penetration", "geometry.penetration", "tape_value"),
    ("polystl.geometry", "point_polygon_signed_distance", "geometry.point_sd", "tape_value"),
    ("polystl.geometry", "signed_clearance", "geometry.clearance", "tape_value"),
    ("polystl.exactgeo", "exact_distance", "exactgeo.distance", None),
    ("polystl.exactgeo", "exact_penetration", "exactgeo.penetration", None),
    ("polystl.exactgeo", "exact_clearance", "exactgeo.clearance", None),
    ("polystl.exactgeo", "exact_point_signed_distance", "exactgeo.point_sd", None),
    ("polystl.exactgeo", "polygon_contains_polygon", "exactgeo.contains", None),
    ("polystl.autodiff", "backward", "autodiff.backward", "adjoints"),
    ("polystl.mining", "make_demo_set", "mining.make_demo_set", None),
    ("polystl.mining", "mine", "mining.mine", "candidates"),
    ("polystl.mining", "discover", "mining.discover", None),
    ("polystl.mining", "learn_margins", "mining.learn_margins", None),
    ("polystl.accuracy", "run_sweep", "accuracy.run_sweep", None),
    ("polystl.accuracy", "_rows_for_pair", "accuracy.pair", "thread_cpu"),
    ("polystl.randgeom", "pair_for_index", "randgeom.pair", None),
    ("polystl.scenario", "load_scenario", "scenario.read", None),
    ("polystl.scenario", "read_trajectory_csv", "scenario.read", None),
    ("polystl.scenario", "read_demo_dir", "scenario.read", None),
    ("polystl.scenario", "write_trajectory_csv", "scenario.write", "bytes"),
    ("polystl.scenario", "write_trace_csv", "scenario.write", "bytes"),
    ("polystl.scenario", "write_accuracy_csv", "scenario.write", "bytes"),
    ("polystl.scenario", "write_accuracy_summary_csv", "scenario.write", "bytes"),
    ("polystl.scenario", "write_mining_csv", "scenario.write", "bytes"),
    ("polystl.scenario", "write_demo_dir", "scenario.write", "bytes"),
    ("polystl.scenario", "write_manifest", "scenario.write", "bytes"),
    ("polystl.render", "write_frames", "render.write_frames", "frames"),
]

LAYERS = ("cli", "optimize", "formulas", "predicates", "geometry", "exactgeo",
          "autodiff", "mining", "accuracy", "randgeom", "scenario", "render",
          "gc", "bench", "trace")


def _is_var(x) -> bool:
    return type(x).__name__ == "Var"


def _file_bytes(args, out) -> int:
    paths = out if isinstance(out, list) else [args[0]]
    return sum(os.path.getsize(p) for p in paths)


def _nonzero_adjoints(out) -> int:
    return sum(1 for a in getattr(out, "adjoints", ()) if a != 0.0)


# Cheap tags are taken right after the call. Costly ones (an O(nodes) scan,
# a stat of every file written) run inside a ``trace.probe`` span, so their
# time is booked to the recorder rather than to the layer that called.
_CHEAP_TAGS = {
    "iterations": lambda args, kwargs, out: getattr(out, "iterations_run", 0),
    "tape_result": lambda args, kwargs, out: (
        len(out.node.tape) if getattr(out, "node", None) is not None else 0),
    "tape_value": lambda args, kwargs, out: _is_var(out),
    "smooth_flag": lambda args, kwargs, out: bool(
        kwargs.get("smooth", args[4] if len(args) > 4 else False)),
    "candidates": lambda args, kwargs, out: getattr(out, "candidates_considered", 0),
    "frames": lambda args, kwargs, out: len(out),
}
_COSTLY_TAGS = {
    "adjoints": lambda args, kwargs, out: (len(args[0].tape), _nonzero_adjoints(out)),
    "bytes": lambda args, kwargs, out: _file_bytes(args, out),
}


class _ThreadState:
    __slots__ = ("index", "spans", "stack")

    def __init__(self, index: int) -> None:
        self.index = index
        self.spans: list[list] = []
        self.stack: list[tuple[int, int]] = []


class Recorder:
    """In-memory span store; thread-safe for the ``accuracy`` pool."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.threads: list[_ThreadState] = []
        self.run = 0
        self._main = self._state()
        self._patched: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self.threads))
                self.threads.append(st)
            self._local.st = st
        return st

    def _parent(self, st: _ThreadState):
        if st.stack:
            return st.stack[-1]
        main = self._main.stack
        return main[-1] if (st is not self._main and main) else None

    def open(self, name: str) -> list:
        st = self._state()
        span = [name, 0, 0, self._parent(st), self.run, None]
        # the index is taken before the tuple below is allocated: that
        # allocation can trigger a collection, whose span lands after ours
        index = len(st.spans)
        st.spans.append(span)
        st.stack.append((st.index, index))
        span[1] = perf_counter_ns()
        return span

    def close(self, span: list) -> None:
        span[2] = perf_counter_ns()
        self._state().stack.pop()

    def wrap(self, name: str, fn, tag_kind):
        cheap = _CHEAP_TAGS.get(tag_kind)
        costly = _COSTLY_TAGS.get(tag_kind)

        if tag_kind == "thread_cpu":
            # CPU time of the calling thread: in the accuracy pool the gap
            # between it and the span's wall time is time spent waiting on
            # the interpreter lock
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                span = self.open(name)
                cpu = thread_time_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[5] = thread_time_ns() - cpu
                    self.close(span)
            return timed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if cheap is not None:
                span[5] = cheap(args, kwargs, out)
            elif costly is not None:
                probe = self.open("trace.probe")
                try:
                    span[5] = costly(args, kwargs, out)
                finally:
                    self.close(probe)
            return out

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.open("gc.collect")[5] = info.get("generation")
        else:
            st = self._state()
            _, i = st.stack[-1]
            self.close(st.spans[i])

    def install(self) -> None:
        """Patch every binding site of every entry point in ``polystl``."""
        loaded = [m for name, m in sys.modules.items()
                  if name == "polystl" or name.startswith("polystl.")]
        for modname, attr, name, tag_kind in ENTRY_POINTS:
            module = importlib.import_module(modname)
            original = getattr(module, attr, None)
            if original is None:
                continue   # entry point gone in this version of the program
            wrapped = self.wrap(name, original, tag_kind)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        self._patched.append((m, key, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()

    def all_spans(self):
        """(thread, index, span) for every recorded span."""
        for st in self.threads:
            for i, span in enumerate(st.spans):
                yield st.index, i, span

    def write_csv(self, path: str, append: bool) -> None:
        """Write every span; ``append`` adds to the spans of earlier passes."""
        with open(path, "a" if append else "w", newline="") as fh:
            w = csv.writer(fh)
            if not append:
                w.writerow(["run", "thread", "span", "parent_thread", "parent_span",
                            "name", "start_ns", "end_ns"])
            for th, i, (name, start, end, parent, run, _) in self.all_spans():
                pt, pi = parent if parent is not None else ("", "")
                w.writerow([run, th, i, pt, pi, name, start, end])


# -- derived per-layer metrics ----------------------------------------------------


def percentile(xs, q: float) -> float:
    """Inclusive quantile ``q`` of xs; 0 for an empty list."""
    if not xs:
        return 0.0
    if len(xs) == 1:
        return float(xs[0])
    return statistics.quantiles(xs, n=100, method="inclusive")[round(q * 100) - 1]


def self_times(rec: Recorder) -> dict[tuple[int, int], int]:
    """Span duration minus the part its same-thread children cover (ns).

    Children in other threads (pool workers under the sweep) overlap the
    parent's wait and are not subtracted; they carry their own self time.
    """
    own = {}
    for th, i, span in rec.all_spans():
        own[(th, i)] = span[2] - span[1]
    for th, i, span in rec.all_spans():
        parent = span[3]
        if parent is not None and parent[0] == th:
            own[parent] -= span[2] - span[1]
    return own


def first_iteration_nodes(rec: Recorder) -> dict[int, dict[str, int]]:
    """Tape sizes in the first iteration of each optimize call, by run:
    after the formula's forward pass, and at the backward sweep (which
    adds the hinge and the smoothness penalty)."""
    first: dict[tuple, list] = {}
    for _, _, s in rec.all_spans():
        kind = {"formulas.eval_smooth": "forward", "autodiff.backward": "backward"}.get(s[0])
        if kind and s[5] and s[3] is not None:
            key = (s[3], kind)
            if key not in first or s[1] < first[key][1]:
                first[key] = s
    out: dict[int, dict[str, int]] = {}
    for th, i, s in rec.all_spans():
        if s[0] == "optimize.optimize":
            forward, backward = first.get(((th, i), "forward")), first.get(((th, i), "backward"))
            if forward and backward:
                out[s[4]] = {"forward_nodes": forward[5], "tape_nodes": backward[5][0]}
    return out


def layer_metrics(rec: Recorder, roots: list) -> tuple[dict, dict]:
    """(metrics, consistency) from one traced pass, one root span per command.

    metrics maps name -> (value, unit). consistency compares the sum of
    the main thread's self times with the root spans' total duration.
    """
    own = self_times(rec)
    spans = list(rec.all_spans())
    by_name: dict[str, list] = {}
    for th, i, span in spans:
        by_name.setdefault(span[0], []).append((th, i, span))

    def dur(s):
        return s[2] - s[1]

    def ms(ns):
        return ns / 1e6

    def inclusive_ms(name):
        return ms(sum(dur(s) for _, _, s in by_name.get(name, [])))

    m: dict[str, tuple[float, str]] = {}
    self_by_layer = {layer: 0 for layer in LAYERS}
    main_self = 0
    for th, i, span in spans:
        layer = span[0].split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0) + own[(th, i)]
        if th == rec._main.index:
            main_self += own[(th, i)]
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (ms(self_by_layer[layer]), "ms")

    # autodiff: one backward sweep per optimizer iteration / per mining tape
    bw = [s for _, _, s in by_name.get("autodiff.backward", [])]
    nodes = sum(s[5][0] for s in bw if s[5])
    useful = sum(s[5][1] for s in bw if s[5])
    m["autodiff.backward.calls"] = (len(bw), "count")
    m["autodiff.backward.ms"] = (ms(sum(dur(s) for s in bw)), "ms")
    m["autodiff.tape_nodes"] = (nodes / len(bw) if bw else 0.0, "count")
    m["autodiff.useful_node_ratio"] = (useful / nodes if nodes else 0.0, "ratio")

    # geometry kernels, split by tape (Var) and float mode
    for kernel in ("distance", "penetration", "point_sd"):
        calls = [s for _, _, s in by_name.get(f"geometry.{kernel}", [])]
        tape = [dur(s) / 1e3 for s in calls if s[5]]
        flt = [dur(s) / 1e3 for s in calls if not s[5]]
        m[f"geometry.{kernel}.calls"] = (len(calls), "count")
        m[f"geometry.{kernel}.tape_us_p50"] = (percentile(tape, 0.5), "us")
        m[f"geometry.{kernel}.float_us_p50"] = (percentile(flt, 0.5), "us")

    # exactgeo: entries from other layers (nested exactgeo calls excluded)
    flat = {(th, i): s for th, i, s in spans}
    entries = 0
    for th, i, s in spans:
        if s[0].startswith("exactgeo."):
            parent = flat.get(s[3]) if s[3] is not None else None
            if parent is None or not parent[0].startswith("exactgeo."):
                entries += 1
    m["exactgeo.calls"] = (entries, "count")

    atoms = [s for _, _, s in by_name.get("predicates.atom", [])]
    m["predicates.atom.smooth_calls"] = (sum(1 for s in atoms if s[5]), "count")
    m["predicates.atom.exact_calls"] = (sum(1 for s in atoms if not s[5]), "count")

    smooth = [s for _, _, s in by_name.get("formulas.eval_smooth", [])]
    m["formulas.eval_smooth.tape_ms"] = (ms(sum(dur(s) for s in smooth if s[5])), "ms")
    m["formulas.eval_smooth.float_ms"] = (ms(sum(dur(s) for s in smooth if not s[5])), "ms")
    m["formulas.eval_exact.calls"] = (len(by_name.get("formulas.eval_exact", [])), "count")
    m["formulas.eval_exact.ms"] = (inclusive_ms("formulas.eval_exact"), "ms")
    m["formulas.satisfies.ms"] = (inclusive_ms("formulas.satisfies"), "ms")

    # optimizer iterations: from one tape forward pass to the next
    iters = []
    total_iterations = 0
    for th, i, s in by_name.get("optimize.optimize", []):
        total_iterations += s[5] or 0
        starts = sorted(c[1] for c in smooth
                        if c[5] and c[3] == (th, i))
        bounds = starts + [s[2]]
        iters += [(b - a) / 1e6 for a, b in zip(bounds, bounds[1:])]
    m["optimize.iterations"] = (total_iterations, "count")
    m["optimize.iter_ms_p50"] = (percentile(iters, 0.5), "ms")
    m["optimize.iter_ms_p90"] = (percentile(iters, 0.9), "ms")

    mines = by_name.get("mining.mine", [])
    m["mining.discover.ms"] = (inclusive_ms("mining.discover"), "ms")
    m["mining.learn_margins.ms"] = (inclusive_ms("mining.learn_margins"), "ms")
    m["mining.candidates"] = (sum(s[5] or 0 for _, _, s in mines), "count")

    pairs = by_name.get("accuracy.pair", [])
    pair_ms = [dur(s) / 1e6 for _, _, s in pairs]
    pair_cpu_ms = sum(s[5] or 0 for _, _, s in pairs) / 1e6
    threads = len({th for th, _, _ in pairs})
    sweep_ms = inclusive_ms("accuracy.run_sweep")
    m["accuracy.pair_ms_p50"] = (percentile(pair_ms, 0.5), "ms")
    m["accuracy.threads"] = (threads, "count")
    m["accuracy.busy_ratio"] = (
        pair_cpu_ms / (sweep_ms * threads) if threads and sweep_ms else 0.0, "ratio")

    m["randgeom.ms"] = (inclusive_ms("randgeom.pair"), "ms")
    m["scenario.read.ms"] = (inclusive_ms("scenario.read"), "ms")
    m["scenario.write.ms"] = (inclusive_ms("scenario.write"), "ms")
    m["scenario.bytes_written"] = (
        sum(s[5] or 0 for _, _, s in by_name.get("scenario.write", [])), "B")
    frames = by_name.get("render.write_frames", [])
    m["render.ms"] = (inclusive_ms("render.write_frames"), "ms")
    m["render.frames"] = (sum(s[5] or 0 for _, _, s in frames), "count")

    collections = by_name.get("gc.collect", [])
    m["gc.ms"] = (inclusive_ms("gc.collect"), "ms")
    m["gc.gen2_collections"] = (sum(1 for _, _, s in collections if s[5] == 2), "count")

    root_ns = sum(r[2] - r[1] for r in roots)
    consistency = {
        "root_ms": ms(root_ns),
        "main_thread_self_sum_ms": ms(main_self),
        "unaccounted_ms": ms(root_ns - main_self),
        "spans": len(spans),
        "threads": len(rec.threads),
        "ok": abs(root_ns - main_self) <= max(1000, root_ns * 1e-9)
              and all(math.isfinite(v) for v, _ in m.values()),
    }
    return m, consistency
