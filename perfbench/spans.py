"""Span tracing from outside the library.

``Tracer.install`` replaces the public functions of each library module with
wrappers that record a span (name, start, end, parent) and a few counts
computed from the arguments; ``uninstall`` puts the originals back.  A
function imported by name into another module is replaced there too, so
``bounds.count_walks`` is traced like ``walks.count_walks``.  Spans stay in
memory until the run ends.

Self time is wall-exclusive: a span's self time is its duration minus the
part of it that its children cover, and children that overlap (the worker
threads of a torus sweep) share that covered part in proportion to their
durations.  The self times of all spans therefore add up to the duration of
the root spans.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); attributes with a dot are methods.
TARGETS = (
    ("graphs", "build_graph", "graphs.parse"),
    ("graphs", "parse_graph", "graphs.parse"),
    ("graphs", "load_graph", "graphs.parse"),
    ("graphs", "builtin_graph", "graphs.parse"),
    ("graphs", "index_lattice_check", "graphs.lattice_check"),
    ("graphs", "minimize_bridges", "graphs.gauge_search"),
    ("laurent", "LaurentMatrix.eval_grid", "laurent.eval_grid"),
    ("laurent", "LaurentPoly.eval_grid", "laurent.eval_grid"),
    ("laurent", "LaurentMatrix.power", "laurent.power"),
    ("operators", "symbolic_operator", "operators.assemble"),
    ("operators", "fiber_eigenvalues_grid", "operators.fiber_grid"),
    ("bands", "band_structure", "bands.sweep"),
    ("bands", "power_band_structure", "bands.sweep"),
    ("bands", "dispersion", "bands.sweep"),
    ("bands", "table_from_eigenvalues", "bands.reduce"),
    ("bands", "dispersion_csv", "bands.dispersion_csv"),
    ("walks", "count_walks", "walks.enumerate"),
    ("walks", "weighted_walk_sums", "walks.enumerate"),
    ("walks", "normalized_walk_sums", "walks.enumerate"),
    ("walks", "walk_sums_for_kind", "walks.enumerate"),
    ("walks", "classify", "walks.classify"),
    ("walks", "trace_series", "walks.trace_series"),
    ("bounds", "structural_constants", "bounds.structural"),
    ("bounds", "schrodinger_bounds", "bounds.report"),
    ("bounds", "normalized_bounds", "bounds.report"),
    ("bounds", "adjacency_bounds", "bounds.report"),
    ("bounds", "bounds_for_kind", "bounds.report"),
    ("bounds", "verify_index_lattice", "bounds.verify"),
)


def _fiber_counts(bound, ps):
    npts = int(np.asarray(bound.arguments["points"]).shape[0])
    size = bound.arguments["matrix"].size
    workers = min(ps.operators.worker_count(bound.arguments.get("workers")), max(1, npts))
    return {"operators.kpoints": npts, "operators.stack_bytes": npts * size * size * 16}, {
        "operators.workers": workers
    }


def _walk_counts(mode):
    def count(bound, ps):
        graph, n = bound.arguments["graph"], bound.arguments["n"]
        degrees = graph.degrees
        fanout = max(degrees)
        if mode == "schrodinger":
            raw = [graph.potential[x] - degrees[x] for x in range(graph.num_vertices)]
            if bound.arguments.get("normalize", True):
                raw = [v - min(raw) for v in raw]
            fanout = max(d + (w != 0.0) for d, w in zip(degrees, raw))
        return {"walks.steps": graph.num_vertices * fanout**n}, {}

    return count


def _gauge_counts(bound, ps):
    graph, radius = bound.arguments["graph"], bound.arguments.get("radius", 1)
    free = graph.num_vertices - 1
    return {"graphs.gauge_calls": 1, "graphs.gauge_candidates": (2 * radius + 1) ** (graph.dim * free)}, {}


COUNTERS = {
    "fiber_eigenvalues_grid": _fiber_counts,
    "count_walks": _walk_counts("unit"),
    "weighted_walk_sums": _walk_counts("schrodinger"),
    "normalized_walk_sums": _walk_counts("normalized"),
    "minimize_bridges": _gauge_counts,
}

# Exceptions counted, by the function they leave, as refusals of that layer.
REFUSALS = {
    "count_walks": "walks.cap_refusals",
    "weighted_walk_sums": "walks.cap_refusals",
    "normalized_walk_sums": "walks.cap_refusals",
    "minimize_bridges": "graphs.gauge_cap_refusals",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "cpu")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end, self.parent, self.cpu = name, start, start, parent, None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxes: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._local.stack = self._main_stack
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _parent(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # A worker thread: its first span belongs to the span that is open
            # in the main thread (the sweep that started the pool).
            stack = self._local.stack = []
        if stack:
            return stack, stack[-1]
        return stack, (self._main_stack[-1] if self._main_stack else None)

    def add_span(self, name: str, start: float, end: float):
        span = Span(name, start, None)
        span.end = end
        self.spans.append(span)

    def wrap(self, name, fn, ps, counter=None, refusal=None, cpu=False):
        tracer = self
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, parent = tracer._parent()
            span = Span(name, time.perf_counter(), parent)
            cpu0 = time.process_time() if cpu else 0.0
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if refusal and type(exc).__name__ == "SearchCapExceeded":
                    tracer.counts[refusal] += 1
                raise
            finally:
                span.end = time.perf_counter()
                if cpu:
                    span.cpu = time.process_time() - cpu0
                stack.pop()
                tracer.spans.append(span)
            if counter:
                bound = signature.bind(*args, **kwargs)
                sums, maxes = counter(bound, ps)
                for key, value in sums.items():
                    tracer.counts[key] += value
                for key, value in maxes.items():
                    tracer.maxes[key] = max(tracer.maxes[key], value)
            return result

        return wrapper

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, ps, cli=None):
        """Wrap the library's public functions, and the CLI verbs if ``cli`` is given."""
        import sys

        modules = [m for key, m in sys.modules.items() if key == "periodic_spectra" or key.startswith("periodic_spectra.")]
        for module_name, attr, name in TARGETS:
            module = getattr(ps, module_name)
            leaf = attr.split(".")[-1]
            extra = {
                "counter": COUNTERS.get(leaf),
                "refusal": REFUSALS.get(leaf),
                "cpu": leaf == "fiber_eigenvalues_grid",
            }
            if "." in attr:
                owner = getattr(module, attr.split(".")[0])
                self._patch(owner, leaf, self.wrap(name, getattr(owner, leaf), ps, **extra))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, ps, **extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        self._patch(np.linalg, "eigvalsh", self.wrap("operators.eigvalsh", np.linalg.eigvalsh, ps))
        if cli is not None:
            for command in cli.main.commands.values():
                self._patch(command, "callback", self.wrap("cli.command", command.callback, ps))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def dump(self) -> dict:
        index = {id(span): i for i, span in enumerate(self.spans)}
        return {
            "spans": [
                [s.name, s.start, s.end, index.get(id(s.parent), -1), s.cpu] for s in self.spans
            ],
            "counts": dict(self.counts),
            "maxes": dict(self.maxes),
        }


def _union(intervals):
    total, reach = 0.0, None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def self_times(dumped: dict, window: tuple[float, float] | None = None) -> dict[str, float]:
    """Wall-exclusive self time per span name, for root spans starting in ``window``."""
    spans = dumped["spans"]
    children = defaultdict(list)
    roots = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent < 0:
            if window is None or window[0] <= start < window[1]:
                roots.append(i)
        else:
            children[parent].append(i)
    totals: dict[str, float] = defaultdict(float)
    work = [(i, 1.0) for i in roots]
    while work:
        i, factor = work.pop()
        name, start, end = spans[i][:3]
        kids = children.get(i, [])
        covered = _union([(max(spans[k][1], start), min(spans[k][2], end)) for k in kids])
        totals[name] += factor * (end - start - covered)
        busy = sum(spans[k][2] - spans[k][1] for k in kids)
        share = factor * covered / busy if busy > 0 else factor
        work.extend((k, share) for k in kids)
    return dict(totals)


def cpu_per_wall(dumped: dict) -> float:
    wall = cpu = 0.0
    for name, start, end, _, span_cpu in dumped["spans"]:
        if name == "operators.fiber_grid" and span_cpu is not None:
            wall += end - start
            cpu += span_cpu
    return cpu / wall if wall > 0 else 0.0
