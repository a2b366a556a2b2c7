"""The benchmark's hold on the library: every name perfbench wraps, and every argument it counts.

``perfbench/spans.py`` wraps library functions by module and name and binds
some of their arguments in its counters; ``perfbench/run.py`` warms every
layer up and records the worker budget.  This test loads both files as they
are, installs the tracer, drives every wrapped layer once and uninstalls it.
A wrapped function that is renamed or removed, or a counted argument that
goes, fails here instead of in a benchmark run.  Every traced run also
checks one CLI process, ``run.TRACE_PROBE``, byte for byte against
``perfbench/golden/cli.json``; a library change that moves those bytes fails
here instead of failing one job in every traced run.  Each band table that
the ``sweep`` workload times must equal the unpruned sweep's bit for bit, its
certified flat levels snapped alike, so a pruning change that moves a
benchmarked number fails here too, and its jobs must keep their skips, so one
that solves more points does.
"""

import importlib.util
import inspect
import json
import sys
from pathlib import Path

import periodic_spectra as ps

from conftest import assert_pruned_table_is_the_full_sweep, spy_solved_rows

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Arguments that the counters of perfbench/spans.py read from each call.
COUNTED_ARGUMENTS = {
    "fiber_eigenvalues_grid": {"matrix", "points", "workers"},
    "count_walks": {"graph", "n"},
    "weighted_walk_sums": {"graph", "n"},
    "normalized_walk_sums": {"graph", "n"},
    "minimize_bridges": {"graph"},
}


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sweep_jobs(monkeypatch):
    """The band-table jobs of ``perfbench/inputs.py``'s ``sweep_jobs(1)``, the file loaded as it is."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    # dataclasses look their module up in sys.modules while the file executes.
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)
    spec.loader.exec_module(inputs)
    jobs = [job for job in inputs.sweep_jobs(1) if not job.dump]
    assert jobs
    return [(job, job.graph.to_graph(ps), ps.KGrid(job.graph.dim, job.grid_n)) for job in jobs]


def test_benchmarked_band_tables_equal_the_full_sweep(monkeypatch):
    for job, graph, grid in sweep_jobs(monkeypatch):
        assert_pruned_table_is_the_full_sweep(graph, job.kind, grid)


# Fractions of the half that the level-by-level refinement from stride 8 solved on
# the dispersive jobs; the coarse pass solves 14.0% and 35.5%.  Kagome's certified
# flat band leaves 8.1% to solve.
SOLVED_AT_MOST = {
    "q8r2-schrodinger-400": 0.156,
    "q6r2-normalized_laplacian-200": 0.424,
    "kagome-laplacian-400": 0.09,
}


def test_benchmarked_sweeps_keep_their_skips(monkeypatch):
    jobs = {job.name: (job, graph, grid) for job, graph, grid in sweep_jobs(monkeypatch)}
    for name, limit in SOLVED_AT_MOST.items():
        job, graph, grid = jobs[name]
        with monkeypatch.context() as patch:
            solved = spy_solved_rows(patch, grid)
            solved.append([])
            ps.band_structure(graph, job.kind, grid)
        assert len(set(solved[0])) == len(solved[0]) <= limit * len(grid.half[0]), name


def test_every_wrapped_layer_is_reached_and_counted(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spans, run = load("spans"), load("run")
    assert set(spans.COUNTERS) == set(COUNTED_ARGUMENTS)
    for module, attr, _ in spans.TARGETS:
        leaf = attr.split(".")[-1]
        if leaf in COUNTED_ARGUMENTS:
            params = inspect.signature(getattr(getattr(ps, module), attr)).parameters
            assert COUNTED_ARGUMENTS[leaf] <= set(params), attr

    originals = {name: getattr(ps, name) for name in COUNTED_ARGUMENTS}
    tracer = spans.Tracer()
    tracer.install(ps)
    try:
        run.warm_up(ps)
        kagome = ps.builtin_graph("kagome")
        ps.power_band_structure(kagome, "adjacency", 2, ps.KGrid(2, 4))
        for view in (ps.count_walks, ps.weighted_walk_sums, ps.normalized_walk_sums):
            ps.classify(view(kagome, 2))
        ps.minimize_bridges(kagome)
        environment = run.environment(ps)
    finally:
        tracer.uninstall()

    assert {name: getattr(ps, name) for name in COUNTED_ARGUMENTS} == originals
    assert {span.name for span in tracer.spans} >= {name for _, _, name in spans.TARGETS} | {"operators.eigvalsh"}
    for key in ("operators.kpoints", "operators.stack_bytes", "walks.steps", "graphs.gauge_calls"):
        assert tracer.counts[key] > 0, key
    assert tracer.maxes["operators.workers"] >= 1
    assert environment["library_workers"] == ps.operators.worker_count()


def test_traced_probe_matches_its_recorded_output(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    run = load("run")
    recorded = json.loads((PERFBENCH / "golden" / "cli.json").read_text())
    want = next(entry for entry in recorded if tuple(entry["args"]) == run.TRACE_PROBE)
    out = run.run_cli(run.TRACE_PROBE, tmp_path / "probe", traced=True)
    assert out["exit_code"] == want["exit_code"]
    assert out["stdout"] == want["stdout"].encode("utf-8")
    assert out["files"] == want["files"]
