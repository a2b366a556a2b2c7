"""Command-line front end.

Verbs: info, bands, bandwidth, bounds, cycles, traces, embed, verify.
Each verb is a function ``graph, **options -> _Output`` holding one JSON
document, the CSV rows and the text lines of its result; a single renderer
emits the format asked for.  Output is deterministic: identical commands on
identical inputs produce byte-identical text, JSON (12 significant digits,
fixed key order), and CSV (LF line endings, cells quoted only when needed).
Text output rounds to 4 decimals for reading; JSON and CSV carry full
precision.

Exit codes: 0 success, 1 input error, 2 internal consistency failure or a
usage error (no graph source or two of them, an unknown option, an invalid
value such as ``--format xml`` or ``--n-max 0``).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import sys
from typing import Iterable

import click
import numpy as np

from . import bands as bands_mod
from . import bounds as bounds_mod
from .bands import format_12g
from .errors import EngineMismatchError, HermiticityError, PeriodicGraphError
from .graphs import (
    FundamentalGraph,
    betti_number,
    bridge_count,
    builtin_graph,
    gauge_transform,
    graph_to_dict,
    load_graph,
    vertex_degrees,
)
from .operators import OPERATOR_KINDS, fiber_eigenvalues_grid
from .walks import (
    TRACE_TOL,
    classify,
    coefficient_residual,
    trace_scales,
    walk_matrix,
    walk_series,
    walk_setting,
)

TRACE_SAMPLE_POINTS = 20


def _render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 12 significant digits, exit 2 on inf or NaN."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{_json_string(key)}: {_render_json(val, indent + 1)}" for key, val in obj.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_render_json(val, indent + 1)}" for val in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            _fail(2, f"non-finite number {obj} in the output")
        return format_12g(obj)
    return _json_string(obj)


def _json_string(obj) -> str:
    return json.dumps(str(obj), ensure_ascii=False)


def _write(path: str, pieces: Iterable[str]):
    """Write ``pieces`` to ``path`` one after another, as they are produced."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(pieces)


@dataclasses.dataclass(frozen=True)
class _Output:
    """A verb's result: the JSON document, CSV rows (header first) and text lines.

    ``failure`` is reported with exit code 2 after the output is written.
    """

    doc: object
    rows: list
    lines: list
    failure: str | None = None

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return _render_json(self.doc) + "\n"
        if fmt == "csv":
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            for row in self.rows:
                writer.writerow(format_12g(c) if isinstance(c, float) else str(c) for c in row)
            return buffer.getvalue()
        return "\n".join(self.lines) + "\n"


def _fail(code: int, message) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@click.group()
def main():
    """Band structures and total-bandwidth brackets for periodic discrete graphs."""


_COMMON_OPTIONS = (
    click.option("--graph", "graph_file", default=None, type=click.Path(exists=True), help="graph JSON file"),
    click.option("--builtin", default=None, help="built-in lattice name"),
    click.option("--out", "out_path", default=None, type=click.Path(), help="write output here instead of stdout"),
    click.option("--format", "fmt", default="text", type=click.Choice(["text", "json", "csv"])),
)


def _verb(*options):
    """Register ``fn(graph, **options) -> _Output`` as a verb of ``main``.

    The verb gains a graph source (``--builtin``/``--graph``), ``--format``
    and ``--out``; input errors exit 1 and consistency failures exit 2.
    """

    def register(fn):
        def callback(builtin, graph_file, fmt, out_path, **kwargs):
            if (builtin is None) == (graph_file is None):
                raise click.UsageError("give exactly one graph source: --builtin NAME or --graph FILE")
            try:
                graph = builtin_graph(builtin) if builtin is not None else load_graph(graph_file)
                output = fn(graph, **kwargs)
                if out_path:
                    _write(out_path, [output.render(fmt)])
                else:
                    click.echo(output.render(fmt), nl=False)
                if output.failure:
                    _fail(2, output.failure)
            except (EngineMismatchError, HermiticityError) as exc:
                _fail(2, exc)
            except (PeriodicGraphError, OSError, ValueError) as exc:
                _fail(1, exc)

        for option in reversed((*_COMMON_OPTIONS, *options)):
            callback = option(callback)
        main.command(fn.__name__, help=fn.__doc__)(callback)
        return fn

    return register


_operator_option = click.option("--operator", "kind", default="laplacian", type=click.Choice(list(OPERATOR_KINDS)))
_n_max_option = click.option("--n-max", default=None, type=click.IntRange(min=1))


def _fixed4(values) -> str:
    return ", ".join(f"{v:.4f}" for v in values)


@_verb()
def info(graph: FundamentalGraph) -> _Output:
    """Structural constants, bipartiteness, and bridge data."""
    sc = bounds_mod.structural_constants(graph)
    bip, witness = graph.bipartition
    doc = {
        "dimension": graph.dim,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "degrees": vertex_degrees(graph),
        **{k: v for k, v in dataclasses.asdict(sc).items() if k not in ("dim", "num_vertices", "bipartite")},
        "bipartite": bip,
    }
    if bip:
        doc["bipartite_parities"] = {lab: p for lab, p in zip(graph.labels, witness[0])}
        doc["bipartite_sign_vector"] = list(witness[1])

    def cell(val) -> str:
        if isinstance(val, dict):
            return ";".join(f"{k}={v}" for k, v in val.items())
        if isinstance(val, list):
            return ";".join(str(v) for v in val)
        return str(val)

    rows = [["key", "value"]] + [[key, cell(val)] for key, val in doc.items()]
    lines = [f"{key} {val:.4f}" if isinstance(val, float) else f"{key} {val}" for key, val in doc.items()]
    return _Output(doc, rows, lines)


@_verb(
    _operator_option,
    click.option("--grid", "grid_n", default=bands_mod.DEFAULT_GRID_N, type=int, help="grid points per dimension (even)"),
    click.option("--dispersion-out", default=None, type=click.Path(), help="also dump the per-k eigenvalues as CSV"),
)
def bands(graph: FundamentalGraph, kind: str, grid_n: int, dispersion_out: str | None) -> _Output:
    """Band table from a torus sweep."""
    grid = bands_mod.KGrid(graph.dim, grid_n)
    if dispersion_out:
        # The dump needs every row: solve the whole half once, reduce it, and
        # expand each row to its mirror, with its angles, one CSV block at a time.
        lam = bands_mod.solve_half(graph, kind, grid)
        table = bands_mod.table_from_eigenvalues(kind, grid, lam)
        _write(dispersion_out, bands_mod.dispersion_csv_blocks(grid, lam, grid.half[1]))
    else:
        table = bands_mod.band_structure(graph, kind, grid)
    doc = {
        "kind": table.kind,
        "grid_n": table.grid_n,
        "bands": [{"j": j, "lo": b.lo, "hi": b.hi, "flat": b.flat} for j, b in enumerate(table.bands, 1)],
        "flat_values": list(table.flat_values),
        "components": [list(c) for c in bands_mod.spectrum_components(table)],
        "total_bandwidth": bands_mod.total_bandwidth(table),
        "spectrum_measure": bands_mod.spectrum_measure(table),
    }
    rows = [["j", "lo", "hi", "flat"]]
    rows += [[j, b.lo, b.hi, str(b.flat).lower()] for j, b in enumerate(table.bands, 1)]
    lines = [f"kind {table.kind}", f"grid_n {table.grid_n}"]
    for j, b in enumerate(table.bands, 1):
        lines.append(f"band {j} [{b.lo:.4f}, {b.hi:.4f}]" + (" flat" if b.flat else ""))
    lines.append(f"flat_values [{_fixed4(table.flat_values)}]")
    return _Output(doc, rows, lines)


@_verb(
    _operator_option,
    click.option("--grid", "grid_n", default=bands_mod.DEFAULT_GRID_N, type=int),
    click.option("--flat-tol", default=None, type=float, help="flat-band width tolerance"),
)
def bandwidth(graph: FundamentalGraph, kind: str, grid_n: int, flat_tol: float | None) -> _Output:
    """Total bandwidth, spectrum measure, and flat levels."""
    table = bands_mod.band_structure(graph, kind, bands_mod.KGrid(graph.dim, grid_n))
    flats = [b.lo for b in bands_mod.flat_bands(table, tol=flat_tol)]
    doc = {
        "kind": kind,
        "grid_n": grid_n,
        "total_bandwidth": bands_mod.total_bandwidth(table),
        "spectrum_measure": bands_mod.spectrum_measure(table),
        "flat_bands": flats,
    }
    rows = [
        ["quantity", "value"],
        ["total_bandwidth", doc["total_bandwidth"]],
        ["spectrum_measure", doc["spectrum_measure"]],
    ]
    rows += [["flat_band", v] for v in flats]
    lines = [
        f"total_bandwidth {doc['total_bandwidth']:.4f}",
        f"spectrum_measure {doc['spectrum_measure']:.4f}",
        f"flat_bands [{_fixed4(flats)}]",
    ]
    return _Output(doc, rows, lines)


@_verb(
    _operator_option,
    click.option("--n-max", default=None, type=click.IntRange(min=1), help="largest walk length (default: vertex count)"),
)
def bounds(graph: FundamentalGraph, kind: str, n_max: int | None) -> _Output:
    """Certified two-sided bracket for the total bandwidth."""
    report = bounds_mod.bounds_for_kind(graph, kind, n_max=n_max)
    doc = dataclasses.asdict(report)
    doc["terms"] = [{"n": t.n, "B1": t.b1, "B2": t.b2, "value": t.value} for t in report.terms]
    rows = [["n", "B1", "B2", "value"]] + [[t.n, t.b1, t.b2, t.value] for t in report.terms]
    lines = [
        f"kind {report.kind}",
        f"lower_closed_form {report.lower_closed_form:.4f}",
        f"lower_refined {report.lower_refined:.4f}"
        + (f" (at n={report.refined_n})" if report.refined_n else ""),
        f"upper {report.upper:.4f}",
        f"upper_closed_form {report.upper_closed_form:.4f}",
        f"bracket [{report.lower:.4f}, {report.upper:.4f}]",
        f"measure_lower {report.measure_lower:.4f}",
    ]
    return _Output(doc, rows, lines)


@_verb(_operator_option, _n_max_option)
def cycles(graph: FundamentalGraph, kind: str, n_max: int | None) -> _Output:
    """Classified closed-walk tallies for n = 1 .. n-max.

    Integer columns count all closed walks; the weighted columns use the
    step weights of the chosen operator kind (laplacian and schrodinger
    share weights, as do normalized_laplacian and transition).
    \f
    The weights are those of the trace kind ``OPERATOR_KINDS[kind]``, taken
    at zero potential for the laplacian (see :func:`walks.walk_setting`).
    """
    limit = n_max or graph.num_vertices
    weighted_graph, weight_kind = walk_setting(graph, kind)
    units = map(classify, walk_series(graph, "adjacency", limit))
    # Adjacency weighs every step 1: its weighted sums are the unit counts.
    if weight_kind == "adjacency":
        pairs = ((unit, unit) for unit in units)
    else:
        pairs = zip(units, map(classify, walk_series(weighted_graph, weight_kind, limit)))
    doc = [{"n": u.n, "N0": u.n_zero, "Nplus": u.n_plus, "Nodd": u.n_odd, "Bn1": w.b1, "Bn2": w.b2, "Tn0": w.t0}
           for u, w in pairs]
    rows = [["n", "N0", "Nplus", "Nodd", "Bn1", "Bn2", "Tn0"]] + [list(r.values()) for r in doc]
    lines = [
        f"n={r['n']} N0={r['N0']} N+={r['Nplus']} Nodd={r['Nodd']} "
        f"B1={r['Bn1']:.4f} B2={r['Bn2']:.4f} T0={r['Tn0']:.4f}"
        for r in doc
    ]
    return _Output(doc, rows, lines)


@_verb(_operator_option, _n_max_option)
def traces(graph: FundamentalGraph, kind: str, n_max: int | None) -> _Output:
    """Dual-engine residuals: symbolic trace vs walk sums, and vs eigenvalue sums."""
    work_graph, trace_kind = walk_setting(graph, kind)
    limit = n_max or graph.num_vertices
    matrix = walk_matrix(work_graph, trace_kind)
    scales = trace_scales(matrix, limit)
    sample = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, size=(TRACE_SAMPLE_POINTS, graph.dim))
    lam = fiber_eigenvalues_grid(matrix, sample)
    doc, failed = [], []
    # Each power M^n from the last, starting at the identity: the products of matrix.power(n).
    power = matrix.power(0)
    for n, (scale, sums) in enumerate(zip(scales, walk_series(work_graph, trace_kind, limit)), 1):
        # The residual column below is the engine check: a mismatch is a row and exit 2.
        power = power @ matrix
        series = power.trace()
        coeff_residual = coefficient_residual(series, sums)
        eval_residual = float(np.abs(series.eval_grid(sample) - (lam**n).sum(axis=1)).max())
        worst = max(coeff_residual, eval_residual)
        # Residuals are judged relative to the trace scale nu * rho^n, which bounds the traces.
        if worst > TRACE_TOL * max(1.0, scale):
            failed.append(worst)
        doc.append({"n": n, "coeff_residual": coeff_residual, "eval_residual": eval_residual})
    rows = [["n", "coeff_residual", "eval_residual"]] + [list(r.values()) for r in doc]
    lines = [
        f"n={r['n']} coeff_residual={r['coeff_residual']:.3e} eval_residual={r['eval_residual']:.3e}"
        for r in doc
    ]
    failure = f"trace residual {max(failed):.3e} exceeds {TRACE_TOL}" if failed else None
    return _Output(doc, rows, lines, failure)


@_verb()
def embed(graph: FundamentalGraph) -> _Output:
    """Find a gauge with the fewest bridges; print the gauge and new indices."""
    gauge, count = graph.fewest_bridges
    moved = gauge_transform(graph, gauge)
    doc = {
        "bridges_before": bridge_count(graph),
        "bridges_after": count,
        "betti": betti_number(graph),
        "gauge": {lab: list(vec) for lab, vec in zip(graph.labels, gauge.shifts)},
        "graph": graph_to_dict(moved),
    }
    edges = [(moved.labels[e.tail], moved.labels[e.head], e.index) for e in moved.unoriented()]
    rows = [["from", "to", "index"]] + [[tail, head, ";".join(str(v) for v in idx)] for tail, head, idx in edges]
    lines = [f"bridges_before {doc['bridges_before']}", f"bridges_after {doc['bridges_after']}"]
    lines += [f"shift {lab} {tuple(vec)}" for lab, vec in doc["gauge"].items()]
    lines += [f"edge {tail} -> {head} index {idx}" for tail, head, idx in edges]
    return _Output(doc, rows, lines)


@_verb()
def verify(graph: FundamentalGraph) -> _Output:
    """Cycle-index lattice check plus odd-walk witnesses."""
    report = bounds_mod.verify_index_lattice(graph)
    basis = report.basis_subset
    doc = {
        "lattice_ok": report.lattice_ok,
        "basis_subset": [{"index": list(c.index), "length": c.length} for c in basis] if basis else None,
        "witness_n": report.witness_n,
        "witness_odd_count": report.witness_odd_count,
        "bipartite": report.bipartite,
        "bipartite_witness_n": report.bipartite_witness_n,
    }
    rows = [["key", "value"]] + [[key, val] for key, val in doc.items() if key != "basis_subset"]
    lines = [f"lattice_ok {report.lattice_ok}"]
    if basis:
        lines += [f"basis_cycle index {c.index} length {c.length}" for c in basis]
    else:
        lines.append("basis_cycle none found among fundamental cycles")
    lines.append(f"witness_n {report.witness_n} (Nodd {report.witness_odd_count})")
    lines.append(f"bipartite {report.bipartite}")
    if report.bipartite:
        lines.append(f"bipartite_witness_n {report.bipartite_witness_n}")
    return _Output(doc, rows, lines)


if __name__ == "__main__":
    main()
