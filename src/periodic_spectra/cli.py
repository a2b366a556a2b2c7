"""Command-line front end.

Verbs: info, bands, bandwidth, bounds, cycles, traces, embed, verify.
Output is deterministic: identical commands on identical inputs produce
byte-identical text, JSON (12 significant digits, fixed key order), and CSV
(LF line endings).  Text output rounds to 4 decimals for reading; JSON and
CSV carry full precision.

Exit codes: 0 success, 1 input error, 2 internal consistency failure.
"""

from __future__ import annotations

import sys

import click
import numpy as np

from . import bands as bands_mod
from . import bounds as bounds_mod
from .errors import EngineMismatchError, HermiticityError, PeriodicGraphError
from .graphs import (
    FundamentalGraph,
    betti_number,
    bridge_count,
    builtin_graph,
    gauge_transform,
    graph_to_dict,
    is_bipartite,
    load_graph,
    minimize_bridges,
    vertex_degrees,
)
from .operators import OPERATOR_KINDS, fiber_eigenvalues_grid
from .walks import (
    classify,
    count_walks,
    trace_series,
    walk_matrix,
    walk_setting,
    walk_sums_for_kind,
)

TRACE_SAMPLE_POINTS = 20
TRACE_TOL = 1e-9


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 12 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f'{inner}"{key}": {_render_json(val, indent + 1)}' for key, val in obj.items()]
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
        return _fmt(obj)
    text = str(obj).replace("\\", "\\\\").replace('"', '\\"')
    text = text.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
    return f'"{text}"'


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        click.echo(text, nl=False)


def _load(builtin: str | None, graph_file: str | None) -> FundamentalGraph:
    if (builtin is None) == (graph_file is None):
        raise click.UsageError("give exactly one graph source: --builtin NAME or --graph FILE")
    if builtin is not None:
        return builtin_graph(builtin)
    return load_graph(graph_file)


def _graph_options(fn):
    fn = click.option("--builtin", default=None, help="built-in lattice name")(fn)
    fn = click.option("--graph", "graph_file", default=None, type=click.Path(exists=True), help="graph JSON file")(fn)
    return fn


def _output_options(fn):
    fn = click.option("--format", "fmt", default="text", type=click.Choice(["text", "json", "csv"]))(fn)
    fn = click.option("--out", "out_path", default=None, type=click.Path(), help="write output here instead of stdout")(fn)
    return fn


_operator_option = click.option(
    "--operator", "kind", default="laplacian", type=click.Choice(list(OPERATOR_KINDS))
)


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _run(body):
    try:
        body()
    except click.UsageError:
        raise
    except (EngineMismatchError, HermiticityError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except (PeriodicGraphError, OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except _Failure as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(exc.code)


@click.group()
def main():
    """Band structures and total-bandwidth brackets for periodic discrete graphs."""


@main.command()
@_graph_options
@_output_options
def info(builtin, graph_file, fmt, out_path):
    """Structural constants, bipartiteness, and bridge data."""

    def body():
        graph = _load(builtin, graph_file)
        sc = bounds_mod.structural_constants(graph)
        bip, witness = is_bipartite(graph)
        doc = {
            "dimension": graph.dim,
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "degrees": {lab: deg for lab, deg in vertex_degrees(graph).items()},
            "kappa_minus": sc.kappa_minus,
            "kappa_plus": sc.kappa_plus,
            "kappa_star": sc.kappa_star,
            "v_plus": sc.v_plus,
            "v_star": sc.v_star,
            "d_star": sc.d_star,
            "betti": sc.betti,
            "bridges": sc.bridges,
            "min_bridges": sc.min_bridges,
            "bridge_ratio": sc.bridge_ratio,
            "bipartite": bip,
        }
        if bip:
            doc["bipartite_parities"] = {lab: p for lab, p in zip(graph.labels, witness[0])}
            doc["bipartite_sign_vector"] = list(witness[1])
        if fmt == "json":
            _emit(_render_json(doc) + "\n", out_path)
        elif fmt == "csv":
            lines = ["key,value"]
            for key, val in doc.items():
                if isinstance(val, dict):
                    val = ";".join(f"{k}={v}" for k, v in val.items())
                elif isinstance(val, list):
                    val = ";".join(str(v) for v in val)
                lines.append(f"{key},{val}")
            _emit("\n".join(lines) + "\n", out_path)
        else:
            lines = []
            for key, val in doc.items():
                if isinstance(val, float):
                    val = f"{val:.4f}"
                lines.append(f"{key} {val}")
            _emit("\n".join(lines) + "\n", out_path)

    _run(body)


@main.command()
@_graph_options
@_output_options
@_operator_option
@click.option("--grid", "grid_n", default=bands_mod.DEFAULT_GRID_N, type=int, help="grid points per dimension (even)")
@click.option("--dispersion-out", default=None, type=click.Path(), help="also dump the per-k eigenvalues as CSV")
def bands(builtin, graph_file, fmt, out_path, kind, grid_n, dispersion_out):
    """Band table from a torus sweep."""

    def body():
        graph = _load(builtin, graph_file)
        grid = bands_mod.KGrid(graph.dim, grid_n)
        points, lam = bands_mod.dispersion(graph, kind, grid)
        table = bands_mod.table_from_eigenvalues(kind, grid, lam)
        if dispersion_out:
            with open(dispersion_out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(bands_mod.dispersion_csv(points, lam))
        if fmt == "json":
            _emit(_render_json(bands_mod.band_table_document(table)) + "\n", out_path)
        elif fmt == "csv":
            _emit(bands_mod.band_table_csv(table), out_path)
        else:
            lines = [f"kind {table.kind}", f"grid_n {table.grid_n}"]
            for j, band in enumerate(table.bands):
                flat = " flat" if band.flat else ""
                lines.append(f"band {j + 1} [{band.lo:.4f}, {band.hi:.4f}]{flat}")
            flats = ", ".join(f"{v:.4f}" for v in table.flat_values)
            lines.append(f"flat_values [{flats}]")
            _emit("\n".join(lines) + "\n", out_path)

    _run(body)


@main.command()
@_graph_options
@_output_options
@_operator_option
@click.option("--grid", "grid_n", default=bands_mod.DEFAULT_GRID_N, type=int)
@click.option("--flat-tol", default=None, type=float, help="flat-band width tolerance")
def bandwidth(builtin, graph_file, fmt, out_path, kind, grid_n, flat_tol):
    """Total bandwidth, spectrum measure, and flat levels."""

    def body():
        graph = _load(builtin, graph_file)
        table = bands_mod.band_structure(graph, kind, bands_mod.KGrid(graph.dim, grid_n))
        flats = [b.lo for b in bands_mod.flat_bands(table, tol=flat_tol)]
        doc = {
            "kind": kind,
            "grid_n": grid_n,
            "total_bandwidth": bands_mod.total_bandwidth(table),
            "spectrum_measure": bands_mod.spectrum_measure(table),
            "flat_bands": flats,
        }
        if fmt == "json":
            _emit(_render_json(doc) + "\n", out_path)
        elif fmt == "csv":
            lines = ["quantity,value", f"total_bandwidth,{_fmt(doc['total_bandwidth'])}"]
            lines.append(f"spectrum_measure,{_fmt(doc['spectrum_measure'])}")
            for v in flats:
                lines.append(f"flat_band,{_fmt(v)}")
            _emit("\n".join(lines) + "\n", out_path)
        else:
            flats_text = ", ".join(f"{v:.4f}" for v in flats)
            _emit(
                f"total_bandwidth {doc['total_bandwidth']:.4f}\n"
                f"spectrum_measure {doc['spectrum_measure']:.4f}\n"
                f"flat_bands [{flats_text}]\n",
                out_path,
            )

    _run(body)


@main.command()
@_graph_options
@_output_options
@_operator_option
@click.option("--n-max", default=None, type=int, help="largest walk length (default: vertex count)")
def bounds(builtin, graph_file, fmt, out_path, kind, n_max):
    """Certified two-sided bracket for the total bandwidth."""

    def body():
        graph = _load(builtin, graph_file)
        report = bounds_mod.bounds_for_kind(graph, kind, n_max=n_max)
        sc = report.constants
        doc = {
            "kind": report.kind,
            "constants": {
                "dim": sc.dim,
                "num_vertices": sc.num_vertices,
                "kappa_minus": sc.kappa_minus,
                "kappa_plus": sc.kappa_plus,
                "kappa_star": sc.kappa_star,
                "v_plus": sc.v_plus,
                "v_star": sc.v_star,
                "d_star": sc.d_star,
                "betti": sc.betti,
                "bridges": sc.bridges,
                "min_bridges": sc.min_bridges,
                "bridge_ratio": sc.bridge_ratio,
                "bipartite": sc.bipartite,
            },
            "lower_closed_form": report.lower_closed_form,
            "lower_refined": report.lower_refined,
            "refined_n": report.refined_n,
            "lower": report.lower,
            "upper": report.upper,
            "upper_closed_form": report.upper_closed_form,
            "measure_lower": report.measure_lower,
            "terms": [
                {"n": t.n, "B1": t.b1, "B2": t.b2, "value": t.value} for t in report.terms
            ],
        }
        if fmt == "json":
            _emit(_render_json(doc) + "\n", out_path)
        elif fmt == "csv":
            lines = ["n,B1,B2,value"]
            for t in report.terms:
                lines.append(f"{t.n},{_fmt(t.b1)},{_fmt(t.b2)},{_fmt(t.value)}")
            _emit("\n".join(lines) + "\n", out_path)
        else:
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
            _emit("\n".join(lines) + "\n", out_path)

    _run(body)


@main.command()
@_graph_options
@_output_options
@_operator_option
@click.option("--n-max", default=None, type=int)
def cycles(builtin, graph_file, fmt, out_path, kind, n_max):
    """Classified closed-walk tallies for n = 1 .. n-max.

    Integer columns count all closed walks; the weighted columns use the
    step weights of the chosen operator kind (laplacian and schrodinger
    share weights, as do normalized_laplacian and transition).
    """

    def body():
        graph = _load(builtin, graph_file)
        limit = n_max or graph.num_vertices
        weighted_graph, weight_kind = walk_setting(graph, kind)
        rows = []
        for n in range(1, limit + 1):
            units = classify(count_walks(graph, n))
            weighted = classify(walk_sums_for_kind(weighted_graph, weight_kind, n))
            rows.append(
                {
                    "n": n,
                    "N0": units.n_zero,
                    "Nplus": units.n_plus,
                    "Nodd": units.n_odd,
                    "Bn1": weighted.b1,
                    "Bn2": weighted.b2,
                    "Tn0": weighted.t0,
                }
            )
        if fmt == "json":
            _emit(_render_json(rows) + "\n", out_path)
        elif fmt == "csv":
            lines = ["n,N0,Nplus,Nodd,Bn1,Bn2,Tn0"]
            for r in rows:
                lines.append(
                    f"{r['n']},{r['N0']},{r['Nplus']},{r['Nodd']},"
                    f"{_fmt(r['Bn1'])},{_fmt(r['Bn2'])},{_fmt(r['Tn0'])}"
                )
            _emit("\n".join(lines) + "\n", out_path)
        else:
            lines = []
            for r in rows:
                lines.append(
                    f"n={r['n']} N0={r['N0']} N+={r['Nplus']} Nodd={r['Nodd']} "
                    f"B1={r['Bn1']:.4f} B2={r['Bn2']:.4f} T0={r['Tn0']:.4f}"
                )
            _emit("\n".join(lines) + "\n", out_path)

    _run(body)


@main.command()
@_graph_options
@_output_options
@_operator_option
@click.option("--n-max", default=None, type=int)
def traces(builtin, graph_file, fmt, out_path, kind, n_max):
    """Dual-engine residuals: symbolic trace vs walk sums, and vs eigenvalue sums."""

    def body():
        graph = _load(builtin, graph_file)
        work_graph, trace_kind = walk_setting(graph, kind)
        limit = n_max or graph.num_vertices
        rng = np.random.default_rng(0)
        sample = rng.uniform(0.0, 2.0 * np.pi, size=(TRACE_SAMPLE_POINTS, graph.dim))
        lam = fiber_eigenvalues_grid(walk_matrix(work_graph, trace_kind), sample)
        rows = []
        worst = 0.0
        for n in range(1, limit + 1):
            series = trace_series(work_graph, trace_kind, n)
            sums = walk_sums_for_kind(work_graph, trace_kind, n)
            keys = set(series.coeffs) | set(sums.by_index)
            coeff_residual = max(
                (abs(series.coeff(m) - sums.value(m)) for m in keys), default=0.0
            )
            eval_residual = float(
                np.abs(series.eval_grid(sample) - (lam**n).sum(axis=1)).max()
            )
            worst = max(worst, coeff_residual, eval_residual)
            rows.append({"n": n, "coeff_residual": coeff_residual, "eval_residual": eval_residual})
        if fmt == "json":
            _emit(_render_json(rows) + "\n", out_path)
        elif fmt == "csv":
            lines = ["n,coeff_residual,eval_residual"]
            for r in rows:
                lines.append(f"{r['n']},{_fmt(r['coeff_residual'])},{_fmt(r['eval_residual'])}")
            _emit("\n".join(lines) + "\n", out_path)
        else:
            lines = [
                f"n={r['n']} coeff_residual={r['coeff_residual']:.3e} "
                f"eval_residual={r['eval_residual']:.3e}"
                for r in rows
            ]
            _emit("\n".join(lines) + "\n", out_path)
        if worst > TRACE_TOL:
            raise _Failure(2, f"trace residual {worst:.3e} exceeds {TRACE_TOL}")

    _run(body)


@main.command()
@_graph_options
@_output_options
def embed(builtin, graph_file, fmt, out_path):
    """Find a gauge with the fewest bridges; print the gauge and new indices."""

    def body():
        graph = _load(builtin, graph_file)
        gauge, count = minimize_bridges(graph)
        moved = gauge_transform(graph, gauge)
        doc = {
            "bridges_before": bridge_count(graph),
            "bridges_after": count,
            "betti": betti_number(graph),
            "gauge": {lab: list(vec) for lab, vec in zip(graph.labels, gauge.shifts)},
            "graph": graph_to_dict(moved),
        }
        if fmt == "json":
            _emit(_render_json(doc) + "\n", out_path)
        elif fmt == "csv":
            lines = ["from,to,index"]
            for e in moved.unoriented():
                idx = ";".join(str(v) for v in e.index)
                lines.append(f"{moved.labels[e.tail]},{moved.labels[e.head]},{idx}")
            _emit("\n".join(lines) + "\n", out_path)
        else:
            lines = [
                f"bridges_before {doc['bridges_before']}",
                f"bridges_after {doc['bridges_after']}",
            ]
            for lab, vec in doc["gauge"].items():
                lines.append(f"shift {lab} {tuple(vec)}")
            for e in moved.unoriented():
                lines.append(
                    f"edge {moved.labels[e.tail]} -> {moved.labels[e.head]} index {e.index}"
                )
            _emit("\n".join(lines) + "\n", out_path)

    _run(body)


@main.command()
@_graph_options
@_output_options
def verify(builtin, graph_file, fmt, out_path):
    """Cycle-index lattice check plus odd-walk witnesses."""

    def body():
        graph = _load(builtin, graph_file)
        report = bounds_mod.verify_index_lattice(graph)
        doc = {
            "lattice_ok": report.lattice_ok,
            "basis_subset": [
                {"index": list(c.index), "length": c.length} for c in report.basis_subset
            ]
            if report.basis_subset
            else None,
            "witness_n": report.witness_n,
            "witness_odd_count": report.witness_odd_count,
            "bipartite": report.bipartite,
            "bipartite_witness_n": report.bipartite_witness_n,
        }
        if fmt == "json":
            _emit(_render_json(doc) + "\n", out_path)
        elif fmt == "csv":
            lines = ["key,value"]
            for key in ("lattice_ok", "witness_n", "witness_odd_count", "bipartite", "bipartite_witness_n"):
                lines.append(f"{key},{doc[key]}")
            _emit("\n".join(lines) + "\n", out_path)
        else:
            lines = [f"lattice_ok {report.lattice_ok}"]
            if report.basis_subset:
                for c in report.basis_subset:
                    lines.append(f"basis_cycle index {c.index} length {c.length}")
            else:
                lines.append("basis_cycle none found among fundamental cycles")
            lines.append(f"witness_n {report.witness_n} (Nodd {report.witness_odd_count})")
            lines.append(f"bipartite {report.bipartite}")
            if report.bipartite:
                lines.append(f"bipartite_witness_n {report.bipartite_witness_n}")
            _emit("\n".join(lines) + "\n", out_path)

    _run(body)


if __name__ == "__main__":
    main()
