"""CLI: verb coverage, deterministic output, exit codes."""

import csv
import io
import itertools
import json
import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from click.testing import CliRunner

import periodic_spectra as ps
from periodic_spectra.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    result = runner.invoke(main, list(args), catch_exceptions=False)
    return result


def test_bandwidth_text(runner):
    result = invoke(runner, "bandwidth", "--builtin", "kagome", "--operator", "laplacian", "--grid", "60")
    assert result.exit_code == 0
    assert "total_bandwidth 6.0000" in result.output
    assert "spectrum_measure 6.0000" in result.output
    assert "flat_bands [6.0000]" in result.output


def test_bounds_fig4_text(runner):
    result = invoke(
        runner, "bounds", "--builtin", "fig4_chain",
        "--operator", "normalized_laplacian", "--n-max", "4",
    )
    assert result.exit_code == 0
    assert "bracket [0.4444, 1.3333]" in result.output


def test_bounds_json_values(runner):
    result = invoke(
        runner, "bounds", "--builtin", "kagome", "--operator", "laplacian",
        "--n-max", "3", "--format", "json",
    )
    doc = json.loads(result.output)
    assert doc["lower_closed_form"] == pytest.approx(0.25)
    assert doc["lower_refined"] == pytest.approx(2.0)
    assert doc["upper"] == pytest.approx(12.0)
    assert doc["refined_n"] == 2


def test_cycles_csv(runner):
    result = invoke(runner, "cycles", "--builtin", "kagome", "--n-max", "3", "--format", "csv")
    lines = result.output.strip().split("\n")
    assert lines[0] == "n,N0,Nplus,Nodd,Bn1,Bn2,Tn0"
    assert lines[2].startswith("2,12,12,8,")
    assert lines[3].startswith("3,12,36,24,")


def test_info_text(runner):
    result = invoke(runner, "info", "--builtin", "fig4_chain")
    assert result.exit_code == 0
    assert "bridge_ratio 0.6667" in result.output
    assert "bipartite True" in result.output
    assert "min_bridges 1" in result.output


def test_traces_ok(runner):
    result = invoke(runner, "traces", "--builtin", "hexagonal", "--operator", "adjacency", "--n-max", "4")
    assert result.exit_code == 0
    assert "coeff_residual" in result.output


def test_embed_reports_gauge(runner):
    result = invoke(runner, "embed", "--builtin", "kagome", "--format", "json")
    doc = json.loads(result.output)
    assert doc["bridges_before"] == 3
    assert doc["bridges_after"] == 3
    assert set(doc["gauge"]) == {"x1", "x2", "x3"}
    # emitted graph parses back through the file format
    ps.parse_graph(json.dumps(doc["graph"]))


def test_info_reports_exact_min_bridges(runner, tmp_path):
    # no radius-3 gauge box reaches the single-bridge gauge (0, 2, 4)
    graph = ps.build_graph(1, ["v0", "v1", "v2"], [("v0", "v1", (-2,)), ("v1", "v2", (-2,)), ("v1", "v1", (1,))])
    path = tmp_path / "line.json"
    path.write_text(json.dumps(ps.graph_to_dict(graph)))
    result = invoke(runner, "info", "--graph", str(path))
    assert result.exit_code == 0
    assert "min_bridges 1\n" in result.output


@pytest.mark.parametrize("verb", ["info", "bounds", "embed"])
def test_radius_option_is_gone(runner, verb):
    result = runner.invoke(main, [verb, "--builtin", "kagome", "--radius", "1"])
    assert result.exit_code == 2


def test_verify_json(runner):
    result = invoke(runner, "verify", "--builtin", "hexagonal", "--format", "json")
    doc = json.loads(result.output)
    assert doc["lattice_ok"] is True
    assert doc["witness_n"] == 2
    assert doc["bipartite"] is True
    assert doc["bipartite_witness_n"] == 2


def test_bands_json_and_dispersion(runner, tmp_path):
    disp = tmp_path / "disp.csv"
    out = tmp_path / "bands.json"
    result = invoke(
        runner, "bands", "--builtin", "zd(1)", "--operator", "laplacian",
        "--grid", "16", "--format", "json",
        "--out", str(out), "--dispersion-out", str(disp),
    )
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["bands"][0]["lo"] == pytest.approx(0.0, abs=1e-12)
    assert doc["bands"][0]["hi"] == pytest.approx(4.0, abs=1e-12)
    lines = disp.read_text().strip().split("\n")
    assert lines[0] == "k1,lambda1"
    assert len(lines) == 17
    assert "\r" not in disp.read_text()


def test_bands_without_dump_never_expands_the_table(runner, monkeypatch, tmp_path):
    args = ["bands", "--builtin", "kagome", "--operator", "schrodinger", "--grid", "12", "--format", "json"]
    with_dump = invoke(runner, *args, "--dispersion-out", str(tmp_path / "disp.csv"))

    def refuse(*args, **kwargs):
        raise AssertionError("bands.dispersion called without --dispersion-out")

    monkeypatch.setattr(ps.bands, "dispersion", refuse)
    without = invoke(runner, *args)
    assert without.exit_code == with_dump.exit_code == 0
    assert without.stdout == with_dump.stdout


def test_bands_dump_streams_to_the_file(runner, monkeypatch, tmp_path):
    # The grid's pairing and its solved half are built beforehand, so the traced peak is
    # what the band reduction and the dump hold at once.
    grid = ps.KGrid(2, 300)
    pairing = grid.half
    half = ps.bands.solve_half(ps.builtin_graph("kagome"), "laplacian", grid)
    expected = ps.bands.dispersion_csv(grid.points, half[pairing[1]]).encode()
    monkeypatch.setattr(ps.KGrid, "half", property(lambda self: pairing))
    monkeypatch.setattr(ps.bands, "solve_half", lambda *args: half)
    monkeypatch.setattr(ps.bands, "CSV_BLOCK_ROWS", 1024)
    disp = tmp_path / "disp.csv"
    tracemalloc.start()
    try:
        result = invoke(
            runner, "bands", "--builtin", "kagome", "--operator", "laplacian",
            "--grid", "300", "--dispersion-out", str(disp),
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0
    assert disp.read_bytes() == expected
    # At most the size of the solved half plus a few blocks of text: no row texts,
    # grid points or scratch table kept for the whole dump.
    block = len(expected) * 1024 // 300**2
    assert peak < half.nbytes + 4 * block, (peak, half.nbytes, block)


@pytest.mark.parametrize("builtin, grid_n", [("kagome", 40), ("zd(3)", 8)])
def test_bands_dump_never_builds_the_grid_points(runner, monkeypatch, tmp_path, builtin, grid_n):
    graph = ps.builtin_graph(builtin)
    points, lam = ps.dispersion(graph, "laplacian", ps.KGrid(graph.dim, grid_n))

    def refuse(self):
        raise AssertionError("KGrid.points built by bands --dispersion-out")

    monkeypatch.setattr(ps.KGrid, "points", property(refuse))
    monkeypatch.setattr(ps.bands, "CSV_BLOCK_ROWS", 100)
    disp = tmp_path / "disp.csv"
    result = invoke(runner, "bands", "--builtin", builtin, "--grid", str(grid_n), "--dispersion-out", str(disp))
    assert result.exit_code == 0
    assert disp.read_bytes() == ps.bands.dispersion_csv(points, lam).encode()


def test_byte_identical_reruns(runner):
    args = ["bounds", "--builtin", "kagome", "--operator", "laplacian", "--format", "json"]
    first = invoke(runner, *args).output
    second = invoke(runner, *args).output
    assert first == second
    args = ["bands", "--builtin", "fig4_chain", "--operator", "transition", "--format", "csv"]
    assert invoke(runner, *args).output == invoke(runner, *args).output


def test_graph_file_source(runner, tmp_path):
    path = tmp_path / "hex.json"
    path.write_text(json.dumps(ps.graph_to_dict(ps.builtin_graph("hexagonal"))))
    result = invoke(runner, "info", "--graph", str(path))
    assert result.exit_code == 0
    assert "vertices 2" in result.output


def test_unknown_builtin_is_input_error(runner):
    result = runner.invoke(main, ["info", "--builtin", "nope"])
    assert result.exit_code == 1
    assert "error:" in result.output


@pytest.mark.parametrize("tol", ["0", "nan"])
def test_non_positive_flat_tolerance_is_input_error(runner, tol):
    result = runner.invoke(main, ["bandwidth", "--builtin", "kagome", "--flat-tol", tol])
    assert result.exit_code == 1
    assert "flat-band tolerance must be positive" in result.output
    assert "flat_bands" not in result.output


def test_bad_graph_file_is_input_error(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    result = runner.invoke(main, ["info", "--graph", str(path)])
    assert result.exit_code == 1


RING2 = {
    "dimension": 1,
    "vertices": [{"id": "a", "potential": 0.0}, {"id": "b", "potential": 0.0}],
    "edges": [{"from": "a", "to": "b", "index": [0]}, {"from": "b", "to": "a", "index": [1]}],
}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("dimension", 1.9, "dimension must be an integer"),
        ("dimension", True, "dimension must be an integer"),
        ("index", 5, "index must be a list of 1 integers"),
        ("potential", [1], "must be a number"),
        ("potential", float("nan"), "finite"),
    ],
)
def test_bad_graph_field_is_one_line_input_error(runner, tmp_path, field, value, message):
    doc = json.loads(json.dumps(RING2))
    target = doc if field == "dimension" else doc["edges"][0] if field == "index" else doc["vertices"][0]
    target[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["bandwidth", "--graph", str(path), "--operator", "schrodinger"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert message in result.stderr


@pytest.mark.parametrize("verb", ["bandwidth", "info", "verify"])
@pytest.mark.parametrize("component", [10**23, 2**62])
def test_index_components_past_int32_are_input_errors(runner, tmp_path, verb, component):
    # 10**23 overflowed the int64 cycle matrix; a cycle through two 2**62 edges wrapped to -2**63.
    doc = json.loads(json.dumps(RING2))
    doc["edges"] = [
        {"from": "a", "to": "b", "index": [component]},
        {"from": "b", "to": "a", "index": [component]},
        {"from": "a", "to": "a", "index": [1]},
    ]
    path = tmp_path / "huge_index.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, [verb, "--graph", str(path)])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"error: index component {component} exceeds 2147483647 in magnitude\n"


def test_requires_exactly_one_source(runner, tmp_path):
    result = runner.invoke(main, ["info"])
    assert result.exit_code != 0
    path = tmp_path / "hex.json"
    path.write_text(json.dumps(ps.graph_to_dict(ps.builtin_graph("hexagonal"))))
    result = runner.invoke(main, ["info", "--builtin", "kagome", "--graph", str(path)])
    assert result.exit_code != 0


def test_odd_grid_is_input_error(runner):
    result = runner.invoke(main, ["bands", "--builtin", "kagome", "--grid", "31"])
    assert result.exit_code == 1
    assert "even" in result.output


def test_default_grid_is_64(runner):
    result = invoke(runner, "bands", "--builtin", "zd(1)", "--format", "json")
    assert '"grid_n": 64' in result.output


def test_json_floats_have_12_significant_digits(runner):
    result = invoke(
        runner, "bounds", "--builtin", "fig4_chain",
        "--operator", "normalized_laplacian", "--format", "json",
    )
    assert '"bridge_ratio": 0.666666666667' in result.output


def test_engine_mismatch_exits_2(runner, monkeypatch):
    from periodic_spectra import cli as cli_mod
    from periodic_spectra.errors import EngineMismatchError

    def broken(*args, **kwargs):
        raise EngineMismatchError("forced for the exit-code contract")

    monkeypatch.setattr(cli_mod, "walk_series", broken)
    result = runner.invoke(main, ["traces", "--builtin", "kagome", "--operator", "adjacency"])
    assert result.exit_code == 2
    assert "error:" in result.output


def test_bands_table_json_and_csv(runner):
    args = ["bands", "--builtin", "kagome", "--operator", "laplacian", "--grid", "16"]
    doc = json.loads(invoke(runner, *args, "--format", "json").output)
    assert doc["kind"] == "laplacian"
    assert doc["grid_n"] == 16
    assert [entry["j"] for entry in doc["bands"]] == [1, 2, 3]
    text = invoke(runner, *args, "--format", "csv").output
    lines = text.strip().split("\n")
    assert lines[0] == "j,lo,hi,flat"
    assert len(lines) == 4
    assert lines[3].endswith(",true")
    assert text.endswith("\n")


@pytest.mark.parametrize("verb", ["info", "embed"])
def test_json_and_csv_escape_any_label(runner, tmp_path, verb):
    labels = ["a,b", 'q"x', "tab\there", "bell\x07"]
    edges = [(labels[i], labels[(i + 1) % 4], (0,)) for i in range(4)] + [(labels[0], labels[0], (1,))]
    graph = ps.build_graph(1, labels, edges)
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(ps.graph_to_dict(graph)))
    doc = json.loads(invoke(runner, verb, "--graph", str(path), "--format", "json").output)
    keyed = doc["degrees"] if verb == "info" else doc["gauge"]
    assert list(keyed) == labels
    rows = list(csv.reader(io.StringIO(invoke(runner, verb, "--graph", str(path), "--format", "csv").output)))
    assert len({len(row) for row in rows}) == 1
    if verb == "info":
        assert dict(rows)["degrees"] == ";".join(f"{lab}={d}" for lab, d in ps.vertex_degrees(graph).items())
    else:
        assert {(row[0], row[1]) for row in rows[1:]} >= {(labels[0], labels[1]), (labels[0], labels[0])}


@pytest.mark.parametrize("n_max", ["0", "-1"])
@pytest.mark.parametrize("verb", ["bounds", "cycles", "traces"])
def test_n_max_below_one_is_usage_error(runner, verb, n_max):
    result = runner.invoke(main, [verb, "--builtin", "kagome", "--n-max", n_max, "--format", "json"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "--n-max" in result.stderr


@pytest.mark.parametrize(
    "verb, builtin", [("cycles", "kagome"), ("traces", "kagome"), ("traces", "hexagonal"), ("traces", "square_diag")]
)
def test_walk_verbs_reach_long_walks(runner, verb, builtin):
    # The traces at n = 13 are about 10^8: residuals are judged relative to that scale.
    args = [verb, "--builtin", builtin, "--operator", "adjacency", "--n-max", "13", "--format", "json"]
    start = time.perf_counter()
    result = runner.invoke(main, args)
    assert time.perf_counter() - start < 10.0
    assert result.exit_code == 0, result.stderr
    rows = json.loads(result.stdout)
    assert [row["n"] for row in rows] == list(range(1, 14))
    if verb == "cycles":
        b1, b2 = ps.walk_classes(ps.builtin_graph(builtin), "adjacency", 13)[-1]
        assert (rows[-1]["Nplus"], 2 * rows[-1]["Nodd"]) == (b1, b2)


@pytest.mark.parametrize("nu", [24, 40])
def test_verify_finds_long_witnesses(runner, nu):
    start = time.perf_counter()
    result = runner.invoke(main, ["verify", "--builtin", f"z_cycle({nu})", "--format", "json"])
    assert time.perf_counter() - start < 10.0
    assert result.exit_code == 0, result.stderr
    doc = json.loads(result.stdout)
    assert (doc["witness_n"], doc["witness_odd_count"]) == (nu, 2 * nu)


def test_unit_counts_past_the_float_range_are_input_errors(runner, tmp_path):
    # One vertex with eight (1,) loops: 16^n closed walks, past 2^1024 at n = 257.
    graph = ps.build_graph(1, ["a"], [("a", "a", (1,))] * 8)
    path = tmp_path / "loops.json"
    path.write_text(json.dumps(ps.graph_to_dict(graph)))
    args = ["cycles", "--graph", str(path), "--operator", "adjacency", "--n-max"]
    assert runner.invoke(main, [*args, "256"]).exit_code == 0
    result = runner.invoke(main, [*args, "257"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "error: walk sums of length n=257 leave the float range\n"


@pytest.mark.parametrize("verb", ["bounds", "cycles", "traces"])
def test_weights_past_the_float_range_are_input_errors(runner, tmp_path, verb):
    graph = ps.build_graph(1, ["a", "b"], [("a", "b", (0,)), ("b", "a", (1,))], {"a": 1e308, "b": 0.0})
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(ps.graph_to_dict(graph)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, [verb, "--graph", str(path), "--operator", "schrodinger"])
    assert [str(w.message) for w in caught] == []
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "n=" in result.stderr


def _every_verb(runner, path):
    """Run every verb in every format, and every kind where it takes one, on a graph file.

    Each run must end without a traceback, a warning or a non-finite number on
    stdout; yields each run's arguments and result.
    """
    for verb, command in main.commands.items():
        kinds = ps.OPERATOR_KINDS if any(p.name == "kind" for p in command.params) else (None,)
        for kind, fmt in itertools.product(kinds, ("text", "json", "csv")):
            args = [verb, "--graph", str(path), "--format", fmt] + (["--operator", kind] if kind else [])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = runner.invoke(main, args)
            assert result.exception is None or isinstance(result.exception, SystemExit), args
            assert "Traceback" not in result.stderr, args
            assert not {"inf", "nan"} & set(result.stdout.lower().replace(",", " ").split()), args
            assert [str(w.message) for w in caught] == [], args
            yield args, result


def test_potentials_past_the_float_range_end_every_verb_cleanly(runner, tmp_path):
    # V - deg spans 2e308, past the float range: every verb and kind ends with an error line.
    vertices = [{"id": "a", "potential": 1e308}, {"id": "b", "potential": -1e308}]
    edges = [{"from": "a", "to": "b", "index": [0]}, {"from": "a", "to": "b", "index": [1]}]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dimension": 1, "vertices": vertices, "edges": edges}))
    for args, result in _every_verb(runner, path):
        assert result.exit_code in (1, 2), args
        assert result.stderr.startswith("error: "), args


def test_a_closed_form_past_the_float_range_ends_every_verb_cleanly(runner, tmp_path):
    # V - deg spans 1e160: v_star^2 in the Schrodinger closed form overflows, as do the walk weights at n = 2.
    vertices = [{"id": "a", "potential": 1e160}, {"id": "b"}, {"id": "c"}]
    edges = [
        {"from": "a", "to": "b", "index": [0]},
        {"from": "b", "to": "c", "index": [0]},
        {"from": "c", "to": "a", "index": [1]},
    ]
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({"dimension": 1, "vertices": vertices, "edges": edges}))
    for args, result in _every_verb(runner, path):
        assert result.exit_code in (0, 1, 2), args
        assert result.exit_code == 0 or result.stderr.startswith("error: "), args
    bounds = ["bounds", "--graph", str(path), "--operator", "schrodinger"]
    result = runner.invoke(main, bounds)
    assert result.exit_code == 1
    assert result.stderr.startswith("error: walk weights leave the float range at n=2")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, [*bounds, "--n-max", "1", "--format", "json"])
    assert result.exit_code == 0, result.stderr
    assert [str(w.message) for w in caught] == []
    lower = json.loads(result.stdout)["lower_closed_form"]
    assert lower == float(Fraction(4) / Fraction(2 + 1e160) ** 2) > 0.0


@pytest.mark.parametrize("kind", ["laplacian", "schrodinger"])
def test_refined_terms_past_the_float_range_end_cleanly(runner, tmp_path, kind):
    # Degrees 5 and 1: rho = 5 but step = v_star = 9, so n * 9^(n-1) leaves the float range
    # from n = 322 on while the walk sums stay finite; those terms are the exact quotient,
    # rounded once, and every other term keeps the bits of the float expression.
    graph = ps.build_graph(1, ["a", "b"], [("a", "b", (0,)), ("a", "a", (1,)), ("a", "a", (1,))])
    path = tmp_path / "steep_loops.json"
    path.write_text(json.dumps(ps.graph_to_dict(graph)))
    result = runner.invoke(main, ["bounds", "--graph", str(path), "--operator", kind, "--n-max", "340", "--format", "json"])
    assert result.exit_code == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert len(json.loads(result.stdout)["terms"]) == 340
    report = ps.bounds_for_kind(graph, kind, n_max=340)
    step = report.constants.v_star
    assert step == 9.0
    past = 0
    for term in report.terms:
        top = max(term.b1, term.b2)
        try:
            denominator = term.n * step ** (term.n - 1)
        except OverflowError:
            denominator = math.inf
        if denominator < math.inf:
            assert term.value == top / denominator
        else:
            past += 1
            assert term.value == float(Fraction(top) / (term.n * Fraction(step) ** (term.n - 1))) > 0.0
    assert past == 19


def test_json_refuses_a_non_finite_number(runner, monkeypatch, tmp_path):
    monkeypatch.setattr(ps.bands, "total_bandwidth", lambda table: float("inf"))
    out = tmp_path / "out.json"
    for extra in ([], ["--out", str(out)]):
        result = runner.invoke(main, ["bandwidth", "--builtin", "kagome", "--grid", "8", "--format", "json", *extra])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: non-finite number inf in the output\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ps.walks.TRACE_KINDS)
def test_traces_builds_each_trace_series(monkeypatch, builtin, kind):
    # Each power from the last gives the same coefficients as trace_series' fresh power, bit for bit.
    from periodic_spectra import cli as cli_mod

    graph = builtin.with_potential([0.5 * x - 1.25 for x in range(builtin.num_vertices)])
    built = []

    def spy(series, sums):
        built.append(series)
        return ps.walks.coefficient_residual(series, sums)

    monkeypatch.setattr(cli_mod, "coefficient_residual", spy)
    assert cli_mod.traces(graph, kind, 8).failure is None
    assert len(built) == 8
    for n, series in enumerate(built, 1):
        # repr is exact for floats and tells -0.0 from 0.0.
        assert repr(series.coeffs) == repr(ps.trace_series(graph, kind, n).coeffs)


def test_trace_residual_failure_exits_2_after_output(runner, monkeypatch):
    from periodic_spectra import cli as cli_mod

    monkeypatch.setattr(cli_mod, "TRACE_TOL", -1.0)
    result = runner.invoke(main, ["traces", "--builtin", "hexagonal", "--operator", "adjacency", "--n-max", "2"])
    assert result.exit_code == 2
    assert result.stdout.startswith("n=1 coeff_residual=")
    assert "trace residual" in result.stderr


def test_trace_check_is_relative_to_trace_scale(runner, monkeypatch):
    # kagome adjacency at n = 3: the trace scale is 3 * 4^3 = 192, so the limit is 1.92e-7
    from periodic_spectra import cli as cli_mod

    exact = ps.walks.walk_series

    def shifted(offset):
        def series(graph, kind, n_max):
            for counts in exact(graph, kind, n_max):
                if counts.n == 3:
                    by_index = {**counts.by_index, (0, 0): counts.value((0, 0)) + offset}
                    counts = ps.WalkClassCounts(3, counts.kind, counts.dim, by_index)
                yield counts

        return series

    args = ["traces", "--builtin", "kagome", "--operator", "adjacency", "--n-max", "3"]
    monkeypatch.setattr(cli_mod, "walk_series", shifted(1.5e-7))
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.stderr
    monkeypatch.setattr(cli_mod, "walk_series", shifted(2.5e-7))
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "n=3 coeff_residual=2.500e-07 " in result.stdout
    assert result.stderr.startswith("error: trace residual 2.500e-07 exceeds")


def test_trace_coefficient_mismatch_is_a_row_and_exit_2(runner, monkeypatch):
    from periodic_spectra import cli as cli_mod

    def off_by_one(graph, kind, n_max):
        for sums in ps.walks.walk_series(graph, kind, n_max):
            yield ps.WalkClassCounts(sums.n, sums.kind, sums.dim, {**sums.by_index, (7, 7): 1.0})

    # The verb reports the wrong sums as rows; it does not abort first.
    monkeypatch.setattr(cli_mod, "walk_series", off_by_one)
    result = runner.invoke(main, ["traces", "--builtin", "kagome", "--operator", "adjacency", "--n-max", "2"])
    assert result.exit_code == 2
    assert result.stdout.startswith("n=1 coeff_residual=1.000e+00 ")
    assert result.stdout.count("\n") == 2
    assert result.stderr == "error: trace residual 1.000e+00 exceeds 1e-09\n"


@pytest.mark.parametrize(
    "verb, kind, entries",
    [
        ("cycles", "adjacency", 1),
        ("cycles", "laplacian", 2),
        ("traces", "adjacency", 1),
        ("traces", "schrodinger", 1),
        ("verify", None, 1),
    ],
)
def test_walk_verbs_enter_the_recursion_once(runner, monkeypatch, verb, kind, entries):
    # One series per (graph, kind) for all lengths, never one recursion per length.
    from periodic_spectra import bounds, cli, walks

    calls = []
    series = walks.walk_series

    def counted(graph, kind, n_max):
        calls.append((id(graph), kind))
        return series(graph, kind, n_max)

    for module in (walks, cli, bounds):
        monkeypatch.setattr(module, "walk_series", counted)
    options = ["--operator", kind, "--n-max", "5"] if kind else []
    result = invoke(runner, verb, "--builtin", "kagome", *options)
    assert result.exit_code == 0
    assert len(calls) == len(set(calls)) == entries
