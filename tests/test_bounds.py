"""Closed-form brackets, structural constants, and lattice witnesses."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import periodic_spectra as ps

from conftest import (
    BIPARTITE_BUILTINS,
    BUILTIN_NAMES,
    SUPERCELLS,
    loopless_graph,
    random_graph,
    scan_unimodular_subset,
    supercell,
)

RNG = np.random.default_rng(404)


def test_kagome_constants(kagome):
    sc = ps.structural_constants(kagome)
    assert (sc.kappa_minus, sc.kappa_plus) == (4, 4)
    assert sc.v_star == pytest.approx(4.0)
    assert sc.kappa_star == 4
    assert sc.d_star == 2
    assert sc.betti == 4
    assert sc.min_bridges == 3
    assert not sc.bipartite


def test_fig4_constants(fig4):
    sc = ps.structural_constants(fig4)
    assert (sc.kappa_minus, sc.kappa_plus) == (2, 3)
    assert sc.d_star == 2  # rank 1 is odd
    assert sc.bridge_ratio == pytest.approx(2 / 3, abs=1e-15)
    assert sc.bipartite


def test_zd1_constants():
    sc = ps.structural_constants(ps.builtin_graph("zd(1)"))
    assert sc.betti == 1
    assert sc.bridges == 1
    assert sc.d_star == 2


def test_bridge_ratio_bounded_by_bridges(builtin):
    sc = ps.structural_constants(builtin)
    assert sc.bridge_ratio <= 2 * sc.bridges / sc.kappa_minus + 1e-12
    assert sc.dim <= sc.min_bridges <= sc.bridges


def test_kagome_laplacian_bounds(kagome):
    report = ps.bounds_for_kind(kagome, "laplacian", n_max=3)
    assert report.lower_closed_form == pytest.approx(0.25, abs=1e-12)
    assert report.lower_refined == pytest.approx(2.0, abs=1e-12)
    assert report.refined_n == 2
    assert report.upper == pytest.approx(12.0, abs=1e-12)
    assert report.measure_lower == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_z_cycle_bracket_formula():
    # nu-cycle with potential: bracket 4 / v_star^(nu-1) <= Sigma <= 4
    for t in (0.0, 3.0):
        g = ps.builtin_graph("z_cycle(3)").with_potential([0.0, t, 2 * t])
        report = ps.bounds_for_kind(g, "schrodinger")
        v_star = 2.0 + 2.0 * t
        assert report.constants.v_star == pytest.approx(v_star)
        assert report.lower_closed_form == pytest.approx(4.0 / v_star**2, abs=1e-12)
        assert report.upper == pytest.approx(4.0, abs=1e-12)


def test_bounds_shift_invariant(fig4):
    g1 = fig4.with_potential([0.0, 1.0, 2.0, 3.0])
    g2 = fig4.with_potential([10.0, 11.0, 12.0, 13.0])
    r1 = ps.bounds_for_kind(g1, "schrodinger")
    r2 = ps.bounds_for_kind(g2, "schrodinger")
    assert r1.lower_closed_form == pytest.approx(r2.lower_closed_form, abs=1e-12)
    assert r1.lower_refined == pytest.approx(r2.lower_refined, abs=1e-12)
    assert r1.upper == r2.upper


def test_fig4_normalized_bounds(fig4):
    report = ps.bounds_for_kind(fig4, "normalized_laplacian", n_max=4)
    assert report.lower_closed_form == pytest.approx(4 / 81, abs=1e-12)
    assert report.lower_refined == pytest.approx(4 / 9, abs=1e-12)
    assert report.refined_n == 3
    assert report.upper == pytest.approx(4 / 3, abs=1e-12)
    assert report.upper_closed_form == pytest.approx(2.0, abs=1e-12)
    assert report.constants.bridge_ratio == pytest.approx(2 / 3, abs=1e-12)


def test_kagome_normalized_refined_is_scaled_combinatorial(kagome):
    # regular graph: normalized terms equal unit counts / degree^n exactly
    report = ps.bounds_for_kind(kagome, "normalized_laplacian", n_max=3)
    for term in report.terms:
        unit = ps.classify(ps.count_walks(kagome, term.n))
        assert term.b1 == pytest.approx(unit.n_plus / 4.0**term.n, abs=1e-15)
        assert term.b2 == pytest.approx(2 * unit.n_odd / 4.0**term.n, abs=1e-15)


def test_single_vertex_normalized_lower():
    g = ps.builtin_graph("zd(2)")
    report = ps.bounds_for_kind(g, "normalized_laplacian")
    # bipartite, one vertex: 4 * dim / kappa_plus^nu
    assert report.lower_closed_form == pytest.approx(8 / 4, abs=1e-12)


def test_adjacency_lower_kagome(kagome):
    report = ps.adjacency_bounds(kagome, 3)
    assert report.lower_refined == pytest.approx(2.0, abs=1e-12)
    assert report.refined_n == 2


def test_adjacency_lower_zd1():
    report = ps.adjacency_bounds(ps.builtin_graph("zd(1)"), 1)
    assert report.lower_refined == pytest.approx(4.0, abs=1e-12)
    assert report.refined_n == 1


def test_adjacency_lower_no_information():
    # length-1 walks on the hexagonal quotient: no loops, nothing to report
    report = ps.adjacency_bounds(ps.builtin_graph("hexagonal"), 1)
    assert report.lower_refined == 0.0
    assert report.refined_n is None


def test_closed_form_lower_past_the_float_range():
    # 4 / kappa**exponent: the exact quotient once the float expression overflows, the same bits before.
    sc = ps.structural_constants(ps.builtin_graph("zd(1)"))
    closed_form = ps.bounds._closed_form_lower
    assert closed_form(sc, 2, 10) == 4.0 / 2**10
    assert closed_form(sc, 2, 1050) == math.ldexp(4.0, -1050)
    assert closed_form(sc, 2, 1100) == 0.0
    assert closed_form(sc, 1e160, 2) == float(Fraction(4) / Fraction(1e160) ** 2) > 0.0


def test_bounds_for_kind_dispatch(kagome):
    for kind in ("laplacian", "schrodinger", "adjacency", "normalized_laplacian", "transition"):
        report = ps.bounds_for_kind(kagome, kind, n_max=2)
        assert report.kind == kind
        assert report.lower <= report.upper
    with pytest.raises(ValueError):
        ps.bounds_for_kind(kagome, "resolvent")
    # the named brackets are bounds_for_kind at their kind
    for bracket, kind in (
        (ps.schrodinger_bounds, "schrodinger"),
        (ps.normalized_bounds, "normalized_laplacian"),
        (ps.adjacency_bounds, "adjacency"),
    ):
        assert bracket(kagome, 2) == ps.bounds_for_kind(kagome, kind, n_max=2)


@pytest.mark.parametrize("n_max", [0, -1])
def test_brackets_refuse_walk_lengths_below_one(kagome, n_max):
    for kind in ps.OPERATOR_KINDS:
        with pytest.raises(ValueError, match="walk length must be positive"):
            ps.bounds_for_kind(kagome, kind, n_max)


@pytest.mark.parametrize(
    "graph",
    [*(random_graph(seed) for seed in range(12)), *(loopless_graph(0, nu, 2) for nu in (4, 6))],
)
def test_upper_is_four_times_the_fewest_bridges(graph):
    # The fewest bridges never exceed the given gauge's, nor the chords of a spanning tree.
    sc = ps.structural_constants(graph)
    assert sc.dim <= sc.min_bridges <= min(sc.bridges, sc.betti)
    for kind in ("adjacency", "schrodinger", "laplacian"):
        report = ps.bounds_for_kind(graph, kind, n_max=2)
        assert report.upper == report.upper_closed_form == 4.0 * sc.min_bridges


@pytest.mark.parametrize("graph", [ps.builtin_graph("kagome"), random_graph(3)], ids=["zero-potential", "potential"])
def test_brackets_share_one_gauge_search_and_one_bipartiteness_test(monkeypatch, graph):
    calls = []
    for name in ("minimize_bridges", "is_bipartite"):
        original = getattr(ps.graphs, name)
        monkeypatch.setattr(ps.graphs, name, lambda g, _f=original, _n=name: calls.append(_n) or _f(g))
    # a fresh graph object, so no fact is known yet
    graph = ps.FundamentalGraph(graph.dim, graph.labels, graph.potential, graph.edges)
    # laplacian first: its bracket reads the zero-potential copy, which shares the facts
    for kind in ("laplacian", *ps.OPERATOR_KINDS):
        ps.bounds_for_kind(graph, kind, n_max=3)
    ps.verify_index_lattice(graph)
    assert sorted(calls) == ["is_bipartite", "minimize_bridges"]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_verify_index_lattice(name):
    g = ps.builtin_graph(name)
    report = ps.verify_index_lattice(g)
    assert report.lattice_ok
    d_star = g.dim if g.dim % 2 == 0 else g.dim + 1
    assert report.witness_n is not None and report.witness_n <= g.num_vertices
    assert report.witness_odd_count >= report.witness_n * d_star


@pytest.mark.parametrize("name", BIPARTITE_BUILTINS)
def test_bipartite_witness(name):
    g = ps.builtin_graph(name)
    report = ps.verify_index_lattice(g)
    assert report.bipartite
    n = report.bipartite_witness_n
    assert n is not None and n <= g.num_vertices
    summary = ps.classify(ps.count_walks(g, n))
    assert summary.n_odd >= 2 * n * g.dim


def test_kagome_witness_details(kagome):
    report = ps.verify_index_lattice(kagome)
    assert report.witness_n == 2
    assert report.witness_odd_count == 8
    assert not report.bipartite


def test_z_cycle_basis_subset():
    report = ps.verify_index_lattice(ps.builtin_graph("z_cycle(3)"))
    assert report.basis_subset is not None
    assert len(report.basis_subset) == 1
    assert report.basis_subset[0].index == (1,)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_basis_subset_is_unimodular_when_found(name):
    g = ps.builtin_graph(name)
    report = ps.verify_index_lattice(g)
    if report.basis_subset is None:
        return
    matrix = np.array([c.index for c in report.basis_subset], dtype=int).T
    assert abs(round(np.linalg.det(matrix))) == 1
    for c in report.basis_subset:
        assert c.length <= g.num_vertices


def _basis_subset_graphs():
    names = BUILTIN_NAMES + ["zd(3)", "zd(4)", "z_cycle(11)"]
    graphs = [pytest.param(ps.builtin_graph(name), id=name) for name in names]
    graphs += [pytest.param(random_graph(seed), id=f"random{seed}") for seed in range(12)]
    loopless = [(0, 6, 2), (1, 8, 2), (2, 6, 3), (3, 8, 1), (4, 8, 3)]
    graphs += [pytest.param(loopless_graph(*args), id=f"loopless{args}") for args in loopless]
    graphs += [pytest.param(supercell(ps.builtin_graph(name), n), id=f"{name}x{n}") for name, n in SUPERCELLS]
    return graphs


@pytest.mark.parametrize("graph", _basis_subset_graphs())
def test_basis_subset_is_the_scans_first_subset(graph):
    cycles = ps.cycle_basis(graph)
    want = scan_unimodular_subset([c.index for c in cycles], graph.dim)
    got = ps.verify_index_lattice(graph).basis_subset
    assert got == (None if want is None else tuple(cycles[j] for j in want))


def test_unimodular_subset_is_the_scans_on_random_vector_sets():
    rng = np.random.default_rng(28)
    found = 0
    for _ in range(3000):
        dim, count = int(rng.integers(1, 5)), int(rng.integers(0, 9))
        vectors = [tuple(int(v) for v in rng.integers(-3, 4, dim)) for _ in range(count)]
        want = scan_unimodular_subset(vectors, dim)
        assert ps.bounds._unimodular_subset(vectors, dim) == want, (vectors, dim)
        found += want is not None
    assert 500 < found < 2500


@pytest.mark.parametrize("dim, count", [(3, 160), (6, 30)])
def test_verify_is_fast_without_a_unimodular_subset(dim, count):
    # Loops 2e_s and 3e_s generate Z^dim, and so does any set holding them.  Add vectors 2u, 3u
    # and (1, 2a, 2b, ...): any dim of them have an even determinant if one is 2u or two are of
    # the third form, else one is 3u and 3 divides it.  So no subset is unimodular, and the
    # plain scan over all C(count, dim) subsets takes seconds.
    units = [tuple(f * (j == s) for j in range(dim)) for s in range(dim) for f in (2, 3)]
    odd = [(1, *(2 * a for a in tail)) for tail in itertools.islice(itertools.product(range(-1, 2), repeat=dim - 1), 4)]
    steps = itertools.product(range(-2, 3), repeat=dim)
    scaled = [tuple(f * v for v in u) for u in steps if any(u) for f in (2, 3)]
    vectors = list(dict.fromkeys(units + odd + scaled))[:count]
    assert len(vectors) == count
    graph = ps.build_graph(dim, ["o"], [("o", "o", v) for v in vectors])
    start = time.perf_counter()
    report = ps.verify_index_lattice(graph)
    assert time.perf_counter() - start < 0.1
    assert report.lattice_ok and report.basis_subset is None


def test_measure_lower_scaled_by_bands(fig4):
    report = ps.bounds_for_kind(fig4, "normalized_laplacian")
    assert report.measure_lower == pytest.approx(report.lower / 4)


def test_cubic_lattice_bracket_is_sharp():
    # zd(3): both bracket sides equal the swept bandwidth 12
    g = ps.builtin_graph("zd(3)")
    report = ps.bounds_for_kind(g, "laplacian")
    assert report.constants.bipartite
    assert report.lower_closed_form == pytest.approx(12.0, abs=1e-12)
    assert report.upper == pytest.approx(12.0, abs=1e-12)
    table = ps.band_structure(g, "laplacian", ps.KGrid(3, 16))
    assert ps.total_bandwidth(table) == pytest.approx(12.0, abs=1e-10)


def test_one_dimensional_chain_bandwidth_equals_measure():
    # for the integer-line quotient the bands touch but never overlap, so the
    # total bandwidth and the spectrum measure coincide and sit in the bracket
    rng = np.random.default_rng(51)
    g = ps.builtin_graph("z_cycle(5)").with_potential(list(rng.uniform(-1.5, 1.5, 5)))
    table = ps.band_structure(g, "schrodinger", ps.KGrid(1, 128))
    sigma = ps.total_bandwidth(table)
    assert ps.spectrum_measure(table) == pytest.approx(sigma, abs=1e-9)
    report = ps.bounds_for_kind(g, "schrodinger")
    assert report.lower - 1e-9 <= sigma <= 4.0 + 1e-9

