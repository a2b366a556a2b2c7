"""Graph model: parsing, structural invariants, gauges, cycle space."""

import inspect
import itertools
import json
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import periodic_spectra as ps
from periodic_spectra.errors import GraphFormatError, SearchCapExceeded

from conftest import (
    BUILTIN_NAMES,
    box_min_bridges,
    exhaustive_tree_search,
    loopless_graph,
    random_graph,
    regular_graph,
    unchecked_graph,
)

HEX_FILE = json.dumps(
    {
        "dimension": 2,
        "vertices": [{"id": "v1"}, {"id": "v2", "potential": 0.5}],
        "edges": [
            {"from": "v1", "to": "v2", "index": [0, 0]},
            {"from": "v1", "to": "v2", "index": [1, 0]},
            {"from": "v1", "to": "v2", "index": [0, 1]},
        ],
    }
)


def test_parse_hexagonal_file():
    g = ps.parse_graph(HEX_FILE)
    assert g.num_vertices == 2
    assert len(g.edges) == 6
    assert g.potential == (0.0, 0.5)
    # inverse orientation carries the negated index
    fwd, back = g.edges[2], g.edges[3]
    assert back.tail == fwd.head and back.index == (-1, 0)


def test_parse_single_loop():
    text = json.dumps(
        {
            "dimension": 1,
            "vertices": [{"id": "o"}],
            "edges": [{"from": "o", "to": "o", "index": [1]}],
        }
    )
    g = ps.parse_graph(text)
    assert g.num_vertices == 1
    assert g.degrees == (2,)


def test_parse_kagome_like_roundtrip(kagome):
    text = json.dumps(ps.graph_to_dict(kagome))
    again = ps.parse_graph(text)
    assert again.num_vertices == 3
    assert len(again.edges) == 12
    assert [e.index for e in again.unoriented()] == [e.index for e in kagome.unoriented()]


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.pop("dimension"), "top-level"),
        (lambda d: d["vertices"].append({"id": "v1"}), "duplicate"),
        (lambda d: d["edges"].append({"from": "v1", "to": "nope", "index": [0, 0]}), "unknown"),
        (lambda d: d["edges"].append({"from": "v1", "to": "v2", "index": [0]}), "length"),
        (lambda d: d["edges"].append({"from": "v1", "to": "v2", "index": [0.5, 0]}), "integer"),
        (lambda d: d["edges"][0].update(index=5), "list of 2 integers"),
        (lambda d: d["vertices"][0].update(potential=[1]), "must be a number"),
        (lambda d: d["vertices"][0].update(potential=True), "must be a number"),
        (lambda d: d["vertices"][0].update(potential=float("nan")), "finite"),
        (lambda d: d["vertices"][0].update(potential=float("-inf")), "finite"),
        (lambda d: d.update(edges=5), "lists"),
    ],
)
def test_parse_errors(mutate, message):
    doc = json.loads(HEX_FILE)
    mutate(doc)
    with pytest.raises(GraphFormatError, match=message):
        ps.parse_graph(json.dumps(doc))


@pytest.mark.parametrize("dimension", [1.9, True, 1.0, "1", None])
def test_parse_rejects_non_integer_dimension(dimension):
    # int() would read all of these as rank 1, the rank the edges have.
    doc = {
        "dimension": dimension,
        "vertices": [{"id": "o"}],
        "edges": [{"from": "o", "to": "o", "index": [1]}],
    }
    with pytest.raises(GraphFormatError, match="dimension must be an integer"):
        ps.parse_graph(json.dumps(doc))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "nan"])
def test_builders_reject_non_finite_potential(fig4, value):
    with pytest.raises(GraphFormatError, match="finite"):
        ps.build_graph(1, ["o"], [("o", "o", (1,))], {"o": value})
    with pytest.raises(GraphFormatError, match="finite"):
        fig4.with_potential({"x2": value})
    with pytest.raises(GraphFormatError, match="finite"):
        fig4.with_potential([0.0, value, 0.0, 0.0])
    with pytest.raises(GraphFormatError, match="finite"):
        ps.FundamentalGraph(fig4.dim, fig4.labels, (0.0, float(value), 0.0, 0.0), fig4.edges)


def test_parse_rejects_malformed_text():
    with pytest.raises(GraphFormatError, match="malformed"):
        ps.parse_graph("{not json")


def test_parse_rejects_disconnected():
    doc = {
        "dimension": 1,
        "vertices": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "edges": [
            {"from": "a", "to": "b", "index": [0]},
            {"from": "a", "to": "b", "index": [1]},
        ],
    }
    with pytest.raises(GraphFormatError, match="connected"):
        ps.parse_graph(json.dumps(doc))


def test_parse_rejects_sublattice_indices():
    # Only cycle index (2, 0): generates 2Z x {0}, not Z^2.
    doc = {
        "dimension": 2,
        "vertices": [{"id": "a"}],
        "edges": [{"from": "a", "to": "a", "index": [2, 0]}],
    }
    with pytest.raises(GraphFormatError, match="Z\\^2"):
        ps.parse_graph(json.dumps(doc))
    g = unchecked_graph(2, ["a"], [("a", "a", (2, 0))])
    assert not ps.index_lattice_check(g)


def _pair(tail, head, index, pair_id=0):
    return [ps.OrientedEdge(tail, head, index, pair_id), ps.OrientedEdge(head, tail, tuple(-v for v in index), pair_id)]


# A valid rank-1 quotient on vertices a, b: edge a-b of index 0 and a unit loop at a.
_VALID = dict(dim=1, labels=("a", "b"), potential=(0.0, 0.0), edges=(*_pair(0, 1, (0,)), *_pair(0, 0, (1,), 1)))
_LOOP = _pair(0, 0, (1,), 1)


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(dim=0), "lattice rank"),
        (dict(labels=(), potential=()), "at least one vertex"),
        (dict(labels=("a", "a")), "duplicate vertex label"),
        (dict(potential=(0.0,)), "one value per vertex"),
        (dict(potential=(0.0, float("inf"))), "finite"),
        (dict(potential=(1e308, -1e308)), "differ by a finite float"),
        (dict(edges=_VALID["edges"][:3]), "inverse pairs"),
        (dict(edges=(*_pair(0, 2, (0,)), *_LOOP)), "endpoint out of range"),
        (dict(edges=(*_pair(-1, 1, (0,)), *_LOOP)), "endpoint out of range"),
        (dict(edges=(ps.OrientedEdge(0, 1, 5, 0), ps.OrientedEdge(1, 0, 5, 0), *_LOOP)), "list of 1 integers"),
        (dict(edges=(*_pair(0, 1, (0, 0)), *_LOOP)), "length 2, expected 1"),
        (dict(edges=(*_pair(0, 1, (0.5,)), *_LOOP)), "integers"),
        (dict(edges=(*_pair(0, 1, (2**31,)), *_LOOP)), "exceeds"),
        # the inverse orientation is checked against the validated stored one
        (dict(edges=(_pair(0, 1, (0,))[0], ps.OrientedEdge(1, 1, (0,), 0), *_LOOP)), "mispaired"),
        (dict(edges=(_pair(0, 1, (0,))[0], ps.OrientedEdge(1, 0, (0.5,), 0), *_LOOP)), "mispaired"),
        (dict(edges=(_pair(0, 1, (0,))[0], ps.OrientedEdge(1, 0, (0, 0), 0), *_LOOP)), "mispaired"),
        (dict(edges=(_pair(0, 1, (0,))[0], ps.OrientedEdge(1, 0, (2**31,), 0), *_LOOP)), "mispaired"),
        (dict(edges=(_pair(0, 1, (0,))[0], _LOOP[0], _pair(0, 1, (0,))[1], _LOOP[1])), "mispaired"),
        (dict(edges=(*_pair(0, 1, (0,), 1), *_LOOP)), "mispaired"),
        (dict(edges=(*_pair(0, 0, (1,)), *_pair(1, 1, (1,), 1))), "not connected"),
    ],
)
def test_graph_construction_rejections(change, message):
    ps.FundamentalGraph(**_VALID)
    with pytest.raises(GraphFormatError, match=message):
        ps.FundamentalGraph(**{**_VALID, **change})


@pytest.mark.parametrize(
    "vertices, edges, potential, message",
    [
        (["a", "a"], [("a", "a", (1,))], None, "duplicate vertex label"),
        (["a"], [("a", "a", (1,))], {"b": 1.0}, "unknown vertex label"),
        # disconnected: an isolated vertex, and a second component made only of loops
        (["a", "b", "c"], [("a", "a", (1,)), ("a", "b", (0,))], None, "graph is not connected"),
        (["a", "b"], [("a", "a", (1,)), ("b", "b", (1,))], None, "graph is not connected"),
        (["a", "b"], [("b", "b", (1,))], None, "graph is not connected"),
    ],
)
def test_build_graph_rejections(vertices, edges, potential, message):
    with pytest.raises(GraphFormatError, match=message):
        ps.build_graph(1, vertices, edges, potential)


# -- builtin zoo --------------------------------------------------------------

EXPECTED_SHAPE = {
    # name: (nv, unoriented edges, betti, bridges, degrees)
    "kagome": (3, 6, 4, 3, (4, 4, 4)),
    "hexagonal": (2, 3, 2, 2, (3, 3)),
    "fig4_chain": (4, 5, 2, 1, (3, 2, 2, 3)),
    "square_diag": (4, 6, 3, 2, (3, 3, 3, 3)),
    "zd(1)": (1, 1, 1, 1, (2,)),
    "zd(2)": (1, 2, 2, 2, (4,)),
    "z_cycle(3)": (3, 3, 1, 1, (2, 2, 2)),
    "z_cycle(4)": (4, 4, 1, 1, (2, 2, 2, 2)),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_SHAPE))
def test_builtin_shapes(name):
    g = ps.builtin_graph(name)
    nv, ne, betti, bridges, degrees = EXPECTED_SHAPE[name]
    assert g.num_vertices == nv
    assert g.num_edges == ne
    assert ps.betti_number(g) == betti
    assert ps.bridge_count(g) == bridges
    assert g.degrees == degrees
    assert ps.index_lattice_check(g)


def test_builtin_unknown_name():
    with pytest.raises(GraphFormatError):
        ps.builtin_graph("triangular")
    with pytest.raises(GraphFormatError):
        ps.builtin_graph("zd(0)")


def test_vertex_degrees_mapping(fig4):
    assert ps.vertex_degrees(fig4) == {"x1": 3, "x2": 2, "x3": 2, "x4": 3}


# -- gauge transforms ---------------------------------------------------------


def test_gauge_identity(kagome):
    same = ps.gauge_transform(kagome, ps.Gauge.zero(kagome))
    assert [e.index for e in same.unoriented()] == [e.index for e in kagome.unoriented()]


def test_gauge_maps_between_hexagonal_embeddings(hexagonal):
    # The second standard index assignment of the honeycomb quotient.
    other = ps.build_graph(
        2,
        ["v1", "v2"],
        [("v1", "v2", (-1, -1)), ("v1", "v2", (0, -1)), ("v1", "v2", (-1, 0))],
    )
    gauge = ps.Gauge(((1, 1), (0, 0)))
    moved = ps.gauge_transform(hexagonal, gauge)
    assert [e.index for e in moved.unoriented()] == [e.index for e in other.unoriented()]


def _random_gauge(graph, rng):
    shifts = [tuple(int(v) for v in rng.integers(-3, 4, graph.dim)) for _ in graph.labels]
    shifts[0] = (0,) * graph.dim
    return ps.Gauge(tuple(shifts))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_gauge_preserves_structure(name):
    g = ps.builtin_graph(name)
    rng = np.random.default_rng(7)
    _, base_matrix = ps.cycle_basis(g)
    for _ in range(5):
        moved = ps.gauge_transform(g, _random_gauge(g, rng))
        assert moved.degrees == g.degrees
        assert ps.betti_number(moved) == ps.betti_number(g)
        assert ps.is_bipartite(moved)[0] == ps.is_bipartite(g)[0]
        _, matrix = ps.cycle_basis(moved)
        assert np.array_equal(matrix, base_matrix)


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=25, deadline=None)
def test_gauge_cycle_indices_invariant_hypothesis(a, b, c, d):
    g = ps.builtin_graph("kagome")
    gauge = ps.Gauge(((0, 0), (a, b), (c, d)))
    _, before = ps.cycle_basis(g)
    _, after = ps.cycle_basis(ps.gauge_transform(g, gauge))
    assert np.array_equal(before, after)


def test_gauge_normalizes_pinned_vertex():
    gauge = ps.Gauge(((2, 1), (3, 3)))
    assert gauge.shifts[0] == (0, 0)
    assert gauge.shifts[1] == (1, 2)


# -- bridge minimization ------------------------------------------------------


@pytest.mark.parametrize(
    "name, expected",
    [("kagome", 3), ("fig4_chain", 1), ("hexagonal", 2), ("square_diag", 2), ("zd(2)", 2)],
)
def test_minimize_bridges_builtins(name, expected):
    g = ps.builtin_graph(name)
    gauge, count = ps.minimize_bridges(g)
    assert count == expected
    assert g.dim <= count <= ps.bridge_count(g)
    assert count <= ps.betti_number(g)
    # the returned gauge actually realizes the count
    assert ps.bridge_count(ps.gauge_transform(g, gauge)) == count


def test_minimize_bridges_keeps_minimal_gauge(kagome):
    # an input that is already minimal comes back with the zero gauge
    gauge, count = ps.minimize_bridges(kagome)
    assert count == ps.bridge_count(kagome)
    assert gauge == ps.Gauge.zero(kagome)


def test_minimize_bridges_can_undo_bad_gauge(kagome):
    rng = np.random.default_rng(3)
    messed = ps.gauge_transform(kagome, _random_gauge(kagome, rng))
    assert ps.bridge_count(messed) >= 3
    gauge, count = ps.minimize_bridges(messed)
    assert count == 3
    assert ps.bridge_count(ps.gauge_transform(messed, gauge)) == 3


def test_minimize_bridges_beats_any_box():
    # Two -2 edges and a unit loop: the gauge (0, 2, 4) leaves one bridge,
    # which no shift box of radius below 4 contains.
    g = ps.build_graph(1, ["v0", "v1", "v2"], [("v0", "v1", (-2,)), ("v1", "v2", (-2,)), ("v1", "v1", (1,))])
    assert box_min_bridges(g, 3) == 2
    gauge, count = ps.minimize_bridges(g)
    assert count == 1
    assert ps.bridge_count(ps.gauge_transform(g, gauge)) == 1


def _complete_graph(nv, dim, seed):
    """Rank-``dim`` quotient on the complete graph, indices drawn from {-1, 0, 1}."""
    rng = np.random.default_rng(seed)
    labels = [f"v{i}" for i in range(nv)]
    edges = [
        (labels[a], labels[b], tuple(int(x) for x in rng.integers(-1, 2, dim)))
        for a, b in itertools.combinations(range(nv), 2)
    ]
    return ps.build_graph(dim, labels, edges)


def test_minimize_bridges_dense_k9():
    # 9^7 spanning trees; the pruned search visits a few thousand forests
    g = _complete_graph(9, 1, seed=0)
    gauge, count = ps.minimize_bridges(g)
    assert g.dim <= count <= box_min_bridges(g, 1) <= ps.bridge_count(g)
    assert ps.bridge_count(ps.gauge_transform(g, gauge)) == count


def test_minimize_bridges_large_dense_graph_refuses():
    # 1770 edges: the cap is spent before the first spanning tree is reached
    g = _complete_graph(60, 1, seed=1)
    with pytest.raises(SearchCapExceeded):
        ps.minimize_bridges(g, cap=50_000)


def test_minimize_bridges_depth_is_not_recursion():
    # the search keeps its own stack: one frame per edge would overflow here
    g = ps.builtin_graph("z_cycle(200)")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        _, count = ps.minimize_bridges(g)
    finally:
        sys.setrecursionlimit(limit)
    assert count == 1


def test_minimize_bridges_deep_search_is_not_recursion():
    # x100 moved off the floor: the search joins about 199 edges before its
    # first tree, on its own stack, where one frame per join would overflow
    cycle = ps.builtin_graph("z_cycle(200)")
    g = ps.gauge_transform(cycle, ps.Gauge(tuple((int(v == 99),) for v in range(200))))
    assert ps.bridge_count(g) > ps.graphs.bridge_floor(g) == 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        gauge, count = ps.minimize_bridges(g)
    finally:
        sys.setrecursionlimit(limit)
    assert count == ps.bridge_count(ps.gauge_transform(g, gauge)) == 1


def test_minimize_bridges_cap():
    # the cap counts edge scans: a tree on square_diag's 4 vertices takes 4
    # visited forests, each scanning its 6 edges.  Its given gauge meets the
    # floor and needs no search, so move x2 off it: 4 bridges against 2.
    square = ps.builtin_graph("square_diag")
    g = ps.gauge_transform(square, ps.Gauge(((0, 0), (1, 0), (0, 0), (0, 0))))
    assert ps.bridge_count(g) > ps.graphs.bridge_floor(g) == 2
    with pytest.raises(SearchCapExceeded):
        ps.minimize_bridges(g, cap=10)
    assert ps.minimize_bridges(g, cap=100)[1] == 2


def _assert_search_is_exhaustive(g):
    """minimize_bridges returns the exhaustive search's gauge and count, never below the floor."""
    gauge, count = ps.minimize_bridges(g)
    assert (gauge, count) == exhaustive_tree_search(g)
    assert ps.graphs.bridge_floor(g) <= count


@pytest.mark.parametrize("name", BUILTIN_NAMES + ["zd(3)", "z_cycle(10)", "z_cycle(11)"])
def test_minimize_bridges_is_the_exhaustive_search_builtins(name):
    g = ps.builtin_graph(name)
    _assert_search_is_exhaustive(g)
    # moved gauges no longer meet the floor, so the search runs
    rng = np.random.default_rng(49)
    for _ in range(3):
        _assert_search_is_exhaustive(ps.gauge_transform(g, _random_gauge(g, rng)))


@pytest.mark.parametrize("seed", range(10))
def test_minimize_bridges_is_the_exhaustive_search_random(seed):
    _assert_search_is_exhaustive(random_graph(seed))
    _assert_search_is_exhaustive(regular_graph(seed, 3 + seed % 6, 1 + seed % 2))


@pytest.mark.parametrize("seed, nu, dim", [(0, 4, 1), (1, 5, 2), (2, 6, 3), (3, 7, 2), (4, 8, 1), (5, 8, 2), (6, 10, 1)])
def test_minimize_bridges_is_the_exhaustive_search_loopless(seed, nu, dim):
    _assert_search_is_exhaustive(loopless_graph(seed, nu, dim))


def test_bridge_floor_takes_the_larger_bound(kagome):
    # z_cycle: one cycle of rank 1, no vertex pair joined twice
    assert ps.graphs.bridge_floor(ps.builtin_graph("z_cycle(10)")) == 1
    # kagome: cycle rank 2, but each of its three vertex pairs has two edges with distinct offsets
    assert ps.graphs.bridge_floor(kagome) == 3
    # zd(2): its two loops are bridges in every gauge
    assert ps.graphs.bridge_floor(ps.builtin_graph("zd(2)")) == 2


@pytest.mark.parametrize("name", ["kagome", "hexagonal", "z_cycle(200)", "square_diag", "fig4_chain"])
def test_minimize_bridges_at_the_floor_does_no_search(name):
    # the given gauge meets the floor: no edge scan, and the zero gauge comes back
    g = ps.builtin_graph(name)
    assert ps.minimize_bridges(g, cap=0) == (ps.Gauge.zero(g), ps.bridge_count(g))


def test_graph_facts_are_computed_once(monkeypatch, kagome):
    calls = []
    for name in ("minimize_bridges", "is_bipartite"):
        original = getattr(ps.graphs, name)
        monkeypatch.setattr(ps.graphs, name, lambda g, _f=original, _n=name: calls.append(_n) or _f(g))
    assert kagome.fewest_bridges == kagome.fewest_bridges == (ps.Gauge.zero(kagome), 3)
    # a copy with a new potential shares the facts, which do not read it,
    # whichever of the two asks first
    moved = kagome.with_potential([1.0, 2.0, 3.0])
    assert moved.bipartition == moved.bipartition == ps.is_bipartite(kagome)
    assert (kagome.fewest_bridges, kagome.bipartition) == (moved.fewest_bridges, moved.bipartition)
    assert calls == ["minimize_bridges", "is_bipartite"]


# -- bipartiteness ------------------------------------------------------------


@pytest.mark.parametrize(
    "name, expected",
    [
        ("hexagonal", True),
        ("kagome", False),
        ("zd(1)", True),
        ("zd(2)", True),
        ("z_cycle(3)", True),
        ("z_cycle(4)", True),
        ("fig4_chain", True),
        ("square_diag", True),
    ],
)
def test_is_bipartite(name, expected):
    g = ps.builtin_graph(name)
    flag, witness = ps.is_bipartite(g)
    assert flag is expected
    if not flag:
        assert witness is None
        return
    parity, sign = witness
    for e in g.unoriented():
        lhs = parity[e.tail] + parity[e.head] + sum(s * t for s, t in zip(sign, e.index))
        assert lhs % 2 == 1


def _two_colourable(graph, sign):
    """Whether some vertex parities p make ``p(tail) + p(head) + <sign, index>`` odd on every edge."""
    parity = [None] * graph.num_vertices
    for root in range(graph.num_vertices):
        if parity[root] is not None:
            continue
        parity[root], stack = 0, [root]
        while stack:
            v = stack.pop()
            for e in graph.out_edges[v]:
                want = (parity[v] + 1 + sum(s * t for s, t in zip(sign, e.index))) % 2
                if parity[e.head] is None:
                    parity[e.head] = want
                    stack.append(e.head)
                elif parity[e.head] != want:
                    return False
    return True


def _random_covers(count):
    """Seeded random quotients built bipartite from drawn parities, a third with one edge's parity flipped."""
    rng = np.random.default_rng(31)
    while count:
        dim, nu = int(rng.integers(1, 4)), int(rng.integers(1, 7))
        parity, sign = rng.integers(0, 2, nu), rng.integers(0, 2, dim)
        sign[int(rng.integers(dim))] = 1
        labels = [f"v{i}" for i in range(nu)]
        edges = []
        for _ in range(int(rng.integers(nu, nu + 3 * dim + 2))):
            a, b = int(rng.integers(nu)), int(rng.integers(nu))
            index = rng.integers(-2, 3, dim)
            if (parity[a] + parity[b] + index @ sign) % 2 == 0:
                index[int(np.flatnonzero(sign)[0])] += 1
            edges.append((labels[a], labels[b], tuple(int(v) for v in index)))
        if rng.integers(3) == 0:
            tail, head, index = edges[0]
            edges[0] = (tail, head, (index[0] + 1, *index[1:]))
        try:
            yield ps.build_graph(dim, labels, edges, {})
        except GraphFormatError:  # disconnected, or cycle indices short of Z^d
            continue
        count -= 1


def test_is_bipartite_witness_on_random_covers():
    flags = []
    for g in _random_covers(300):
        flag, witness = ps.is_bipartite(g)
        flags.append(flag)
        assert flag == any(_two_colourable(g, s) for s in itertools.product((0, 1), repeat=g.dim))
        if not flag:
            assert witness is None
            continue
        parity, sign = witness
        assert len(parity) == g.num_vertices and len(sign) == g.dim
        for e in g.unoriented():
            assert (parity[e.tail] + parity[e.head] + sum(s * t for s, t in zip(sign, e.index))) % 2 == 1
    assert 0 < flags.count(False) < flags.count(True)


def test_hexagonal_witness_has_zero_sign_vector(hexagonal):
    _, (parity, sign) = ps.is_bipartite(hexagonal)
    assert parity[0] != parity[1]
    assert sign == (0, 0)


def test_zd1_witness_uses_sign_vector():
    _, (parity, sign) = ps.is_bipartite(ps.builtin_graph("zd(1)"))
    assert sign == (1,)


# -- cycle space --------------------------------------------------------------


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_cycle_basis_shape(name):
    g = ps.builtin_graph(name)
    cycles, matrix = ps.cycle_basis(g)
    assert len(cycles) == ps.betti_number(g)
    assert matrix.shape == (g.dim, len(cycles))
    for c in cycles:
        assert c.length <= g.num_vertices + 1
        # proper: no step immediately undone, cyclically
        for e, f in zip(c.edges, c.edges[1:] + c.edges[:1]):
            assert f != e.reversed()
        # no repeated interior vertex
        interior = [e.tail for e in c.edges]
        assert len(set(interior)) == len(interior)


def test_z_cycle_basis_single_wrap():
    cycles, matrix = ps.cycle_basis(ps.builtin_graph("z_cycle(4)"))
    assert len(cycles) == 1
    assert cycles[0].index == (1,)
    assert matrix.tolist() == [[1]]


def _tree_graphs():
    graphs = [ps.builtin_graph(name) for name in BUILTIN_NAMES + ["zd(3)", "z_cycle(11)"]]
    for seed in range(10):
        graphs += [random_graph(seed), regular_graph(seed, 3 + seed % 6, 1 + seed % 2), loopless_graph(seed, 4 + seed % 5, 1 + seed % 3)]
    # cycle indices short of Z^d
    graphs += [
        unchecked_graph(2, ["a"], [("a", "a", (2, 0))]),
        unchecked_graph(1, ["a", "b"], [("a", "b", (0,)), ("a", "a", (0,))]),
        unchecked_graph(2, ["a", "b", "c"], [("a", "b", (1, 0)), ("b", "c", (0, 2)), ("c", "a", (0, 0)), ("a", "c", (1, 2))]),
    ]
    return graphs


@pytest.mark.parametrize("graph", _tree_graphs())
def test_spanning_tree_gives_the_cycle_basis_indices(graph):
    parent, potential = graph._tree
    # breadth first from vertex 0, first edge wins, in out_edges order
    first = {0: None}
    queue = deque([0])
    while queue:
        for e in graph.out_edges[queue.popleft()]:
            if e.head not in first:
                first[e.head] = e
                queue.append(e.head)
    assert parent == tuple(first[v] for v in range(graph.num_vertices))
    for e in filter(None, parent):
        assert potential[e.head] == tuple(a + t for a, t in zip(potential[e.tail], e.index))
    # one chord per basis cycle, whose index it carries
    cycles, _ = ps.cycle_basis(graph)
    indices = [index for _, index in graph._chords]
    assert [e for e, _ in graph._chords] == [c.edges[0] for c in cycles]
    assert indices == [tuple(int(v) for v in np.sum([e.index for e in c.edges], axis=0)) for c in cycles]
    assert ps.index_lattice_check(graph) == ps.graphs._generates_lattice(indices, graph.dim)


def test_build_graph_makes_no_cycle_record(monkeypatch):
    made = []
    monkeypatch.setattr(ps.graphs.CycleRecord, "__post_init__", lambda record: made.append(record))
    for name in BUILTIN_NAMES:
        ps.builtin_graph(name)
    for seed in range(3):
        random_graph(seed)
        loopless_graph(seed, 6, 2)
    assert made == []
    ps.cycle_basis(ps.builtin_graph("kagome"))
    assert len(made) == 4


def test_cycle_basis_of_a_long_cycle():
    cycles, matrix = ps.cycle_basis(ps.builtin_graph("z_cycle(3000)"))
    assert [(c.length, c.index) for c in cycles] == [(3000, (1,))]
    assert matrix.tolist() == [[1]]


def _spans_standard_basis(matrix, radius=3):
    """Independent lattice oracle: every unit vector is a small integer combo."""
    import itertools

    d, width = matrix.shape
    targets = {tuple(int(v) for v in row) for row in np.eye(d, dtype=int)}
    seen = set()
    for combo in itertools.product(range(-radius, radius + 1), repeat=width):
        seen.add(tuple(int(v) for v in matrix @ np.array(combo)))
    return targets <= seen


@pytest.mark.parametrize("name", ["kagome", "hexagonal", "square_diag", "zd(2)"])
def test_index_lattice_check_against_enumeration(name):
    g = ps.builtin_graph(name)
    _, matrix = ps.cycle_basis(g)
    assert ps.index_lattice_check(g)
    assert _spans_standard_basis(matrix)


def test_index_lattice_check_false_for_tree_plus_null_loop():
    g = unchecked_graph(1, ["a", "b"], [("a", "b", (0,)), ("a", "a", (0,))])
    _, matrix = ps.cycle_basis(g)
    assert not matrix.any()
    assert not ps.index_lattice_check(g)


def _snf_generates(columns, dim):
    """Oracle: the Smith normal form has ``dim`` invariant factors, all 1."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    if not columns:
        return False
    snf = smith_normal_form(sympy.Matrix(dim, len(columns), lambda i, j: columns[j][i]))
    factors = [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i] != 0]
    return len(factors) == dim and all(v == 1 for v in factors)


@st.composite
def _integer_columns(draw):
    dim = draw(st.integers(1, 4))
    column = st.lists(st.integers(-6, 6), min_size=dim, max_size=dim)
    return dim, draw(st.lists(column, max_size=8))


@given(_integer_columns())
@settings(max_examples=300, deadline=None)
@example((2, [[2, 0], [0, 1]]))
@example((2, [[2, 3], [3, 5], [0, 0]]))
@example((3, [[6, 0, 0], [0, 1, 0], [0, 0, 1], [3, 0, 0], [4, 0, 0]]))
@example((1, [[0], [0]]))
def test_generates_lattice_matches_smith_normal_form(case):
    dim, columns = case
    expected = _snf_generates(columns, dim)
    assert ps.graphs._generates_lattice(columns, dim) == expected


@st.composite
def _square_matrices(draw):
    dim = draw(st.integers(1, 4))
    if draw(st.booleans()):
        entries = st.integers(-6, 6)
        return [[draw(entries) for _ in range(dim)] for _ in range(dim)]
    # Unit lower times unit upper triangular, one column negated: |det| == 1.
    small = st.integers(-2, 2)
    lower = np.array([[1 if i == j else draw(small) if i > j else 0 for j in range(dim)] for i in range(dim)])
    upper = np.array([[1 if i == j else draw(small) if i < j else 0 for j in range(dim)] for i in range(dim)])
    product = lower @ upper
    product[:, draw(st.integers(0, dim - 1))] *= draw(st.sampled_from([1, -1]))
    return product.tolist()


@given(_square_matrices())
@settings(max_examples=200, deadline=None)
def test_generates_lattice_on_square_matrices_is_unit_determinant(rows):
    sympy = pytest.importorskip("sympy")
    columns = [list(col) for col in zip(*rows)]
    expected = abs(sympy.Matrix(rows).det()) == 1
    assert ps.graphs._generates_lattice(columns, len(rows)) == expected


def test_runtime_does_not_import_sympy(tmp_path):
    path = tmp_path / "hex.json"
    path.write_text(HEX_FILE)
    code = (
        "import sys\n"
        "import periodic_spectra as ps\n"
        "report = ps.verify_index_lattice(ps.load_graph(sys.argv[1]))\n"
        "assert report.lattice_ok and report.basis_subset is not None\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))\n"
    )
    src = str(Path(ps.__file__).resolve().parents[1])
    env = {"PYTHONPATH": src, "PATH": ""}
    done = subprocess.run(
        [sys.executable, "-c", code, str(path)], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout == "[]\n"


def test_bridge_count_zero_when_indices_vanish():
    g = unchecked_graph(1, ["a", "b"], [("a", "b", (0,)), ("b", "a", (0,))])
    assert ps.bridge_count(g) == 0


def test_with_potential(fig4):
    g = fig4.with_potential({"x2": 1.5})
    assert g.potential == (0.0, 1.5, 0.0, 0.0)
    assert fig4.potential == (0.0, 0.0, 0.0, 0.0)
    g2 = fig4.with_potential([1, 2, 3, 4])
    assert g2.potential == (1.0, 2.0, 3.0, 4.0)


def test_with_potential_checks_only_the_new_potential(monkeypatch, kagome):
    calls = []
    original = ps.graphs._as_index
    monkeypatch.setattr(ps.graphs, "_as_index", lambda *args: calls.append(args) or original(*args))
    kagome._chords  # the source's tree and chords, built before the copy
    moved = kagome.with_potential([1.0, -2.0, 0.5])
    assert calls == []
    fresh = ps.FundamentalGraph(kagome.dim, kagome.labels, (1.0, -2.0, 0.5), kagome.edges)
    assert calls and moved == fresh and moved.potential == fresh.potential
    for name in ("degrees", "out_edges", "_tree", "_chords", "_facts"):
        assert getattr(moved, name) is getattr(kagome, name)
        assert getattr(moved, name) == getattr(fresh, name)
    with pytest.raises(GraphFormatError, match="potential values must be finite"):
        kagome.with_potential([float("inf"), 0.0, 0.0])
    with pytest.raises(GraphFormatError, match="differ by a finite float"):
        kagome.with_potential([1e308, -1e308, 0.0])
    assert kagome.potential == (0.0, 0.0, 0.0)


def test_index_components_up_to_int32_are_accepted():
    top = ps.graphs.MAX_INDEX_COMPONENT
    graph = ps.build_graph(1, ["a", "b"], [("a", "b", (top,)), ("b", "a", (top,)), ("a", "a", (1,))])
    assert sorted(abs(c.index[0]) for c in ps.cycle_basis(graph)[0]) == [1, 2 * top]
    with pytest.raises(GraphFormatError):
        ps.build_graph(1, ["a", "b"], [("a", "b", (top + 1,)), ("b", "a", (0,)), ("a", "a", (1,))])
