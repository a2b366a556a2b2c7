"""Closed-walk counts, weighted sums, and the dual-engine cross-check."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import periodic_spectra as ps
from periodic_spectra.errors import EngineMismatchError
from periodic_spectra.walks import WalkClassCounts

from conftest import (
    assert_walk_classes_match,
    enumerate_walk_sums,
    full_box_walk_classes,
    loopless_graph,
    max_abs_frequency,
    max_diff,
    unchecked_graph,
)

RNG = np.random.default_rng(31)


def test_kagome_counts(kagome):
    s1 = ps.classify(ps.count_walks(kagome, 1))
    assert (s1.n_zero, s1.n_plus, s1.n_odd) == (0, 0, 0)
    s2 = ps.classify(ps.count_walks(kagome, 2))
    assert (s2.n_zero, s2.n_plus, s2.n_odd) == (12, 12, 8)
    s3 = ps.classify(ps.count_walks(kagome, 3))
    assert (s3.n_zero, s3.n_plus, s3.n_odd) == (12, 36, 24)


def test_hexagonal_counts(hexagonal):
    s2 = ps.classify(ps.count_walks(hexagonal, 2))
    assert (s2.n_zero, s2.n_plus, s2.n_odd) == (6, 12, 8)


def test_zd1_length_one():
    s = ps.classify(ps.count_walks(ps.builtin_graph("zd(1)"), 1))
    assert (s.n_zero, s.n_plus, s.n_odd) == (0, 2, 2)


def test_total_walks_equal_numeric_trace(builtin):
    # sum of all index classes = Tr A^n(0)
    from conftest import numeric_fiber

    for n in (1, 2, 3, 4):
        counts = ps.count_walks(builtin, n)
        total = sum(counts.by_index.values())
        a0 = numeric_fiber(builtin, "adjacency", np.zeros(builtin.dim))
        assert total == pytest.approx(
            np.trace(np.linalg.matrix_power(a0, n)).real, abs=1e-8
        )


def test_reversal_symmetry(builtin):
    for n in (1, 2, 3, 4):
        counts = ps.count_walks(builtin, n)
        for m, c in counts.by_index.items():
            assert counts.value(tuple(-v for v in m)) == c


def test_odd_subset_of_nonzero(builtin):
    for n in range(1, builtin.num_vertices + 1):
        s = ps.classify(ps.count_walks(builtin, n))
        assert s.n_odd <= s.n_plus


def test_fig4_normalized_sums(fig4):
    for n, (b1, b2) in {1: (0, 0), 2: (0, 0), 3: (2 / 3, 4 / 3), 4: (0, 0)}.items():
        s = ps.classify(ps.normalized_walk_sums(fig4, n))
        assert s.b1 == pytest.approx(b1, abs=1e-12)
        assert s.b2 == pytest.approx(b2, abs=1e-12)


def test_fig4_transition_trace_coefficients(fig4):
    series = ps.trace_series(fig4, "transition", 3)
    assert series.coeff((1,)) == pytest.approx(1 / 3, abs=1e-12)
    assert series.coeff((-1,)) == pytest.approx(1 / 3, abs=1e-12)


def test_regular_graph_normalized_equals_scaled_counts(kagome):
    # 4-regular: every step weighs 1/4, so sums are counts / 4^n exactly.
    for n in (1, 2, 3):
        unit = ps.count_walks(kagome, n)
        norm = ps.normalized_walk_sums(kagome, n)
        assert set(unit.by_index) == set(norm.by_index)
        for m, c in unit.by_index.items():
            assert norm.value(m) == pytest.approx(c / 4.0**n, rel=0, abs=0)


def test_zero_potential_regular_graph_weighted_equals_unit(kagome):
    # normalization gives zero self-step weights, killing all loop steps
    for n in (1, 2, 3):
        weighted = ps.weighted_walk_sums(kagome, n)
        unit = ps.count_walks(kagome, n)
        assert weighted.by_index == pytest.approx(unit.by_index)


def test_weighted_single_steps():
    g = ps.builtin_graph("fig4_chain").with_potential([0.5, 1.0, 1.5, 2.0])
    sums = ps.weighted_walk_sums(g, 1)
    v = [g.potential[x] - g.degrees[x] for x in range(4)]
    # the self-steps weigh v shifted so the smallest is 0
    assert sums.value((0,)) == pytest.approx(sum(v) - len(v) * min(v))
    # fig4 has no loop edges: the only length-1 closed walks are self-steps
    assert set(sums.by_index) == {(0,)}


def test_weighted_nonnegative_and_dominating(builtin):
    # shifted self-step weights are nonnegative, so weighted sums dominate
    # the plain counts class by class
    g = builtin.with_potential(list(RNG.uniform(-2, 2, builtin.num_vertices)))
    for n in (1, 2, 3):
        weighted = ps.classify(ps.weighted_walk_sums(g, n))
        unit = ps.classify(ps.count_walks(g, n))
        assert weighted.b1 >= unit.n_plus - 1e-9
        assert weighted.b2 >= 2 * unit.n_odd - 1e-9


def test_classify_empty():
    s = ps.classify(WalkClassCounts(1, "adjacency", 2, {}))
    assert (s.n_zero, s.n_plus, s.n_odd, s.b1, s.b2, s.t0) == (0, 0, 0, 0.0, 0.0, 0.0)


def test_classify_past_float_range_raises_value_error():
    # 2^1100 closed walks: float() of the exact count overflows.
    with pytest.raises(ValueError, match="n=257"):
        ps.classify(WalkClassCounts(257, "adjacency", 1, {(1,): 2**1100}))
    # Two finite weighted sums whose total is not: a float sum would turn inf silently.
    with pytest.raises(ValueError, match="n=2"):
        ps.classify(WalkClassCounts(2, "schrodinger", 1, {(1,): 1e308, (-1,): 1e308}))


def test_classify_rejects_non_integers():
    with pytest.raises(EngineMismatchError):
        ps.classify(WalkClassCounts(1, "adjacency", 1, {(0,): 1.5}))


@st.composite
def _quotients(draw):
    """A connected quotient: a random spanning tree plus extra edges (loops
    and multi-edges allowed), indices in {-1, 0, 1}^d, a random potential."""
    dim = draw(st.integers(1, 2))
    nv = draw(st.integers(1, 5))
    labels = [f"v{i}" for i in range(nv)]
    index = st.tuples(*[st.integers(-1, 1)] * dim)
    edges = [(labels[draw(st.integers(0, child - 1))], labels[child], draw(index)) for child in range(1, nv)]
    vertex = st.integers(0, nv - 1)
    edges += [(labels[a], labels[b], m) for a, b, m in draw(st.lists(st.tuples(vertex, vertex, index), min_size=1, max_size=3))]
    potential = draw(st.lists(st.floats(-3, 3), min_size=nv, max_size=nv))
    return unchecked_graph(dim, labels, edges).with_potential(potential)


@given(_quotients(), st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_transfer_recursion_equals_enumeration(graph, n):
    # One pass of each series, checked against the depth-first search at every length up to n.
    for kind, mode, view in (
        ("adjacency", "unit", ps.count_walks),
        ("schrodinger", "schrodinger", ps.weighted_walk_sums),
        ("transition", "normalized", ps.normalized_walk_sums),
    ):
        series = list(ps.walks.walk_series(graph, kind, n))
        assert [sums.n for sums in series] == list(range(1, n + 1))
        assert view(graph, n) == series[-1]
        for length, sums in enumerate(series, 1):
            oracle = enumerate_walk_sums(graph, length, mode)
            assert (sums.kind, sums.dim) == (kind, graph.dim)
            if mode == "unit":
                assert sums.by_index == oracle
                assert all(type(c) is int for c in sums.by_index.values())
                continue
            assert set(sums.by_index) == set(oracle)
            for m, value in oracle.items():
                assert sums.value(m) == pytest.approx(value, rel=1e-12, abs=0)


def _int_matrix_power_trace(matrix, n):
    power = [[int(i == j) for j in range(len(matrix))] for i in range(len(matrix))]
    for _ in range(n):
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*matrix)] for row in power]
    return sum(power[i][i] for i in range(len(matrix)))


def test_counts_exact_past_float_precision(kagome):
    # every class passes 2^53, where a float count would lose its last digits
    summary = ps.classify(ps.count_walks(kagome, 30))
    assert summary.n_zero == 41922673214714112 and type(summary.n_zero) is int
    # A(k) has integer entries at k = 0 and k = (pi, pi): sums of (+-1)^(m1 + m2)
    fiber = {k: [[0] * 3 for _ in range(3)] for k in ("zero", "pi")}
    for e in kagome.edges:
        fiber["zero"][e.tail][e.head] += 1
        fiber["pi"][e.tail][e.head] += (-1) ** sum(e.index)
    trace_zero = _int_matrix_power_trace(fiber["zero"], 30)
    assert summary.n_zero + summary.n_plus == trace_zero
    assert 2 * summary.n_odd == trace_zero - _int_matrix_power_trace(fiber["pi"], 30)


def test_trace_scales(kagome):
    matrix = ps.walks.walk_matrix(kagome, "adjacency")
    assert list(ps.walks.trace_scales(matrix, 4)) == [3.0 * 4**n for n in range(1, 5)]
    huge = kagome.with_potential([1e300, 0.0, 0.0])
    with pytest.raises(ValueError, match="n=2"):
        ps.walks.trace_scales(ps.walks.walk_matrix(huge, "schrodinger"), 3)


def test_walk_sums_past_float_range_raise_value_error():
    g = ps.builtin_graph("fig4_chain").with_potential([1e200, 0.0, 0.0, 0.0])
    assert ps.weighted_walk_sums(g, 1).value((0,)) == pytest.approx(1e200)
    with pytest.raises(ValueError, match="n=2"):
        ps.weighted_walk_sums(g, 2)


def test_trace_series_dual_engine(builtin):
    g = builtin.with_potential(list(RNG.uniform(-1, 1, builtin.num_vertices)))
    for kind in ("adjacency", "schrodinger", "transition"):
        for n in (1, 2, 3, 4):
            series = ps.trace_series(g, kind, n)
            sums = ps.walk_sums_for_kind(g, kind, n)
            keys = set(series.coeffs) | set(sums.by_index)
            for m in keys:
                assert abs(series.coeff(m) - sums.value(m)) < 1e-9
    # the spectral walk classes, unit, schrodinger and normalized, n <= 6
    assert_walk_classes_match(g, 6)


def test_trace_series_rejects_other_kinds(kagome):
    with pytest.raises(ValueError):
        ps.trace_series(kagome, "laplacian", 2)


def test_trace_series_gauge_invariant(kagome):
    shifts = ((0, 0), (1, -2), (-1, 1))
    moved = ps.gauge_transform(kagome, ps.Gauge(shifts))
    for n in (2, 3):
        a = ps.trace_series(kagome, "adjacency", n)
        b = ps.trace_series(moved, "adjacency", n)
        assert max_diff(a, b) < 1e-9


def test_adjacency_length_one_trace_is_loop_indices():
    g = ps.builtin_graph("zd(2)")
    series = ps.trace_series(g, "adjacency", 1)
    assert series.coeff((1, 0)) == pytest.approx(1.0)
    assert series.coeff((0, 1)) == pytest.approx(1.0)
    assert series.coeff((-1, 0)) == pytest.approx(1.0)
    assert series.coeff((0, -1)) == pytest.approx(1.0)
    assert series.coeff((0, 0)) == 0


def test_torus_average_identity(builtin):
    # grid average of Tr H^n(k) = zero walk coefficient, once the grid
    # resolves every frequency
    g = builtin.with_potential(list(RNG.uniform(-1, 1, builtin.num_vertices)))
    for n in (1, 2, 3):
        series = ps.trace_series(g, "schrodinger", n)
        t_n0 = ps.classify(ps.weighted_walk_sums(g, n)).t0
        npts = max(2, 2 * max_abs_frequency(series) + 2)
        grid = ps.KGrid(g.dim, npts)
        avg = series.eval_grid(grid.points).mean()
        assert avg.real == pytest.approx(t_n0, abs=1e-9)


def test_walk_classes_unit_counts_are_exact(kagome):
    for n, (b1, b2) in enumerate(ps.walk_classes(kagome, "adjacency", 8), 1):
        summary = ps.classify(ps.count_walks(kagome, n))
        assert (b1, b2) == (float(summary.n_plus), float(2 * summary.n_odd))


def test_walk_classes_past_enumeration(kagome):
    # the symbolic power is a reference independent of the eigen-solve
    b1, b2 = ps.walk_classes(kagome, "adjacency", 12)[-1]
    series = ps.trace_series(kagome, "adjacency", 12)
    assert b1 == round(sum(c.real for m, c in series.coeffs.items() if any(m)))
    assert b2 == round(2 * sum(c.real for m, c in series.coeffs.items() if sum(m) % 2))


def test_walk_classes_grid_is_sized_per_axis(monkeypatch, wide_index):
    # n_max * R_s + 1 points on each axis: 203 * 3 * 3 rather than 203**3, plus k = 0 and k = pi.
    sizes = []
    original = ps.walks.fiber_eigenvalues_grid

    def spy(matrix, points, **kwargs):
        sizes.append(len(points))
        return original(matrix, points, **kwargs)

    monkeypatch.setattr(ps.walks, "fiber_eigenvalues_grid", spy)
    assert_walk_classes_match(wide_index, 2)
    assert sizes and max(sizes) <= 2 + 203 * 3 * 3


def _half_box_graphs():
    """Graphs whose index boxes have even and odd sides in 1-, 2- and 3-D, at n_max 3 and 4."""
    # frequency radii (1, 2): at n_max 3 the box is 4 x 7, an even side and an odd one
    mixed = ps.build_graph(2, ["a", "b"], [("a", "b", (0, 0)), ("a", "b", (2, 1)), ("a", "b", (1, 1))])
    return [
        ("z_cycle(4)", ps.builtin_graph("z_cycle(4)")),
        ("kagome", ps.builtin_graph("kagome")),
        ("mixed", mixed.with_potential([0.3, -0.7])),
        ("loopless-2d", loopless_graph(1, 4, 2)),
        ("zd(3)", ps.builtin_graph("zd(3)")),
        ("loopless-3d", loopless_graph(2, 3, 3)),
    ]


@pytest.mark.parametrize("n_max", [3, 4])
@pytest.mark.parametrize("name, graph", _half_box_graphs())
def test_walk_classes_half_box_equals_full_box(monkeypatch, name, graph, n_max):
    solved = []
    original = ps.walks.fiber_eigenvalues_grid

    def spy(matrix, points, **kwargs):
        solved.append(len(points))
        return original(matrix, points, **kwargs)

    for kind in ps.walks.TRACE_KINDS:
        shape = [n_max * r + 1 for r in ps.walks.walk_matrix(graph, kind).frequency_radius]
        box, own_mirrors = np.prod(shape), np.prod([2 - n % 2 for n in shape])
        with monkeypatch.context() as patch:
            patch.setattr(ps.walks, "fiber_eigenvalues_grid", spy)
            half = ps.walk_classes(graph, kind, n_max)
        # k = 0, k = pi, and one point of each mirror pair of the box
        assert solved.pop() == 2 + (box + own_mirrors) // 2
        full, errs = full_box_walk_classes(graph, kind, n_max)
        for got, want, err in zip(half, full, errs):
            assert got[1] == want[1]
            assert abs(got[0] - want[0]) <= err, (name, kind)


def test_walk_setting_keeps_a_zero_potential_graph(fig4):
    assert ps.walks.walk_setting(fig4, "laplacian") == (fig4, "schrodinger")
    assert ps.walks.walk_setting(fig4, "laplacian")[0] is fig4


def test_walk_classes_kinds(kagome):
    assert ps.walk_classes(kagome, "adjacency", 0) == ()
    with pytest.raises(ValueError):
        ps.walk_classes(kagome, "laplacian", 2)


@pytest.mark.parametrize("kind", ["laplacian", "normalized_laplacian"])
def test_walk_engines_take_trace_kinds_only(kagome, kind):
    # An operator kind that is not a trace kind is refused by name, not translated.
    named = re.escape(str(ps.walks.TRACE_KINDS))
    with pytest.raises(ValueError, match=named):
        next(ps.walks.walk_series(kagome, kind, 2))
    with pytest.raises(ValueError, match=named):
        ps.walks.walk_matrix(kagome, kind)
    with pytest.raises(ValueError, match=named):
        ps.walk_classes(kagome, kind, 2)


def test_walk_setting():
    g = ps.builtin_graph("fig4_chain").with_potential([0.5, 1.0, 1.5, 2.0])
    assert ps.walks.TRACE_KINDS == ("adjacency", "schrodinger", "transition")
    for kind, trace_kind in ps.OPERATOR_KINDS.items():
        work, got = ps.walks.walk_setting(g, kind)
        assert got == trace_kind
        assert work.potential == ((0.0,) * 4 if kind == "laplacian" else g.potential)
        assert work.edges == g.edges
    with pytest.raises(ValueError):
        ps.walks.walk_setting(g, "resolvent")
