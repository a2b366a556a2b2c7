"""Property checks on randomly generated quotient graphs (``conftest.random_graph``).

Everything the builtins exercise structurally should survive arbitrary such
graphs: the two trace engines, gauge invariance, classification symmetries,
bound sandwiches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import periodic_spectra as ps

from conftest import (
    assert_trace_matches_walks,
    assert_walk_classes_match,
    box_min_bridges,
    loopless_graph,
    max_diff,
    numeric_fiber,
    random_graph,
    schrodinger_shift,
)

SEEDS = list(range(10))

# (seed, nu, dim) of the loopless quotients (``conftest.loopless_graph``), nu <= 10.
LOOPLESS = [(0, 4, 1), (1, 6, 2), (2, 5, 3), (3, 8, 2), (4, 10, 1)]


@pytest.mark.parametrize("seed", SEEDS)
def test_random_graph_is_valid(seed):
    g = random_graph(seed)
    assert ps.index_lattice_check(g)
    cycles, _ = ps.cycle_basis(g)
    assert len(cycles) == ps.betti_number(g)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_graph_dual_engines(seed):
    g = random_graph(seed)
    for kind in ("adjacency", "schrodinger", "transition"):
        for n in (1, 2, 3):
            assert_trace_matches_walks(g, kind, n)
    assert_walk_classes_match(g, 4)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_walk_classes_match_enumeration_hypothesis(seed):
    assert_walk_classes_match(random_graph(seed), 3)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_graph_symbolic_matches_direct(seed):
    g = random_graph(seed)
    rng = np.random.default_rng(seed)
    for kind in ps.OPERATOR_KINDS:
        sym = ps.symbolic_operator(g, kind)
        k = rng.uniform(0, 2 * np.pi, g.dim)
        assert np.abs(sym.eval_grid([k])[0] - numeric_fiber(g, kind, k)).max() < 1e-12


@pytest.mark.parametrize("seed", SEEDS)
def test_random_graph_walk_symmetries(seed):
    g = random_graph(seed)
    for n in (1, 2, 3):
        counts = ps.count_walks(g, n)
        for m, c in counts.by_index.items():
            assert counts.value(tuple(-v for v in m)) == c
        summary = ps.classify(counts)
        assert summary.n_odd <= summary.n_plus


@pytest.mark.parametrize("seed", SEEDS)
def test_random_graph_gauge_invariance(seed):
    g = random_graph(seed)
    rng = np.random.default_rng(seed)
    shifts = [tuple(int(v) for v in rng.integers(-2, 3, g.dim)) for _ in g.labels]
    shifts[0] = (0,) * g.dim
    moved = ps.gauge_transform(g, ps.Gauge(tuple(shifts)))
    _, base_matrix = ps.cycle_basis(g)
    _, moved_matrix = ps.cycle_basis(moved)
    assert np.array_equal(base_matrix, moved_matrix)
    assert max_diff(ps.trace_series(moved, "adjacency", 3), ps.trace_series(g, "adjacency", 3)) < 1e-9


@pytest.mark.parametrize("seed", SEEDS[:5])
def test_random_graph_sandwich(seed):
    g = random_graph(seed)
    grid = ps.KGrid(g.dim, 32)
    for kind in ("laplacian", "schrodinger", "normalized_laplacian", "adjacency"):
        table = ps.band_structure(g, kind, grid)
        sigma = ps.total_bandwidth(table)
        report = ps.bounds_for_kind(g, kind)
        assert report.lower <= sigma + 2e-2
        assert sigma <= report.upper + 2e-2
        assert ps.spectrum_measure(table) <= sigma + 1e-12


@pytest.mark.parametrize("seed, nu, dim", LOOPLESS)
def test_loopless_graph_gauge_invariance(seed, nu, dim):
    g = loopless_graph(seed, nu, dim)
    rng = np.random.default_rng(seed)
    shifts = [tuple(int(v) for v in rng.integers(-2, 3, dim)) for _ in g.labels]
    moved = ps.gauge_transform(g, ps.Gauge(tuple(shifts)))
    assert np.array_equal(ps.cycle_basis(g)[1], ps.cycle_basis(moved)[1])
    assert max_diff(ps.trace_series(moved, "adjacency", 3), ps.trace_series(g, "adjacency", 3)) < 1e-9
    assert ps.minimize_bridges(moved)[1] == ps.minimize_bridges(g)[1]
    for kind in ("laplacian", "normalized_laplacian"):
        want, got = ps.bounds_for_kind(g, kind, n_max=4), ps.bounds_for_kind(moved, kind, n_max=4)
        assert got.constants.min_bridges == want.constants.min_bridges
        assert got.lower == pytest.approx(want.lower, rel=1e-9)


@pytest.mark.parametrize("seed, nu, dim", LOOPLESS)
def test_loopless_graph_sandwich(seed, nu, dim):
    g = loopless_graph(seed, nu, dim)
    grid = ps.KGrid(dim, 32 if dim < 3 else 8)
    for kind in ("laplacian", "schrodinger", "normalized_laplacian", "adjacency"):
        table = ps.band_structure(g, kind, grid)
        sigma = ps.total_bandwidth(table)
        report = ps.bounds_for_kind(g, kind)
        assert report.lower <= sigma + 2e-2
        assert sigma <= report.upper + 2e-2


@pytest.mark.parametrize("seed", SEEDS[:5])
def test_random_graph_trace_identity(seed):
    g = random_graph(seed)
    rng = np.random.default_rng(seed)
    shift = schrodinger_shift(g)
    for n in (1, 2, 3):
        series = ps.trace_series(g, "schrodinger", n)
        for _ in range(5):
            k = rng.uniform(0, 2 * np.pi, g.dim)
            lam = np.linalg.eigvalsh(numeric_fiber(g, "schrodinger", k, potential_shift=shift))
            tol = 1e-9 * (1.0 + max(1.0, np.abs(lam).max()) ** n)
            assert abs(series.eval_grid([k])[0] - (lam**n).sum()) < tol


@pytest.mark.parametrize("seed", SEEDS)
def test_random_graph_minimize_bridges_bracket(seed):
    _check_tree_search(random_graph(seed), radius=2)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_tree_search_beats_box_hypothesis(seed):
    _check_tree_search(random_graph(seed), radius=1)


def _check_tree_search(g, radius):
    """rank <= tree-search minimum <= box minimum, and the gauge realizes it."""
    gauge, count = ps.minimize_bridges(g)
    assert g.dim <= count <= box_min_bridges(g, radius) <= ps.bridge_count(g)
    assert ps.bridge_count(ps.gauge_transform(g, gauge)) == count
