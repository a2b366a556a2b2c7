"""End-to-end acceptance suite.

Each test pins one externally checkable fact about the package at an explicit
tolerance and prints a one-line PASS record on success (visible with -s/-rA).
Expected values are either exact closed forms, hand-countable combinatorics,
or cross-checked through the independent numeric assembly in conftest.
"""

import numpy as np
import pytest

import periodic_spectra as ps

from conftest import (
    BIPARTITE_BUILTINS,
    BUILTIN_NAMES,
    assert_trace_matches_walks,
    cycle_index_matrix,
    max_diff,
    numeric_fiber,
    schrodinger_shift,
)


def _record(num: int, text: str):
    print(f"acceptance {num:02d} PASS: {text}")


def test_acceptance_01_kagome_laplacian_bands():
    g = ps.builtin_graph("kagome")
    table = ps.band_structure(g, "laplacian", ps.KGrid(2, 60))
    b1, b2, b3 = table.bands
    assert b1.lo == pytest.approx(0.0, abs=2e-2)
    assert b1.hi == pytest.approx(3.0, abs=2e-2)
    assert b2.lo == pytest.approx(3.0, abs=2e-2)
    assert b2.hi == pytest.approx(6.0, abs=2e-2)
    flats = ps.flat_bands(table)
    assert len(flats) == 1 and flats[0].lo == pytest.approx(6.0, abs=1e-9)
    sigma = ps.total_bandwidth(table)
    measure = ps.spectrum_measure(table)
    assert sigma == pytest.approx(6.0, abs=2e-2)
    assert measure == pytest.approx(6.0, abs=2e-2)
    _record(1, f"kagome laplacian bands [0,3][3,6] flat 6, bandwidth {sigma:.4f}, measure {measure:.4f}")


def test_acceptance_02_kagome_bounds():
    g = ps.builtin_graph("kagome")
    report = ps.bounds_for_kind(g, "laplacian", n_max=3)
    assert report.lower_closed_form == pytest.approx(0.25, abs=1e-12)
    assert report.upper == pytest.approx(12.0, abs=1e-12)
    assert report.lower_refined == pytest.approx(2.0, abs=1e-12)
    assert report.refined_n == 2
    _record(2, "kagome bracket [0.25, 12] closed form, refined lower 2 at n=2")


def test_acceptance_03_kagome_cycle_counts():
    g = ps.builtin_graph("kagome")
    expected = {1: (0, 0), 2: (12, 8), 3: (36, 24)}
    for n, (n_plus, n_odd) in expected.items():
        combinatorial = ps.classify(ps.count_walks(g, n))
        assert (combinatorial.n_plus, combinatorial.n_odd) == (n_plus, n_odd)
        series = ps.trace_series(g, "adjacency", n)
        sym_plus = sum(c.real for m, c in series.coeffs.items() if any(m))
        sym_odd = sum(c.real for m, c in series.coeffs.items() if sum(m) % 2)
        assert sym_plus == pytest.approx(n_plus, abs=1e-6)
        assert sym_odd == pytest.approx(n_odd, abs=1e-6)
    _record(3, "kagome walk classes N2+=12 N2odd=8 N3+=36 N3odd=24 from both engines")


def test_acceptance_04_fig4_normalized_bands():
    g = ps.builtin_graph("fig4_chain")
    table = ps.band_structure(g, "normalized_laplacian", ps.KGrid(1, 400))
    comps = ps.spectrum_components(table)
    expected = [(0.0, 1 / 3), (2 / 3, 4 / 3), (5 / 3, 2.0)]
    assert len(comps) == 3
    for (lo, hi), (elo, ehi) in zip(comps, expected):
        assert lo == pytest.approx(elo, abs=1e-3)
        assert hi == pytest.approx(ehi, abs=1e-3)
    flats = ps.flat_bands(table, tol=1e-3)
    assert len(flats) == 1 and flats[0].lo == pytest.approx(1.0, abs=1e-3)
    sigma = ps.total_bandwidth(table)
    measure = ps.spectrum_measure(table)
    assert sigma == pytest.approx(4 / 3, abs=5e-3)
    assert measure == pytest.approx(4 / 3, abs=5e-3)
    _record(4, f"fig4_chain normalized spectrum [0,1/3]u[2/3,4/3]u[5/3,2], flat 1, bandwidth {sigma:.4f}")


def test_acceptance_05_fig4_bounds():
    g = ps.builtin_graph("fig4_chain")
    report = ps.bounds_for_kind(g, "normalized_laplacian", n_max=4)
    assert report.constants.bridge_ratio == pytest.approx(2 / 3, abs=1e-12)
    term3 = report.terms[2]
    assert term3.n == 3
    assert term3.b1 == pytest.approx(2 / 3, abs=1e-12)
    assert term3.b2 == pytest.approx(4 / 3, abs=1e-12)
    assert report.lower_closed_form == pytest.approx(4 / 81, abs=1e-12)
    assert report.upper_closed_form == pytest.approx(2.0, abs=1e-12)
    assert report.lower_refined == pytest.approx(4 / 9, abs=1e-12)
    assert report.upper == pytest.approx(4 / 3, abs=1e-12)
    _record(5, "fig4_chain: ratio 2/3, B31=2/3 B32=4/3, brackets [4/81,2] and [4/9,4/3]")


def test_acceptance_06_z_cycle_sharpness():
    base = ps.builtin_graph("z_cycle(3)")
    widths = {}
    for t in (5.0, 10.0, 20.0):
        g = base.with_potential([0.0, t, 2 * t])
        table = ps.band_structure(g, "schrodinger", ps.KGrid(1, 256))
        widths[t] = ps.total_bandwidth(table)
        v_star = 2.0 + 2.0 * t
        report = ps.bounds_for_kind(g, "schrodinger")
        assert report.lower_closed_form == pytest.approx(4.0 / v_star**2, abs=1e-12)
        assert report.lower_closed_form - 1e-9 <= widths[t] <= 4.0 + 1e-9
        assert report.lower_refined - 1e-9 <= widths[t]
    assert widths[5.0] > widths[10.0] > widths[20.0]
    _record(6, f"z_cycle(3) potentials t=5,10,20: bandwidths {widths[5.0]:.4f} > {widths[10.0]:.4f} > {widths[20.0]:.4f} inside [4/v*^2, 4]")


def test_acceptance_07_trace_formula_identity():
    rng = np.random.default_rng(7_07)
    checked = 0
    for name in BUILTIN_NAMES:
        base = ps.builtin_graph(name)
        cases = [("adjacency", base, 0.0), ("transition", base, 0.0)]
        for _ in range(3):
            g = base.with_potential(list(rng.uniform(-2, 2, base.num_vertices)))
            cases.append(("schrodinger", g, schrodinger_shift(g)))
        sample = rng.uniform(0.0, 2 * np.pi, size=(20, base.dim))
        for kind, g, shift in cases:
            for n in range(1, 7):
                series = assert_trace_matches_walks(g, kind, n)
                for k in sample:
                    lam = np.linalg.eigvalsh(numeric_fiber(g, kind, k, potential_shift=shift))
                    norm = max(1.0, np.abs(lam).max())
                    tol = 1e-9 * (1.0 + norm**n)
                    assert abs(series.eval_grid([k])[0] - (lam**n).sum()) < tol
                    checked += 1
    _record(7, f"trace identity holds at {checked} (graph, kind, n, k) samples")


def test_acceptance_08_torus_average_identity():
    rng = np.random.default_rng(8_08)
    for name in BUILTIN_NAMES:
        g = ps.builtin_graph(name).with_potential(
            list(rng.uniform(-2, 2, ps.builtin_graph(name).num_vertices))
        )
        shift = schrodinger_shift(g)
        max_tau = max((max(abs(v) for v in e.index) for e in g.edges), default=0)
        for n in range(1, 5):
            npts = 2 * n * max_tau + 2
            grid = ps.KGrid(g.dim, npts)
            acc = 0.0
            for k in grid.points:
                lam = np.linalg.eigvalsh(numeric_fiber(g, "schrodinger", k, potential_shift=shift))
                acc += (lam**n).sum()
            average = acc / len(grid.points)
            t_n0 = ps.classify(ps.weighted_walk_sums(g, n)).t0
            assert average == pytest.approx(t_n0, abs=1e-9)
    _record(8, "grid average of Tr H^n matches the zero walk coefficient, n <= 4")


def test_acceptance_09_gauge_invariance():
    rng = np.random.default_rng(9_09)
    for name in BUILTIN_NAMES:
        g = ps.builtin_graph(name)
        base_matrix = cycle_index_matrix(g)
        base_table = ps.band_structure(g, "laplacian", ps.KGrid(g.dim, 16))
        base_series = ps.trace_series(g, "adjacency", 3)
        for _ in range(3):
            shifts = [tuple(int(v) for v in rng.integers(-2, 3, g.dim)) for _ in g.labels]
            shifts[0] = (0,) * g.dim
            moved = ps.gauge_transform(g, ps.Gauge(tuple(shifts)))
            assert np.array_equal(cycle_index_matrix(moved), base_matrix)
            table = ps.band_structure(moved, "laplacian", ps.KGrid(g.dim, 16))
            for a, b in zip(base_table.bands, table.bands):
                assert abs(a.lo - b.lo) < 1e-10
                assert abs(a.hi - b.hi) < 1e-10
            assert max_diff(ps.trace_series(moved, "adjacency", 3), base_series) < 1e-9
    _record(9, "random gauges leave cycle indices, band tables, trace series unchanged")


def test_acceptance_10_lattice_and_witnesses():
    for name in BUILTIN_NAMES:
        g = ps.builtin_graph(name)
        assert ps.index_lattice_check(g)
        report = ps.verify_index_lattice(g)
        d_star = g.dim if g.dim % 2 == 0 else g.dim + 1
        assert report.witness_n is not None
        assert report.witness_n <= g.num_vertices
        assert report.witness_odd_count >= report.witness_n * d_star
    for name in BIPARTITE_BUILTINS:
        g = ps.builtin_graph(name)
        report = ps.verify_index_lattice(g)
        assert report.bipartite
        n = report.bipartite_witness_n
        assert n is not None and n <= g.num_vertices
        assert ps.classify(ps.count_walks(g, n)).n_odd >= 2 * n * g.dim
    _record(10, "index lattices fill Z^d; odd-walk witnesses found on all builtins")


def _nine_vertex_quotient(rng):
    """Rank-2, nu = 9: a random Hamiltonian cycle plus two loops per vertex,
    unit loops at the first vertex.  Its gauge box of radius 1 has 9^8 points."""
    labels = [f"v{i}" for i in range(9)]
    order = [labels[i] for i in rng.permutation(9)]
    edges = [(order[i], order[(i + 1) % 9], tuple(rng.integers(-1, 2, 2))) for i in range(9)]
    edges += [("v0", "v0", (1, 0)), ("v0", "v0", (0, 1))]
    for lab in labels[1:]:
        edges += [(lab, lab, (1, int(rng.integers(-1, 2)))), (lab, lab, (int(rng.integers(-1, 2)), 1))]
    return ps.build_graph(2, labels, edges)


def test_acceptance_11_sandwich():
    rng = np.random.default_rng(11_11)
    slack = 2e-2
    cases = 0
    # built-ins, plus two graphs whose gauge box searches were out of reach
    bases = [ps.builtin_graph(name) for name in BUILTIN_NAMES]
    bases += [ps.builtin_graph("z_cycle(16)"), _nine_vertex_quotient(rng)]
    for base in bases:
        grid = ps.KGrid(base.dim, 48)
        runs = [
            ("laplacian", base),
            ("adjacency", base),
            ("normalized_laplacian", base),
            ("transition", base),
        ]
        for _ in range(3):
            g = base.with_potential(list(rng.uniform(-2, 2, base.num_vertices)))
            runs.append(("schrodinger", g))
        for kind, g in runs:
            table = ps.band_structure(g, kind, grid)
            sigma = ps.total_bandwidth(table)
            measure = ps.spectrum_measure(table)
            report = ps.bounds_for_kind(g, kind)
            assert report.lower_closed_form <= sigma + slack
            assert report.lower_refined <= sigma + slack
            assert sigma <= report.upper + slack
            # chain: bandwidth/bands <= largest band <= measure <= bandwidth
            largest = max(b.hi - b.lo for b in table.bands)
            assert sigma / g.num_vertices <= largest + 1e-12
            assert largest <= measure + 1e-12
            assert measure <= sigma + 1e-12
            assert report.measure_lower <= measure + slack
            cases += 1
    _record(11, f"two-sided bracket and measure chain hold in {cases} sweeps")


def test_power_bandwidth_lower_bounds_all_builtins():
    # broader version of criterion 12: every builtin, both weighted engines
    for name in BUILTIN_NAMES:
        g = ps.builtin_graph(name)
        # the walk sums' convention: potential shifted so min(V - deg) = 0
        shifted = g.with_potential([v - schrodinger_shift(g) for v in g.potential])
        grid = ps.KGrid(g.dim, 32)
        for n in (1, 2, 3):
            schro = ps.classify(ps.weighted_walk_sums(g, n))
            table = ps.power_band_structure(shifted, "schrodinger", n, grid)
            assert ps.total_bandwidth(table) >= max(schro.b1, schro.b2) - 2e-2
            norm = ps.classify(ps.normalized_walk_sums(g, n))
            table = ps.power_band_structure(g, "transition", n, grid)
            assert ps.total_bandwidth(table) >= max(norm.b1, norm.b2) - 2e-2


def test_acceptance_12_power_bandwidth_lower_bounds():
    grid2 = ps.KGrid(2, 48)
    grid1 = ps.KGrid(1, 256)
    kag = ps.builtin_graph("kagome")
    shifted = kag.with_potential([v - schrodinger_shift(kag) for v in kag.potential])
    for n in range(1, 5):
        summary = ps.classify(ps.weighted_walk_sums(kag, n))
        table = ps.power_band_structure(shifted, "schrodinger", n, grid2)
        assert ps.total_bandwidth(table) >= max(summary.b1, summary.b2) - 2e-2
    fig4 = ps.builtin_graph("fig4_chain")
    for n in range(1, 5):
        summary = ps.classify(ps.normalized_walk_sums(fig4, n))
        table = ps.power_band_structure(fig4, "transition", n, grid1)
        assert ps.total_bandwidth(table) >= max(summary.b1, summary.b2) - 2e-2
    _record(12, "power bandwidths dominate max(B_n1, B_n2) for n <= 4")


def test_acceptance_criterion_01_runs_fast():
    # desk-scale runtime guard for the headline sweep
    import time

    g = ps.builtin_graph("kagome")
    start = time.perf_counter()
    ps.band_structure(g, "laplacian", ps.KGrid(2, 60))
    assert time.perf_counter() - start < 1.0
