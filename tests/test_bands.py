"""Torus sweeps: band tables, bandwidth, measure, flat levels, exports."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

import periodic_spectra as ps
from periodic_spectra.bands import dispersion_csv, merge_intervals
from periodic_spectra.errors import EngineMismatchError, HermiticityError

from conftest import (
    BUILTIN_NAMES,
    HERMITICITY_TOL,
    SUPERCELLS,
    assert_pruned_table_is_the_full_sweep,
    assert_tables_identical,
    certified_levels,
    full_band_table,
    loopless_graph,
    random_graph,
    regular_graph,
    row_cache_csv,
    spy_solved_rows,
    supercell,
)

RNG = np.random.default_rng(99)


def test_kgrid_contains_zero_and_pi():
    grid = ps.KGrid(2, 8)
    pts = grid.points
    assert any(np.allclose(p, 0.0) for p in pts)
    assert any(np.allclose(p, np.pi) for p in pts)
    with pytest.raises(ValueError):
        ps.KGrid(2, 7)


def test_kagome_laplacian_bands(kagome):
    table = ps.band_structure(kagome, "laplacian", ps.KGrid(2, 60))
    (b1, b2, b3) = table.bands
    assert (b1.lo, b1.hi) == pytest.approx((0.0, 3.0), abs=2e-2)
    assert (b2.lo, b2.hi) == pytest.approx((3.0, 6.0), abs=2e-2)
    assert (b3.lo, b3.hi) == pytest.approx((6.0, 6.0), abs=1e-9)
    assert b3.flat and not b1.flat and not b2.flat
    assert ps.total_bandwidth(table) == pytest.approx(6.0, abs=2e-2)
    assert ps.spectrum_measure(table) == pytest.approx(6.0, abs=2e-2)
    assert table.flat_values == pytest.approx((6.0,), abs=1e-9)


def test_fig4_normalized_bands(fig4):
    table = ps.band_structure(fig4, "normalized_laplacian", ps.KGrid(1, 200))
    comps = ps.spectrum_components(table)
    assert len(comps) == 3
    expected = [(0.0, 1 / 3), (2 / 3, 4 / 3), (5 / 3, 2.0)]
    for (lo, hi), (elo, ehi) in zip(comps, expected):
        assert lo == pytest.approx(elo, abs=1e-3)
        assert hi == pytest.approx(ehi, abs=1e-3)
    flats = ps.flat_bands(table, tol=1e-6)
    assert len(flats) == 1
    assert flats[0].lo == pytest.approx(1.0, abs=1e-9)
    assert ps.total_bandwidth(table) == pytest.approx(4 / 3, abs=1e-2)
    assert ps.spectrum_measure(table) == pytest.approx(4 / 3, abs=1e-2)


def test_z_lattice_single_band():
    table = ps.band_structure(ps.builtin_graph("zd(1)"), "laplacian", ps.KGrid(1, 64))
    assert len(table.bands) == 1
    assert table.bands[0].lo == pytest.approx(0.0, abs=1e-12)
    assert table.bands[0].hi == pytest.approx(4.0, abs=1e-12)
    assert ps.flat_bands(table) == []


def test_square_lattice_has_no_flat_band():
    table = ps.band_structure(ps.builtin_graph("zd(2)"), "laplacian", ps.KGrid(2, 32))
    assert ps.flat_bands(table) == []


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_flat_band_tolerance_must_be_positive(kagome, tol):
    table = ps.band_structure(kagome, "laplacian", ps.KGrid(2, 16))
    with pytest.raises(ValueError):
        ps.flat_bands(table, tol=tol)


def test_all_flat_table_has_zero_bandwidth():
    table = ps.BandTable(
        "laplacian", 4, (ps.Band(2.0, 2.0, True), ps.Band(5.0, 5.0, True)), ()
    )
    assert ps.total_bandwidth(table) == 0.0
    assert ps.spectrum_measure(table) == 0.0


def test_disjoint_unit_bands_measure():
    table = ps.BandTable(
        "adjacency", 4, (ps.Band(0.0, 1.0, False), ps.Band(2.0, 3.0, False)), ()
    )
    assert ps.spectrum_measure(table) == pytest.approx(2.0)


def test_merge_intervals_overlap_and_touch():
    merged = merge_intervals([(2.0, 3.0), (0.0, 1.0), (1.0, 1.5), (2.5, 2.7)])
    assert merged == [(0.0, 1.5), (2.0, 3.0)]


def test_grid_refinement_nesting(builtin):
    coarse = ps.band_structure(builtin, "adjacency", ps.KGrid(builtin.dim, 8))
    fine = ps.band_structure(builtin, "adjacency", ps.KGrid(builtin.dim, 16))
    for bc, bf in zip(coarse.bands, fine.bands):
        assert bc.lo >= bf.lo - 1e-12
        assert bc.hi <= bf.hi + 1e-12


def test_band_table_gauge_invariant(kagome):
    shifts = [(0, 0)] + [tuple(int(v) for v in RNG.integers(-2, 3, 2)) for _ in range(2)]
    moved = ps.gauge_transform(kagome, ps.Gauge(tuple(shifts)))
    grid = ps.KGrid(2, 16)
    base = ps.band_structure(kagome, "laplacian", grid)
    other = ps.band_structure(moved, "laplacian", grid)
    for a, b in zip(base.bands, other.bands):
        assert a.lo == pytest.approx(b.lo, abs=1e-10)
        assert a.hi == pytest.approx(b.hi, abs=1e-10)


def test_power_band_structure_matches_direct_power():
    g = ps.builtin_graph("zd(1)")
    grid = ps.KGrid(1, 64)
    table = ps.power_band_structure(g, "laplacian", 2, grid)
    # single band (2 - 2 cos k)^2 in [0, 16]
    assert table.bands[0].lo == pytest.approx(0.0, abs=1e-12)
    assert table.bands[0].hi == pytest.approx(16.0, abs=1e-12)


def test_flat_level_inside_dispersive_band_is_found(fig4):
    # The level sits strictly inside another band's range, so no sorted band
    # has zero width; detection must look across band labels.
    table = ps.band_structure(fig4, "normalized_laplacian", ps.KGrid(1, 64))
    assert all(b.hi - b.lo > 1e-3 for b in table.bands)
    assert table.flat_values == pytest.approx((1.0,), abs=1e-9)


def test_dispersion_csv_shape(fig4):
    grid = ps.KGrid(1, 8)
    points, lam = ps.dispersion(fig4, "adjacency", grid)
    csv = dispersion_csv(points, lam)
    lines = csv.strip().split("\n")
    assert lines[0] == "k1,lambda1,lambda2,lambda3,lambda4"
    assert len(lines) == 9


def test_dispersion_csv_blocks_match_one_shot_formatting():
    def one_shot(points, lam):
        header = [f"k{s + 1}" for s in range(points.shape[1])] + [f"lambda{j + 1}" for j in range(lam.shape[1])]
        rows = [",".join("%.12g" % v for v in (*k, *values)) for k, values in zip(points, lam)]
        return "\n".join([",".join(header), *rows]) + "\n"

    # Two full blocks and a partial third.  Angles and rows repeat across blocks, some only
    # as numbers (0.0 and -0.0, two NaN payloads), which must keep their own text.
    npts = 2 * ps.bands.CSV_BLOCK_ROWS + 123
    rng = np.random.default_rng(5)
    points = rng.choice([0.0, -0.0, np.pi, *rng.uniform(0.0, 2 * np.pi, 50)], size=(npts, 2))
    distinct = rng.normal(scale=1e3, size=(npts // 2, 3))
    distinct[0, 0], distinct[1, 1], distinct[-1, 2], distinct[2, 0] = -0.0, np.inf, -np.inf, np.nan
    distinct[3], distinct[4] = distinct[0], distinct[2]
    distinct[3, 0], distinct[4, 0] = 0.0, np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0]
    partner = rng.integers(0, len(distinct), npts)
    partner[:5] = range(5)
    lam = distinct[partner]
    text = dispersion_csv(points, lam)
    assert text == one_shot(points, lam)
    assert "".join(ps.bands.dispersion_csv_blocks(points, distinct, partner)) == text
    assert text.count("\n") == npts + 1 and ",-0," in text and ",0," in text
    assert ",inf," in text and ",nan," in text and "\n-0," in text
    assert dispersion_csv(points[:0], lam[:0]) == "k1,k2,lambda1,lambda2,lambda3\n"


# Values whose text the dump must keep apart or get right: signed zeros, two NaN payloads,
# infinities, subnormals and the ends of the normal range.
SPECIAL_VALUES = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1.7976931348623157e308, -1e-300]
    + np.array([0x7FF8000000000001, 0xFFF0000000000002], dtype=np.uint64).view(float).tolist()
)


@pytest.mark.parametrize("npts", [1, 63, 64, 65, 129])
@pytest.mark.parametrize("dim", [1, 3])
def test_dispersion_csv_blocks_match_the_row_cache(monkeypatch, dim, npts):
    monkeypatch.setattr(ps.bands, "CSV_BLOCK_ROWS", 64)
    rng = np.random.default_rng(10 * npts + dim)
    points = rng.choice([*SPECIAL_VALUES, *rng.uniform(0.0, 2 * np.pi, 5)], size=(npts, dim))
    distinct = rng.choice([*SPECIAL_VALUES, *rng.normal(scale=1e3, size=20)], size=(npts // 2 + 1, 3))
    partner = rng.integers(0, len(distinct), npts)
    lam = distinct[partner]
    want = row_cache_csv(points, lam)
    assert row_cache_csv(points, distinct, partner) == want
    assert dispersion_csv(points, lam) == want
    assert "".join(ps.bands.dispersion_csv_blocks(points, distinct, partner)) == want


@pytest.mark.parametrize("dim, n", [(1, 2), (1, 130), (2, 8), (2, 16), (3, 4), (3, 6)])
def test_grid_dump_matches_the_row_cache(monkeypatch, dim, n):
    # 64-row blocks: one full block, several, and several plus a partial one.
    monkeypatch.setattr(ps.bands, "CSV_BLOCK_ROWS", 64)
    grid = ps.KGrid(dim, n)
    coords, partner = grid.half
    rng = np.random.default_rng(n + dim)
    half = rng.choice([*SPECIAL_VALUES, *rng.normal(size=20)], size=(len(coords), 2))
    want = row_cache_csv(grid.points, half, partner)
    assert "".join(ps.bands.dispersion_csv_blocks(grid, half, partner)) == want
    assert "".join(ps.bands.dispersion_csv_blocks(grid, half[partner])) == want
    assert want.count("\n") == n**dim + 1


def test_special_values_keep_their_text():
    points = np.zeros((len(SPECIAL_VALUES), 1))
    text = dispersion_csv(points, SPECIAL_VALUES[:, None])
    assert text.splitlines()[1:] == [
        "0,0", "0,-0", "0,inf", "0,-inf", "0,nan", "0,4.94065645841e-324", "0,-2.5e-310",
        "0,2.22507385851e-308", "0,1.79769313486e+308", "0,-1e-300", "0,nan", "0,nan",
    ]


def test_dispersion_grid_mismatch(fig4):
    with pytest.raises(ValueError):
        ps.dispersion(fig4, "adjacency", ps.KGrid(2, 8))


# -- time-reversal pairing -----------------------------------------------------


@pytest.mark.parametrize("dim, n", [(1, 2), (1, 10), (2, 2), (2, 6), (3, 4)])
def test_kgrid_half_keeps_one_point_of_each_pair(dim, n):
    grid = ps.KGrid(dim, n)
    solved, partner = grid.half
    coords = list(itertools.product(range(n), repeat=dim))
    row = {m: i for i, m in enumerate(coords)}
    first = [min(i, row[tuple(-v % n for v in m)]) for i, m in enumerate(coords)]
    kept = sorted(set(first))
    assert len(kept) == (n**dim + 2**dim) // 2
    assert kept[0] == 0
    assert solved.shape == (len(kept), dim) and solved.dtype.kind == "i"
    assert solved.tolist() == [list(coords[i]) for i in kept]
    angles = grid.angles(solved)
    assert angles.flags.c_contiguous and grid.points.flags.c_contiguous
    assert angles.tobytes() == grid.points[kept].tobytes()
    assert partner.tolist() == [kept.index(i) for i in first]


@pytest.mark.parametrize("shape", [(1,), (2,), (5,), (4, 3), (3, 3, 2), (5, 1, 4)])
def test_half_box_pairs_odd_and_mixed_shapes(shape):
    # Walk-class boxes (n_max * R_s + 1 per axis) and coarse lattices (n // s) are often odd.
    kept, partner = ps.bands.half_box(shape)
    box = list(itertools.product(*map(range, shape)))
    mirror = [tuple(-v % n for v, n in zip(m, shape)) for m in box]
    row = {m: i for i, m in enumerate(box)}
    kept = [tuple(m) for m in kept.tolist()]
    assert kept[0] == (0,) * len(shape)
    assert partner.shape == (len(box),)
    for i, m in enumerate(box):
        assert kept[partner[i]] in (m, mirror[i])
    # each kept point is the first of its pair in box order
    assert kept == [m for i, m in enumerate(box) if i <= row[mirror[i]]]
    size = np.bincount(partner)
    assert size.tolist() == [1 if mirror[row[m]] == m else 2 for m in kept]


PAIRING_CASES = [
    pytest.param(random_graph(seed, dim=dim), n, id=f"random_d{dim}_s{seed}_n{n}")
    for dim, sizes in ((1, (2, 8, 30)), (2, (4, 10)), (3, (2, 6)))
    for seed in range(3)
    for n in sizes
] + [pytest.param(ps.builtin_graph(name), 8, id=f"{name}_n8") for name in BUILTIN_NAMES]


@pytest.mark.parametrize("graph, n", PAIRING_CASES)
def test_paired_sweep_matches_direct_sweep(graph, n):
    grid = ps.KGrid(graph.dim, n)
    mirror = [np.ravel_multi_index(tuple(-v % n for v in m), (n,) * graph.dim)
              for m in itertools.product(range(n), repeat=graph.dim)]
    for kind in ps.OPERATOR_KINDS:
        direct = ps.fiber_eigenvalues_grid(ps.symbolic_operator(graph, kind), grid.points)
        tol = 1e-12 * (1.0 + np.abs(direct).max())
        points, lam = ps.dispersion(graph, kind, grid)
        assert points.tobytes() == grid.points.tobytes()
        assert np.abs(lam - direct).max() <= tol
        assert lam.tobytes() == lam[mirror].tobytes()
        table = ps.band_structure(graph, kind, grid)
        expected = ps.bands.table_from_eigenvalues(kind, grid, direct)
        for got, want in zip(table.bands, expected.bands, strict=True):
            assert abs(got.lo - want.lo) <= tol and abs(got.hi - want.hi) <= tol
            assert got.flat == want.flat
        assert np.allclose(table.flat_values, expected.flat_values, rtol=0, atol=tol)
        assert len(table.flat_values) == len(expected.flat_values)


def test_power_band_structure_matches_direct_sweep(kagome):
    grid = ps.KGrid(2, 12)
    direct = ps.fiber_eigenvalues_grid(ps.symbolic_operator(kagome, "schrodinger"), grid.points)
    table = ps.power_band_structure(kagome, "schrodinger", 3, grid)
    expected = ps.bands.table_from_eigenvalues("schrodinger", grid, np.sort(direct**3, axis=1))
    for got, want in zip(table.bands, expected.bands, strict=True):
        assert got.lo == pytest.approx(want.lo, abs=1e-11) and got.hi == pytest.approx(want.hi, abs=1e-11)


@pytest.mark.parametrize("kind", ps.OPERATOR_KINDS)
@pytest.mark.parametrize("name, n", SUPERCELLS, ids=[f"{name}x{n}" for name, n in SUPERCELLS])
def test_supercell_eigenvalues_are_the_quotients_on_a_finer_grid(name, n, kind):
    # The cover's fiber at K holds the quotient's eigenvalues at every k with n * k = K mod 2 pi,
    # so the cover's grid 4 holds the quotient's grid 4n as a multiset.  Band hulls are not
    # compared: the cover's sorted bands hull other subsets of the same points.
    g = ps.builtin_graph(name)
    g = g.with_potential([0.25 * x for x in range(g.num_vertices)])
    cover = supercell(g, n)
    _, big = ps.dispersion(cover, kind, ps.KGrid(g.dim, 4))
    _, small = ps.dispersion(g, kind, ps.KGrid(g.dim, 4 * n))
    margin = ps.bands._operator_bounds(ps.symbolic_operator(cover, kind))[1]
    assert np.abs(np.sort(big, axis=None) - np.sort(small, axis=None)).max() <= margin


def test_power_band_structure_refuses_powers_past_the_float_range(kagome):
    # kagome's adjacency spectrum reaches 4: 4**1001 overflows, 4**500 = 2**1000 does not.
    grid = ps.KGrid(2, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"eigenvalue powers n=1001 leave the float range"):
            ps.power_band_structure(kagome, "adjacency", 1001, grid)
        table = ps.power_band_structure(kagome, "adjacency", 500, grid)
    assert all(np.isfinite([b.lo, b.hi]).all() for b in table.bands)


@pytest.mark.parametrize("dim, n", [(2, 10), (3, 4)])
def test_sweeps_solve_one_point_of_each_pair(monkeypatch, kagome, dim, n):
    graph = kagome if dim == 2 else ps.builtin_graph("zd(3)")
    grid = ps.KGrid(dim, n)
    solved = spy_solved_rows(monkeypatch, grid)
    for sweep in (
        lambda: ps.dispersion(graph, "laplacian", grid),
        lambda: ps.band_structure(graph, "laplacian", grid),
        lambda: ps.power_band_structure(graph, "laplacian", 2, grid),
    ):
        solved.append([])
        sweep()
    assert len(grid.half[0]) == (n**dim + 2**dim) // 2
    # dispersion and the power table solve exactly the half, in order; band_structure
    # a subset of it, k = 0 first, no point twice.
    assert solved[0] == solved[2] == list(range(len(grid.half[0])))
    assert solved[1][0] == 0 and len(set(solved[1])) == len(solved[1])


ORACLE_GRAPHS = [pytest.param(ps.builtin_graph(name), id=name) for name in BUILTIN_NAMES] + [
    pytest.param(random_graph(seed), id=f"random_s{seed}") for seed in range(6)
]


@pytest.mark.parametrize("n", [2, 4, 6, 10, 16, 24, 64])
@pytest.mark.parametrize("graph", ORACLE_GRAPHS)
def test_pruned_tables_equal_the_full_sweep_bit_for_bit(graph, n):
    grid = ps.KGrid(graph.dim, n)
    for kind in ps.OPERATOR_KINDS:
        assert_pruned_table_is_the_full_sweep(graph, kind, grid)
        for power in (2, 3):
            got = ps.power_band_structure(graph, kind, power, grid)
            assert_tables_identical(got, full_band_table(graph, kind, grid, power))


def coarse_rows(grid):
    """Rows of ``grid.half`` whose grid coordinates are all multiples of the coarse stride, in grid order."""
    stride = {1: 8, 2: 4}.get(grid.dim, 2)
    while grid.points_per_dim % stride:
        stride //= 2
    return np.flatnonzero((grid.half[0] % stride == 0).all(axis=1)).tolist()


@pytest.mark.parametrize("dim, n", [(1, 64), (1, 36), (2, 40), (2, 202), (3, 12), (4, 6)])
def test_band_structure_solves_the_coarse_lattice_first(monkeypatch, dim, n):
    graph, grid = regular_graph(0, 3, dim), ps.KGrid(dim, n)
    solved = spy_solved_rows(monkeypatch, grid)
    solved.append([])
    ps.band_structure(graph, "schrodinger", grid)
    coarse = coarse_rows(grid)
    assert coarse[0] == 0
    assert solved[0][: len(coarse)] == coarse
    assert len(set(solved[0])) == len(solved[0])


# Grids large enough that points between coarse ones pass the skip test, in every
# dimension; every band_structure sweep of each case skips points.
SKIP_CASES = [
    pytest.param(regular_graph(0, 4, 1), 4000, id="d1_n4000"),
    pytest.param(regular_graph(0, 3, 2), 202, id="d2_n202"),
    pytest.param(regular_graph(0, 2, 3), 48, id="d3_n48"),
]


@pytest.mark.parametrize("graph, n", SKIP_CASES)
def test_skip_path_keeps_tables_bit_for_bit(monkeypatch, graph, n):
    grid = ps.KGrid(graph.dim, n)
    solved = spy_solved_rows(monkeypatch, grid)
    for kind in ps.OPERATOR_KINDS:
        solved.append([])
        assert_pruned_table_is_the_full_sweep(graph, kind, grid)
        assert len(set(solved[-1])) == len(solved[-1]) < len(grid.half[0])
        for power in (2, 3):
            got = ps.power_band_structure(graph, kind, power, grid)
            assert_tables_identical(got, full_band_table(graph, kind, grid, power))


@pytest.mark.parametrize("kind", ["adjacency", "schrodinger"])
@pytest.mark.parametrize("n", [64, 400])
def test_loopless_pruned_sweep_is_the_full_sweep(monkeypatch, kind, n):
    # No loop fixes a large part of L: at grid 64 the sweep solves the whole half, at grid 400
    # it skips points (about 55-65% of the half is solved), and its table is the full sweep's.
    graph, grid = loopless_graph(0, 8, 2), ps.KGrid(2, n)
    solved = spy_solved_rows(monkeypatch, grid)
    solved.append([])
    assert_pruned_table_is_the_full_sweep(graph, kind, grid)
    assert len(set(solved[0])) == len(solved[0])
    if n == 64:
        assert sorted(solved[0]) == list(range(len(grid.half[0])))
    else:
        assert len(solved[0]) < 0.75 * len(grid.half[0])


def test_certified_flat_band_is_skipped_past(monkeypatch, kagome):
    # The flat band 6 no longer stops the pruning: 6511 of the 80002 points are solved.
    grid = ps.KGrid(2, 400)
    solved = spy_solved_rows(monkeypatch, grid)
    solved.append([])
    table = assert_pruned_table_is_the_full_sweep(kagome, "laplacian", grid)
    assert certified_levels(table) == [6.0]
    assert (table.bands[2].lo, table.bands[2].hi, table.bands[1].hi) == (6.0, 6.0, 6.0)
    assert len(set(solved[0])) == len(solved[0]) <= 0.09 * len(grid.half[0])


def test_dispersive_quotient_solves_under_half_the_points(monkeypatch):
    graph = regular_graph(0, 8, 2)
    grid = ps.KGrid(2, 400)
    solved = spy_solved_rows(monkeypatch, grid)
    solved.append([])
    table = ps.band_structure(graph, "schrodinger", grid)
    assert len(set(solved[0])) == len(solved[0]) < 0.5 * len(grid.half[0])
    assert_tables_identical(table, full_band_table(graph, "schrodinger", grid))


# -- certified flat levels ------------------------------------------------------


def flat_levels(graph, kind):
    """``(v, mu)`` of every candidate that a full grid-16 sweep samples as flat, certified one by one."""
    grid = ps.KGrid(graph.dim, 16)
    matrix = ps.symbolic_operator(graph, kind)
    table = full_band_table(graph, kind, grid)
    return [ps.bands._flat_level(matrix, value) for value, residual in table.flat_candidates
            if residual < ps.bands.default_flat_tol(value)]


def pendant_graph():
    """The honeycomb quotient with three pendant vertices on one of its two vertices."""
    labels = ["v1", "v2", "p1", "p2", "p3"]
    edges = [("v1", "v2", (0, 0)), ("v1", "v2", (1, 0)), ("v1", "v2", (0, 1))]
    return ps.build_graph(2, labels, edges + [("v1", p, (0, 0)) for p in labels[2:]])


def crossing_graph():
    """A seeded rank-2 quotient with two pendant vertices on v0: adjacency level 0, crossed by a dispersive band."""
    base = random_graph(3, 2)
    edges = [(base.labels[e.tail], base.labels[e.head], e.index) for e in base.unoriented()]
    edges += [("v0", p, (0, 0)) for p in ("p1", "p2")]
    return ps.build_graph(2, list(base.labels) + ["p1", "p2"], edges, dict(zip(base.labels, map(float, base.potential))))


KAGOME_FLAT = {
    "adjacency": -2.0, "laplacian": 6.0, "schrodinger": -6.0, "normalized_laplacian": 1.5, "transition": -0.5
}
FIG4_FLAT = {"adjacency": 0.0, "laplacian": 2.0, "schrodinger": -2.0, "normalized_laplacian": 1.0, "transition": 0.0}


@pytest.mark.parametrize("kind", ps.OPERATOR_KINDS)
def test_builtin_flat_levels_certify_with_multiplicity_one(kagome, fig4, kind):
    assert flat_levels(kagome, kind) == [(KAGOME_FLAT[kind], 1)]
    assert flat_levels(fig4, kind) == [(FIG4_FLAT[kind], 1)]


def test_level_crossed_by_a_dispersive_band_is_certified(monkeypatch):
    # A dispersive band crosses adjacency level 0: the fibers near the crossing are solved,
    # and the rest of the grid is still skipped past, the table staying the full sweep's.
    grid = ps.KGrid(2, 200)
    solved = spy_solved_rows(monkeypatch, grid)
    solved.append([])
    table = assert_pruned_table_is_the_full_sweep(crossing_graph(), "adjacency", grid)
    assert certified_levels(table) == [0.0]
    assert len(set(solved[0])) == len(solved[0]) <= 0.74 * len(grid.half[0])


def test_pendant_vertices_certify_their_multiplicity():
    # Adjacency: f(v1) = 0 and sum_p f(p) = -h(k) f(v2) leave a 3-dimensional kernel.
    # Laplacian: f(v1) = f(v2) = 0 and sum_p f(p) = 0 give eigenvalue 1 twice.
    graph = pendant_graph()
    assert (0.0, 3) in flat_levels(graph, "adjacency")
    assert (1.0, 2) in flat_levels(graph, "laplacian")
    # 5**3 * 11**2 integer operations: the grid must leave at least that many points to test.
    table = assert_pruned_table_is_the_full_sweep(graph, "laplacian", ps.KGrid(2, 200))
    assert 1.0 in certified_levels(table)


@pytest.mark.parametrize("graph", [pytest.param("kagome", id="kagome"), pytest.param("fig4_chain", id="fig4_chain"),
                                   pytest.param(None, id="pendant")])
def test_certified_levels_are_gauge_invariant(graph):
    graph = ps.builtin_graph(graph) if graph else pendant_graph()
    rng = np.random.default_rng(7)
    for _ in range(2):
        shifts = [(0,) * graph.dim]
        shifts += [tuple(int(v) for v in rng.integers(-2, 3, graph.dim)) for _ in range(graph.num_vertices - 1)]
        moved = ps.gauge_transform(graph, ps.Gauge(tuple(shifts)))
        for kind in ps.OPERATOR_KINDS:
            assert flat_levels(moved, kind) == flat_levels(graph, kind)


@pytest.mark.parametrize("graph", [pytest.param(ps.builtin_graph("kagome"), id="kagome"),
                                   pytest.param(pendant_graph(), id="pendant"),
                                   pytest.param(crossing_graph(), id="crossing")])
def test_pinned_slots_hold_between_grid_points(graph):
    # Every point of a grid against its nearest point of the stride-4 lattice, as the pruned
    # sweep tests it: every sorted eigenvalue lies within the reach of its lattice value, and
    # where exactly mu lattice values lie within reach + margin of a certified level v, the
    # solved eigenvalues of those slots lie within margin of v.
    grid = ps.KGrid(2, 48)
    h = 2 * np.pi / grid.points_per_dim
    coords = np.rint(grid.points / h).astype(int)
    near = (coords + 2) // 4 * 4
    pinned_columns = 0
    for kind in ps.OPERATOR_KINDS:
        matrix = ps.symbolic_operator(graph, kind)
        lip, margin = ps.bands._operator_bounds(matrix)
        row = ps.fiber_eigenvalues_grid(matrix, near * h).T
        lam = ps.fiber_eigenvalues_grid(matrix, grid.points).T
        reach = lip * h * np.abs(coords - near).max(axis=1) + margin
        assert (np.abs(lam - row) <= reach).all()
        for v, mu in flat_levels(graph, kind):
            if not mu:
                continue
            pinned = np.abs(row - v) <= reach + margin
            counted = pinned.sum(axis=0) == mu
            assert (np.abs(lam - v)[pinned & counted] <= margin).all()
            pinned_columns += counted.sum()
    assert pinned_columns


def near_flat_kagome(potential):
    base = ps.builtin_graph("kagome")
    edges = [(base.labels[e.tail], base.labels[e.head], e.index) for e in base.unoriented()]
    return ps.build_graph(2, list(base.labels), edges, {base.labels[0]: potential})


@pytest.mark.parametrize("potential", [1e-9, 1e-7])
def test_near_flat_level_is_not_certified(monkeypatch, potential):
    # A potential on one vertex splits the flat band by about that much: sampled as flat,
    # but not flat, so the table stays the unpruned sweep's, unsnapped, solving every point.
    graph, grid = near_flat_kagome(potential), ps.KGrid(2, 64)
    candidates = full_band_table(graph, "schrodinger", grid).flat_candidates
    assert any(0 < residual < ps.bands.default_flat_tol(value) for value, residual in candidates)
    assert all(mu == 0 for _, mu in flat_levels(graph, "schrodinger"))
    solved = spy_solved_rows(monkeypatch, grid)
    solved.append([])
    table = ps.band_structure(graph, "schrodinger", grid)
    assert_tables_identical(table, full_band_table(graph, "schrodinger", grid))
    assert certified_levels(table) == []
    assert sorted(solved[0]) == list(range(len(grid.half[0])))


@pytest.mark.parametrize("n", [8, 40])
def test_certificate_dearer_than_the_sweep_is_refused(monkeypatch, kagome, n):
    # 27 * 49 integer operations cost more than the few hundred points left to test:
    # the flat band keeps the sampled path, every point solved and nothing snapped.
    grid = ps.KGrid(2, n)
    solved = spy_solved_rows(monkeypatch, grid)
    for kind in ps.OPERATOR_KINDS:
        solved.append([])
        table = ps.band_structure(kagome, kind, grid)
        assert_tables_identical(table, full_band_table(kagome, kind, grid))
        assert certified_levels(table) == []
        assert sorted(solved[-1]) == list(range(len(grid.half[0])))


def fraction_rank(rows):
    """Rank by Gaussian elimination over the rationals."""
    from fractions import Fraction

    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_bareiss_rank_matches_rational_elimination():
    rng = np.random.default_rng(3)
    for _ in range(300):
        size, rank = int(rng.integers(1, 7)), int(rng.integers(0, 7))
        # A product of random integer factors has rank at most the inner size; big entries
        # make the exact divisions matter.
        left = rng.integers(-9, 10, (size, rank)).tolist()
        right = rng.integers(-9, 10, (rank, size)).tolist()
        rows = [[sum(left[i][t] * right[t][j] for t in range(rank)) * 10**12 for j in range(size)] for i in range(size)]
        if rng.random() < 0.3 and size > 1:
            rows[0] = [0] * size
        assert ps.bands._rank([row[:] for row in rows]) == fraction_rank(rows)


def _defect_matrix(diagonal, upper, lower):
    entries = {(0, 0): diagonal, (0, 1): upper, (1, 0): lower, (1, 1): diagonal}
    return ps.LaurentMatrix(1, 2, {(i, j, m): c for (i, j), terms in entries.items() for m, c in terms.items()})


@pytest.mark.parametrize(
    "matrix",
    [
        # All coefficients real; the defect |e^{8ik} - 1| vanishes on the coarse
        # stride-8 lattice and at every even point, so a point-wise check would
        # see it only at odd points.  The coefficients show it.
        _defect_matrix({}, {(8,): 1.0}, {(0,): 1.0}),
        # Dispersive bands 2cos(k) +- 1 leave room to prune, and the defect
        # 1e-9 * (1 - e^{8ik}) * (2cos(2k) - sqrt 2) is nonzero only at k = 2*pi*m/16
        # with m = 3, 5, 11, 13, the points farthest from the band edges.
        _defect_matrix(
            {(1,): 1.0, (-1,): 1.0},
            {(0,): 1.0 - 1e-9 * 2**0.5, (2,): 1e-9, (-2,): 1e-9, (6,): -1e-9, (10,): -1e-9, (8,): 1e-9 * 2**0.5},
            {(0,): 1.0},
        ),
        # Coefficient defect exactly HERMITICITY_TOL, (tol/2)(1 - e^{8ik}): under
        # a point-wise tolerance at the points it reaches, yet not Hermitian.
        _defect_matrix(
            {(1,): 1.0, (-1,): 1.0},
            {(-2,): 0.5, (0,): HERMITICITY_TOL / 2, (2,): 0.5, (8,): -HERMITICITY_TOL / 2},
            {(-2,): 0.5, (2,): 0.5},
        ),
    ],
    ids=["e8ik", "dispersive", "at-tolerance"],
)
def test_defect_between_solved_points_still_raises(monkeypatch, matrix):
    monkeypatch.setattr(ps.bands, "symbolic_operator", lambda *args, **kwargs: matrix)
    graph, grid = ps.builtin_graph("zd(1)"), ps.KGrid(1, 16)
    with pytest.raises(HermiticityError):
        ps.band_structure(graph, "adjacency", grid)
    with pytest.raises(HermiticityError):
        ps.power_band_structure(graph, "adjacency", 2, grid)


def test_defect_that_rounds_away_at_every_grid_point_raises(monkeypatch):
    # M01 = e^{8ik}, M10 = 1: on the grid 2*pi*m/8, e^{8ik} is 1 up to rounding, so every
    # evaluated fiber is Hermitian within 1e-12, but the operator is not.
    matrix = _defect_matrix({}, {(8,): 1.0}, {(0,): 1.0})
    grid = ps.KGrid(1, 8)
    with pytest.raises(HermiticityError, match=r"entry \(0, 1\) has \(1\+0j\) at \(8,\)"):
        ps.fiber_eigenvalues_grid(matrix, grid.points)
    monkeypatch.setattr(ps.bands, "symbolic_operator", lambda *args, **kwargs: matrix)
    with pytest.raises(HermiticityError):
        ps.band_structure(ps.builtin_graph("zd(1)"), "adjacency", grid)


def wide_index_graph(index):
    # Edges a-b of index 0 and of index ``index``, and a loop of index 1 at a.
    return ps.build_graph(1, ["a", "b"], [("a", "b", (0,)), ("a", "b", (index,)), ("a", "a", (1,))])


@pytest.mark.parametrize("kind", ["adjacency", "schrodinger"])
def test_wide_index_operator_is_pruned(monkeypatch, kind):
    # The rounding of a wide index's phases enters the margin, not a switch: the sweep
    # still skips most points, and its table is the full sweep's.
    grid = ps.KGrid(1, 20000)
    graph = wide_index_graph(193)
    solved = spy_solved_rows(monkeypatch, grid)
    solved.append([])
    assert_pruned_table_is_the_full_sweep(graph, kind, grid)
    assert len(set(solved[0])) <= 0.35 * len(grid.half[0])


@pytest.mark.parametrize("sweep", [ps.band_structure, ps.dispersion])
def test_complex_coefficients_are_not_mirrored(monkeypatch, sweep):
    # -2 sin k: Hermitian, but its eigenvalue at -k is minus the one at k.
    matrix = ps.LaurentMatrix(1, 1, {(0, 0, (1,)): 1j, (0, 0, (-1,)): -1j})
    assert ps.fiber_eigenvalues_grid(matrix, ps.KGrid(1, 8).points).shape == (8, 1)
    monkeypatch.setattr(ps.bands, "symbolic_operator", lambda *args, **kwargs: matrix)
    with pytest.raises(EngineMismatchError, match="complex coefficients"):
        sweep(ps.builtin_graph("zd(1)"), "adjacency", ps.KGrid(1, 8))


def test_kgrid_half_peaks_at_a_few_times_what_it_keeps():
    # The pairing is built from one mirror table per axis: no full-grid coordinate
    # temporaries, so its peak stays within a small multiple of coords plus partner.
    grid = ps.KGrid(2, 1200)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        coords, partner = grid.half
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (coords.nbytes + partner.nbytes)


def test_band_structure_memory_is_half_the_table(monkeypatch):
    # An 8-vertex ring with loops: the full (npts, nu) table would take 10 MB.  The
    # sweep keeps the coarse lattice's eigenvalues and one solved block, so once the
    # grid's half is built its peak is mostly the solve's chunks.
    labels = [f"v{i}" for i in range(8)]
    edges = [(labels[i], labels[(i + 1) % 8], (0, int(i == 0))) for i in range(8)]
    edges += [(labels[i], labels[i], (1, i % 3 - 1)) for i in range(0, 8, 2)]
    graph = ps.build_graph(2, labels, edges, {lab: 0.1 * i for i, lab in enumerate(labels)})
    table_bytes = 400**2 * 8 * 8
    monkeypatch.setenv("PERIODIC_SPECTRA_THREADS", "1")
    for built, bound in ((False, 1.5), (True, 0.75)):
        grid = ps.KGrid(2, 400)
        if built:
            grid.half
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            table = ps.band_structure(graph, "schrodinger", grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table.bands) == 8
        assert peak < bound * table_bytes, built
