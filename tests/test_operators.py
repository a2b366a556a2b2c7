"""Fiber operator assembly and the Hermitian eigensolver contract."""

import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import periodic_spectra as ps
from periodic_spectra.errors import GraphFormatError, HermiticityError

from conftest import (
    BUILTIN_NAMES,
    eigenvalues,
    entry_polys,
    eval_entries_termwise,
    evaluate_fiber,
    max_diff,
    numeric_fiber,
    poly_add,
    poly_neg,
    random_graph,
    schrodinger_shift,
)

RNG = np.random.default_rng(2024)


def test_z_lattice_schrodinger_entries():
    g = ps.builtin_graph("zd(1)")
    ham = ps.symbolic_operator(g, "schrodinger")
    entry = entry_polys(ham)[0][0]
    assert entry.coeff((1,)) == pytest.approx(1.0)
    assert entry.coeff((-1,)) == pytest.approx(1.0)
    assert entry.coeff((0,)) == pytest.approx(-2.0)
    # annihilates constants at k = 0
    assert evaluate_fiber(ham, [0.0])[0, 0] == pytest.approx(0.0)


@pytest.mark.parametrize("kind", ps.OPERATOR_KINDS)
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_symbolic_matches_direct_assembly(name, kind):
    g = ps.builtin_graph(name)
    if name in ("kagome", "fig4_chain"):
        g = g.with_potential(list(RNG.uniform(-1, 1, g.num_vertices)))
    sym = ps.symbolic_operator(g, kind)
    for _ in range(4):
        k = RNG.uniform(0, 2 * np.pi, g.dim)
        assert np.abs(sym.eval_grid([k])[0] - numeric_fiber(g, kind, k)).max() < 1e-12
    # The same polys, bit for bit and in sorted-frequency order, as a ring sum of one LaurentPoly
    # per term: the edges in order, then each vertex's nonzero diagonal constant.
    deg, normalized = g.degrees, kind in ("normalized_laplacian", "transition")
    sign = -1.0 if kind in ("laplacian", "normalized_laplacian") else 1.0
    diagonal = {
        "laplacian": deg,
        "schrodinger": [v - d for v, d in zip(g.potential, deg)],
        "normalized_laplacian": [1.0] * g.num_vertices,
    }.get(kind, [0.0] * g.num_vertices)
    terms = [[ps.LaurentPoly(g.dim) for _ in range(g.num_vertices)] for _ in range(g.num_vertices)]
    for e in g.edges:
        weight = sign / np.sqrt(deg[e.tail] * deg[e.head]) if normalized else sign
        terms[e.tail][e.head] = poly_add(terms[e.tail][e.head], ps.LaurentPoly(g.dim, {e.index: weight}))
    for x, value in enumerate(diagonal):
        if value:
            terms[x][x] = poly_add(terms[x][x], ps.LaurentPoly(g.dim, {(0,) * g.dim: value}))
    for got, want in zip(entry_polys(sym), terms):
        assert [repr(p) for p in got] == [repr(p) for p in want]
        assert [list(p.coeffs.items()) for p in got] == [sorted(p.coeffs.items()) for p in want]


def test_fiber_real_symmetric_at_zero(kagome):
    mat = evaluate_fiber(ps.symbolic_operator(kagome, "adjacency"), [0.0, 0.0])
    assert np.abs(mat.imag).max() < 1e-14
    assert np.abs(mat - mat.T).max() < 1e-14


def test_fiber_hermitian_at_pi(kagome):
    mat = evaluate_fiber(ps.symbolic_operator(kagome, "adjacency"), [np.pi, np.pi])
    assert np.abs(mat - mat.conj().T).max() < 1e-12


def polys(dim, entries):
    """A LaurentMatrix from nested lists of ``{m: c}`` dicts, one per entry."""
    terms = {(i, j, m): c for i, row in enumerate(entries) for j, entry in enumerate(row) for m, c in entry.items()}
    return ps.LaurentMatrix(dim, len(entries), terms)


def test_evaluate_fiber_rejects_nonhermitian():
    bad = polys(1, [[{}, {(1,): 1.0}], [{}, {}]])
    with pytest.raises(HermiticityError):
        evaluate_fiber(bad, [0.3])
    with pytest.raises(HermiticityError):
        ps.fiber_eigenvalues_grid(bad, [[0.3]])


def test_nan_coefficient_fails_hermiticity_check():
    # NaN compares false against any tolerance; the check must not let it through.
    bad = polys(1, [[{}, {(1,): float("nan")}], [{(-1,): float("nan")}, {}]])
    with pytest.raises(HermiticityError, match="nan"):
        ps.fiber_eigenvalues_grid(bad, [[0.3], [0.0]])


@pytest.mark.parametrize("i, j", [(0, 1), (1, 0)])
def test_term_without_a_mirror_fails_hermiticity_check(i, j):
    # One exp(ik) term in either triangle, beside a Hermitian pair of constants.
    entries = [[{}, {(0,): 1.0}], [{(0,): 1.0}, {}]]
    entries[i][j] = {(0,): 1.0, (1,): 1.0}
    bad = polys(1, entries)
    assert bad.hermitian_defect == f"entry ({i}, {j}) has (1+0j) at (1,) but entry ({j}, {i}) has 0j at (-1,)"
    with pytest.raises(HermiticityError):
        ps.fiber_eigenvalues_grid(bad, [[0.3]])


def test_inf_coefficient_fails_hermiticity_check():
    # inf equals its own conjugate, but no fiber that holds it is a finite Hermitian matrix.
    entries = [[dict(p.coeffs) for p in row] for row in entry_polys(ps.symbolic_operator(ps.builtin_graph("kagome"), "adjacency"))]
    entries[2][1][(0, 0)] = entries[1][2][(0, 0)] = float("inf") + 0j
    bad = polys(2, entries)
    with pytest.raises(HermiticityError, match=r"entry \(1, 2\) has \(inf\+0j\) at \(0, 0\)"):
        ps.fiber_eigenvalues_grid(bad, [[0.3, 0.0]])


def test_a_built_matrix_cannot_be_edited(kagome):
    matrix = ps.symbolic_operator(kagome, "adjacency")
    with pytest.raises(TypeError):
        matrix._rows[0] = ((1, (((1, 0), 1.0),)),)
    with pytest.raises(TypeError):
        matrix.power(2).trace().coeffs[(0, 0)] = float("inf")
    with pytest.raises(TypeError):
        matrix.table[0, 1, (1, 0)] = 1.0
    assert matrix.hermitian_defect is None


@pytest.mark.parametrize("graph", [ps.builtin_graph("kagome"), ps.builtin_graph("fig4_chain").with_potential([0.3, -1.2, 0.5, 2.0])])
def test_brackets_and_sweeps_build_no_polynomial_and_check_each_operator_once(monkeypatch, graph):
    polys, checks, solved = [], [], []
    poly_init, check = ps.LaurentPoly.__init__, ps.laurent._hermitian_defect
    monkeypatch.setattr(ps.LaurentPoly, "__init__", lambda self, *args: polys.append(args) or poly_init(self, *args))
    monkeypatch.setattr(ps.laurent, "_hermitian_defect", lambda table: checks.append(table) or check(table))
    for module in (ps.bands, ps.walks):
        original = module.fiber_eigenvalues_grid
        monkeypatch.setattr(module, "fiber_eigenvalues_grid", lambda m, p, f=original, **kw: solved.append(m) or f(m, p, **kw))
    for kind in ps.OPERATOR_KINDS:
        checks.clear(), solved.clear()
        ps.bounds_for_kind(graph, kind, n_max=4)
        assert len(checks) == len(solved) == 1
        checks.clear(), solved.clear()
        ps.band_structure(graph, kind, ps.KGrid(graph.dim, 40))
        assert len(checks) == len({id(m) for m in solved}) == 1 < len(solved)
    assert polys == []


def test_eigenvalues_diagonal():
    lam = eigenvalues(np.diag([3.0, 1.0, 2.0]))
    assert lam.tolist() == [1.0, 2.0, 3.0]


def test_eigenvalues_phase_invariance():
    for theta in (0.0, 0.4, 2.2):
        mat = np.array([[0, np.exp(1j * theta)], [np.exp(-1j * theta), 0]])
        lam = eigenvalues(mat)
        assert lam == pytest.approx([-1.0, 1.0])


def test_eigenvalues_rejects_nonhermitian():
    with pytest.raises(HermiticityError):
        eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_gauge_conjugation_preserves_spectra(builtin):
    g = builtin
    shifts = [tuple(int(v) for v in RNG.integers(-2, 3, g.dim)) for _ in g.labels]
    shifts[0] = (0,) * g.dim
    moved = ps.gauge_transform(g, ps.Gauge(tuple(shifts)))
    sym_a = ps.symbolic_operator(g, "schrodinger")
    sym_b = ps.symbolic_operator(moved, "schrodinger")
    for _ in range(5):
        k = RNG.uniform(0, 2 * np.pi, g.dim)
        lam_a = eigenvalues(evaluate_fiber(sym_a, k))
        lam_b = eigenvalues(evaluate_fiber(sym_b, k))
        assert np.abs(lam_a - lam_b).max() < 1e-10


def test_laplacian_kernel_at_zero(builtin):
    lam = eigenvalues(evaluate_fiber(ps.symbolic_operator(builtin, "laplacian"), np.zeros(builtin.dim)))
    assert abs(lam[0]) < 1e-10


def test_laplacian_range(builtin):
    table = ps.band_structure(builtin, "laplacian", ps.KGrid(builtin.dim, 16))
    top = max(b.hi for b in table.bands)
    assert -1e-9 <= min(b.lo for b in table.bands)
    assert top <= 2 * max(builtin.degrees) + 1e-9


def test_normalized_range(builtin):
    table = ps.band_structure(builtin, "normalized_laplacian", ps.KGrid(builtin.dim, 16))
    assert min(b.lo for b in table.bands) >= -1e-9
    assert max(b.hi for b in table.bands) <= 2 + 1e-9


@pytest.mark.parametrize("name", ["kagome", "hexagonal", "square_diag", "zd(2)", "z_cycle(3)"])
def test_regular_graph_laplacian_scaling(name):
    # On regular graphs the combinatorial Laplacian is degree times the
    # normalized one, fiber by fiber.
    g = ps.builtin_graph(name)
    deg = g.degrees[0]
    assert all(d == deg for d in g.degrees)
    lap = ps.symbolic_operator(g, "laplacian")
    nor = ps.symbolic_operator(g, "normalized_laplacian")
    for _ in range(4):
        k = RNG.uniform(0, 2 * np.pi, g.dim)
        lam_l = eigenvalues(evaluate_fiber(lap, k))
        lam_n = eigenvalues(evaluate_fiber(nor, k))
        assert np.abs(lam_l - deg * lam_n).max() < 1e-10


def test_adjacency_spectrum_window(builtin):
    kappa = max(builtin.degrees)
    table = ps.band_structure(builtin, "adjacency", ps.KGrid(builtin.dim, 16))
    assert min(b.lo for b in table.bands) >= -kappa - 1e-9
    assert max(b.hi for b in table.bands) <= kappa + 1e-9


def test_shifted_schrodinger_window(builtin):
    g = builtin.with_potential(list(RNG.uniform(-2, 2, builtin.num_vertices)))
    ham = ps.symbolic_operator(g, "schrodinger", normalize_potential=True)
    lam = ps.fiber_eigenvalues_grid(ham, ps.KGrid(g.dim, 16).points)
    kappa = max(g.degrees)
    v_plus = max(g.potential[x] - g.degrees[x] for x in range(g.num_vertices)) - schrodinger_shift(g)
    assert lam.min() >= -kappa - 1e-9
    assert lam.max() <= kappa + v_plus + 1e-9


def test_top_band_peaks_at_zero_quasimomentum(builtin):
    g = builtin.with_potential(list(RNG.uniform(-1, 1, builtin.num_vertices)))
    points = ps.KGrid(g.dim, 16).points
    lam = ps.fiber_eigenvalues_grid(ps.symbolic_operator(g, "schrodinger"), points)
    top_at_zero = lam[0, -1]
    assert lam[:, -1].max() <= top_at_zero + 1e-10


def test_transition_entries_mix_degrees(fig4):
    trans = ps.symbolic_operator(fig4, "transition")
    x1, x2 = fig4.ordinal("x1"), fig4.ordinal("x2")
    assert entry_polys(trans)[x1][x2].coeff((0,)) == pytest.approx(1 / np.sqrt(6))


def test_normalized_kind_rejects_isolated_vertex():
    lonely = ps.FundamentalGraph(1, ("a",), (0.0,), ())
    assert lonely.degrees == (0,)
    with pytest.raises(GraphFormatError):
        ps.symbolic_operator(lonely, "transition")


def _operator_identity_inputs(fig4):
    yield fig4.with_potential([0.3, -1.2, 0.5, 2.0])
    for name in BUILTIN_NAMES:
        g = ps.builtin_graph(name)
        yield g.with_potential(list(RNG.uniform(-2, 2, g.num_vertices)))
    yield from (random_graph(seed) for seed in range(10))


def test_schrodinger_equals_minus_laplacian_plus_potential(fig4):
    # Each kind is assembled on its own; these identities tie the kinds together.
    for g in _operator_identity_inputs(fig4):
        lap = ps.symbolic_operator(g, "laplacian")
        for normalize in (False, True):
            ham = entry_polys(ps.symbolic_operator(g, "schrodinger", normalize_potential=normalize))
            shift = schrodinger_shift(g) if normalize else 0.0
            for i in range(g.num_vertices):
                for j in range(g.num_vertices):
                    expect = poly_neg(entry_polys(lap)[i][j])
                    if i == j:
                        expect = poly_add(expect, ps.LaurentPoly(g.dim, {(0,) * g.dim: g.potential[i] - shift}))
                    assert max_diff(ham[i][j], expect) <= 1e-12
        ham = ps.symbolic_operator(g, "schrodinger")
        for _ in range(3):
            k = RNG.uniform(0, 2 * np.pi, g.dim)
            expect = -lap.eval_grid([k])[0] + np.diag(g.potential)
            assert np.abs(ham.eval_grid([k])[0] - expect).max() < 1e-12


def test_normalized_laplacian_equals_identity_minus_transition(fig4):
    for g in _operator_identity_inputs(fig4):
        nor = entry_polys(ps.symbolic_operator(g, "normalized_laplacian"))
        trans = entry_polys(ps.symbolic_operator(g, "transition"))
        for i in range(g.num_vertices):
            for j in range(g.num_vertices):
                expect = poly_add(ps.LaurentPoly(g.dim, {(0,) * g.dim: float(i == j)}), poly_neg(trans[i][j]))
                assert max_diff(nor[i][j], expect) <= 1e-12


@pytest.mark.parametrize("kind", ps.OPERATOR_KINDS)
def test_each_kind_is_assembled_once(monkeypatch, kind):
    # One pass over the edges: no kind is built from another kind.
    calls = []
    original = ps.operators.symbolic_operator

    def spy(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(ps.operators, "symbolic_operator", spy)
    spy(ps.builtin_graph("fig4_chain").with_potential([0.3, -1.2, 0.5, 2.0]), kind)
    assert calls == [kind]


def test_worker_env_variable(monkeypatch, kagome):
    points = ps.KGrid(2, 8).points
    sym = ps.symbolic_operator(kagome, "laplacian")
    base = ps.fiber_eigenvalues_grid(sym, points, workers=1)
    monkeypatch.setenv("PERIODIC_SPECTRA_THREADS", "3")
    multi = ps.fiber_eigenvalues_grid(sym, points)
    assert np.array_equal(base, multi)


def test_worker_count_is_usable_cpus(monkeypatch):
    monkeypatch.delenv("PERIODIC_SPECTRA_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert ps.operators.worker_count() == 1
    assert ps.operators.worker_count(3) == 3
    monkeypatch.setenv("PERIODIC_SPECTRA_THREADS", "4")
    assert ps.operators.worker_count() == 4
    assert ps.operators.worker_count(2) == 2


def ring_quotient(nu: int, dim: int, seed: int, reach: int = 1) -> ps.FundamentalGraph:
    """A ring of ``nu`` vertices with ``dim`` random loops each and a potential.

    Index components are drawn from [-reach, reach]; vertex 0 also carries
    one unit loop per lattice direction.
    """
    rng = np.random.default_rng(seed)
    labels = [f"v{i}" for i in range(nu)]

    def index():
        return tuple(int(x) for x in rng.integers(-reach, reach + 1, dim))

    edges = [(labels[i], labels[(i + 1) % nu], index()) for i in range(nu)]
    edges += [(labels[0], labels[0], tuple(int(s == t) for t in range(dim))) for s in range(dim)]
    edges += [(labels[v], labels[v], index()) for v in range(1, nu) for _ in range(dim)]
    edges = [e for e in edges if e[0] != e[1] or any(e[2])]
    return ps.build_graph(dim, labels, edges, dict(zip(labels, rng.uniform(-1, 1, nu))))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "graph, kind, grid_n",
    [
        (ps.builtin_graph("kagome").with_potential([0.3, -0.7, 0.1]), "schrodinger", 100),
        (ring_quotient(10, 2, 5), "schrodinger", 36),
        (ring_quotient(12, 3, 6), "normalized_laplacian", 10),
    ],
    ids=["kagome", "ring10", "ring12"],
)
def test_streamed_sweep_is_bitwise_entrywise(graph, kind, grid_n, workers):
    matrix = ps.symbolic_operator(graph, kind)
    points = ps.KGrid(graph.dim, grid_n).points
    step = ps.operators.chunk_points(matrix.size)
    # several chunks, the last one partial
    assert len(points) > step and len(points) % step
    lam = ps.fiber_eigenvalues_grid(matrix, points, workers=workers)
    assert lam.shape == (len(points), matrix.size)
    assert lam.tobytes() == np.linalg.eigvalsh(eval_entries_termwise(entry_polys(matrix), points)).tobytes()


@pytest.mark.parametrize(
    "graph, kind",
    [
        (ring_quotient(10, 2, 5), "schrodinger"),
        (ring_quotient(12, 3, 6), "normalized_laplacian"),
        (ring_quotient(7, 2, 8, reach=5), "schrodinger"),
    ],
    ids=["ring10", "ring12", "reach5"],
)
def test_eval_grid_is_split_invariant(graph, kind):
    matrix = ps.symbolic_operator(graph, kind)
    points = np.random.default_rng(11).uniform(0, 2 * np.pi, (97, graph.dim))
    stack = matrix.eval_grid(points)
    assert stack.tobytes() == eval_entries_termwise(entry_polys(matrix), points).tobytes()
    assert stack.tobytes() == np.concatenate([matrix.eval_grid(k[None]) for k in points]).tobytes()
    assert stack.tobytes() == matrix.eval_grid(points[::-1])[::-1].tobytes()
    for k, fiber in zip(points, stack):
        np.testing.assert_allclose(fiber, numeric_fiber(graph, kind, k), rtol=0, atol=1e-12)


def test_eval_grid_into_a_reused_stack():
    # A stack left holding another evaluation is zeroed first: entries with no term read 0.
    matrix = ps.symbolic_operator(ring_quotient(10, 2, 5), "schrodinger")
    points = np.random.default_rng(12).uniform(0, 2 * np.pi, (9, 2))
    stack = np.full((len(points), matrix.size, matrix.size), np.nan + 1j, dtype=complex)
    assert matrix.eval_grid(points, out=stack) is stack
    assert stack.tobytes() == matrix.eval_grid(points).tobytes()
    assert (stack == 0).any()
    for bad in (stack[:-1], stack.real.copy()):
        with pytest.raises(ValueError):
            matrix.eval_grid(points, out=bad)


def within(seconds, fn, *args, **kwargs):
    """Run ``fn`` in a daemon thread; fail if it has not returned after ``seconds``."""
    box = {}

    def target():
        try:
            box["value"] = fn(*args, **kwargs)
        except Exception as exc:
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def test_streamed_sweep_with_more_workers_than_cores(monkeypatch):
    graph = ring_quotient(10, 2, 5)
    matrix = ps.symbolic_operator(graph, "schrodinger")
    points = ps.KGrid(2, 48).points
    workers = 2 * (os.cpu_count() or 1) + 1
    # chunks of 7 points, so every worker gets several
    monkeypatch.setattr(ps.operators, "CHUNK_BYTES", 7 * 16 * matrix.size**2)
    assert len(points) > 4 * workers * ps.operators.chunk_points(matrix.size)
    base = ps.fiber_eigenvalues_grid(matrix, points, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = within(60, ps.fiber_eigenvalues_grid, matrix, points, workers=workers)
    finally:
        sys.setswitchinterval(interval)
    assert many.tobytes() == base.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_nonhermitian_operator_raises_before_any_solve(monkeypatch, workers):
    # M01 = 1 - exp(ik) with M10 = 0: Hermitian at k = 0 only, the first chunks' points.
    bad = polys(1, [[{}, {(0,): 1.0, (1,): -1.0}], [{}, {}]])
    step = ps.operators.chunk_points(2)
    points = np.zeros((5 * step + 3, 1))
    points[-1] = 0.3
    calls = []
    original = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda stack: calls.append(len(stack)) or original(stack))
    with pytest.raises(HermiticityError, match=r"entry \(0, 1\) has \(1\+0j\) at \(0,\) but entry \(1, 0\) has 0j"):
        within(60, ps.fiber_eigenvalues_grid, bad, points, workers=workers)
    assert calls == []
    # The spy sees every point of a Hermitian operator.
    ps.fiber_eigenvalues_grid(bad.power(0), points, workers=workers)
    assert sum(calls) == len(points)


def test_sweep_memory_is_bounded_by_chunks(monkeypatch):
    graph = ring_quotient(16, 3, 7)
    grid = ps.KGrid(3, 24)
    stack_bytes = len(grid.points) * 16 * 16 * 16
    monkeypatch.setenv("PERIODIC_SPECTRA_THREADS", "2")
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        table = ps.band_structure(graph, "laplacian", grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.bands) == 16
    assert peak < stack_bytes / 4
