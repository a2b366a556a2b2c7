"""Laurent-series engine: arithmetic, evaluation, traces, symmetry, and the term table."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import periodic_spectra as ps
from periodic_spectra.laurent import PRUNE_TOL, LaurentMatrix, LaurentPoly

from conftest import (
    BUILTIN_NAMES,
    dict_facts,
    dict_hermitian_defect,
    dict_operator,
    entry_polys,
    eval_entries_termwise,
    hermiticity_defect,
    is_real_on_torus,
    loopless_graph,
    max_abs_frequency,
    max_diff,
    numeric_fiber,
    random_graph,
    regular_graph,
    ring_power,
    ring_product,
    ring_trace,
    support,
)


def test_eval_constant():
    p = LaurentPoly(1, {(0,): 5.0})
    for k in (0.0, 1.3, -2.0):
        assert p.eval_grid([[k]])[0] == pytest.approx(5.0)


def test_eval_cosine():
    p = LaurentPoly(1, {(1,): 0.5, (-1,): 0.5})
    assert p.eval_grid([[0.0]])[0] == pytest.approx(1.0)
    assert p.eval_grid([[np.pi / 3]])[0] == pytest.approx(np.cos(np.pi / 3))


def test_dimension_mismatch():
    p = LaurentPoly(2, {(1, 0): 1.0})
    with pytest.raises(ValueError):
        p.coeff((1,))
    with pytest.raises(ValueError):
        LaurentMatrix(2, 1, {(0, 0, (1, 0)): 1.0}) @ LaurentMatrix(1, 1, {(0, 0, (1,)): 1.0})


def test_z_lattice_square_expansion():
    # (z + 1/z)^2 = z^2 + 2 + z^-2
    sym = ps.symbolic_operator(ps.builtin_graph("zd(1)"), "adjacency")
    squared = sym.power(2)
    diag = entry_polys(squared)[0][0]
    assert diag.coeff((0,)) == pytest.approx(2.0)
    assert diag.coeff((2,)) == pytest.approx(1.0)
    assert diag.coeff((-2,)) == pytest.approx(1.0)
    assert len(diag.coeffs) == 3


def test_identity_multiplication(kagome):
    a = ps.symbolic_operator(kagome, "adjacency")
    eye = a.power(0)
    prod, want = entry_polys(a @ eye), entry_polys(a)
    for i in range(a.size):
        for j in range(a.size):
            assert max_diff(prod[i][j], want[i][j]) == 0.0


def test_matrix_product_matches_pointwise_product(kagome):
    m = ps.symbolic_operator(kagome, "adjacency")
    prod = m @ m
    rng = np.random.default_rng(11)
    for _ in range(5):
        k = rng.uniform(0, 2 * np.pi, 2)
        direct = m.eval_grid([k])[0] @ m.eval_grid([k])[0]
        assert np.abs(prod.eval_grid([k])[0] - direct).max() < 1e-12


def test_trace_of_identity():
    eye = LaurentMatrix(2, 3, {(i, i, (0, 0)): 1.0 for i in range(3)})
    tr = eye.trace()
    assert tr.coeff((0, 0)) == pytest.approx(3.0)
    assert len(tr.coeffs) == 1


def test_trace_sums_the_diagonal_from_zero():
    # (0,) cancels in entry (1, 1) and comes back in entry (2, 2): it restarts from 0, after (1,).
    terms = {(0, 0, (0,)): 1.0, (0, 0, (1,)): 2.0, (1, 1, (0,)): -1.0, (2, 2, (0,)): complex(3.0, -0.0)}
    tr = LaurentMatrix(1, 3, terms).trace()
    assert list(tr.coeffs) == [(1,), (0,)]
    assert repr(tr.coeff((0,)).imag) == "0.0"


def test_kagome_trace_square_coefficients(kagome):
    # Frozen from the closed-walk oracle: 12 backtrack walks have zero index,
    # each proper 2-cycle family lands 2 walks on each of its two indices.
    tr = ps.symbolic_operator(kagome, "adjacency").power(2).trace()
    expected = {
        (0, 0): 12.0,
        (-1, 0): 2.0,
        (1, 0): 2.0,
        (0, 1): 2.0,
        (0, -1): 2.0,
        (1, -1): 2.0,
        (-1, 1): 2.0,
    }
    assert set(tr.coeffs) == set(expected)
    for m, c in expected.items():
        assert tr.coeff(m) == pytest.approx(c, abs=1e-12)
    # the torus average is the zero coefficient
    assert tr.coeff((0, 0)) == pytest.approx(12.0)


def test_kagome_trace_cube_zero_coefficient(kagome):
    # Two triangle families, 3 base points and 2 directions each: 12 walks.
    tr = ps.symbolic_operator(kagome, "adjacency").power(3).trace()
    assert tr.coeff((0, 0)) == pytest.approx(12.0, abs=1e-9)


def test_trace_eval_matches_numeric_trace(kagome):
    tr2 = ps.symbolic_operator(kagome, "adjacency").power(2).trace()
    k = np.array([0.7, -1.1])
    numeric = np.trace(np.linalg.matrix_power(numeric_fiber(kagome, "adjacency", k), 2))
    assert tr2.eval_grid([k])[0] == pytest.approx(numeric, abs=1e-10)


def test_coeff_of_constant_away_from_zero():
    p = LaurentPoly(2, {(0, 0): 4.0})
    assert p.coeff((1, 0)) == 0
    assert p.coeff((0, 0)) == pytest.approx(4.0)


def test_hermitian_power_traces_are_real_on_torus(builtin):
    ham = ps.symbolic_operator(builtin, "schrodinger")
    assert hermiticity_defect(ham) < 1e-12
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4):
        tr = ham.power(n).trace()
        assert is_real_on_torus(tr, 1e-12)
        for _ in range(5):
            k = rng.uniform(0, 2 * np.pi, builtin.dim)
            assert abs(tr.eval_grid([k])[0].imag) < 1e-12


def test_prune_drops_dust():
    p = LaurentMatrix(1, 1, {(0, 0, (0,)): 1.0, (0, 0, (3,)): 1e-16})
    assert support((p @ p.power(0)).trace()) == [(0,)]
    q = LaurentMatrix(1, 1, {(0, 0, (0,)): 1.0, (0, 0, (1,)): 1e-16})
    prod = (q @ q).trace()
    assert (1,) not in prod.coeffs  # 2e-16 cross term pruned
    assert PRUNE_TOL == 1e-14


def test_coefficients_roundtrip():
    p = LaurentPoly(2, {(1, -2): 0.5 + 0.25j, (0, 0): -3.0})
    assert p.coeffs == {(0, 0): -3.0, (1, -2): 0.5 + 0.25j}
    assert support(p) == [(0, 0), (1, -2)]


@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.floats(-5, 5), st.floats(-5, 5)),
        min_size=0,
        max_size=6,
    ),
    st.floats(0, 2 * np.pi),
)
@settings(max_examples=40, deadline=None)
def test_eval_is_linear_in_coefficients(terms, k):
    coeffs = {}
    for m, re, im in terms:
        coeffs[(m,)] = coeffs.get((m,), 0) + complex(re, im)
    p = LaurentPoly(1, coeffs)
    direct = sum(c * np.exp(1j * m[0] * k) for m, c in coeffs.items())
    assert p.eval_grid([[k]])[0] == pytest.approx(complex(direct), abs=1e-9)


def test_grid_average_equals_zero_coefficient(kagome):
    # Exact quadrature once the grid out-resolves the largest frequency.
    tr = ps.symbolic_operator(kagome, "adjacency").power(2).trace()
    n = 2 * max_abs_frequency(tr) + 2
    grid = ps.KGrid(2, n)
    avg = tr.eval_grid(grid.points).mean()
    assert avg.real == pytest.approx(tr.coeff((0, 0)).real, abs=1e-10)
    assert abs(avg.imag) < 1e-10


WIDE_EDGES = [("a", "b", (0, 0, 0)), ("a", "b", (100, 1, 0)), ("a", "b", (101, 1, 0)), ("a", "a", (0, 0, 1))]
# Graphs whose term tables are held to the dict walks: built-ins, random, loopless, regular and wide-index.
TABLE_GRAPHS = (
    [pytest.param(ps.builtin_graph(name), id=name) for name in BUILTIN_NAMES]
    + [pytest.param(random_graph(seed), id=f"random_s{seed}") for seed in range(6)]
    + [pytest.param(loopless_graph(seed, nu, dim), id=f"loopless_s{seed}_{nu}_{dim}") for seed, nu, dim in ((0, 8, 2), (1, 5, 1))]
    + [pytest.param(regular_graph(0, 6, 3), id="regular_6_3")]
    + [pytest.param(ps.build_graph(3, ["a", "b"], WIDE_EDGES), id="wide_index")]
)


@pytest.mark.parametrize("graph", TABLE_GRAPHS)
def test_term_table_and_its_facts_equal_the_dict_walks(graph):
    for kind in ps.OPERATOR_KINDS:
        for normalize in (False, True):
            matrix = ps.symbolic_operator(graph, kind, normalize)
            facts = dict_facts(dict_operator(graph, kind, normalize), graph.dim)
            terms = [(i, j, m, c) for (i, j, m), c in matrix.table.items()]
            assert terms == facts["terms"]
            assert [repr(c) for *_, c in terms] == [repr(c) for *_, c in facts["terms"]]
            assert matrix.hermitian_defect is facts["hermitian_defect"] is None
            assert (matrix.real, matrix.integral) == (facts["real"], facts["integral"])
            assert matrix.frequency_radius == facts["frequency_radius"]
            assert matrix.dyadic_terms == facts["dyadic"]
            # Sums of the same terms in another order: equal up to rounding.
            assert matrix.rho == pytest.approx(facts["rho"], rel=1e-13)
            lip, margin = ps.bands._operator_bounds(matrix)
            assert (lip, margin) == pytest.approx((facts["L"], facts["margin"]), rel=1e-13)


@pytest.mark.parametrize("graph", TABLE_GRAPHS)
def test_eval_grid_is_the_termwise_sum_bit_for_bit(graph):
    points = np.random.default_rng(5).uniform(-2 * np.pi, 2 * np.pi, (23, graph.dim))
    for kind in ps.OPERATOR_KINDS:
        matrix = ps.symbolic_operator(graph, kind)
        stack = matrix.eval_grid(points)
        assert stack.tobytes() == eval_entries_termwise(entry_polys(matrix), points).tobytes()
        # The same bits as the dict entries, each summed term by term in sorted order.
        assert stack.tobytes() == eval_entries_termwise(dict_operator(graph, kind), points).tobytes()


COEFFICIENTS = [1.0, -1.0, 0.5, 2.0, 3.0, 1j, -1j, 1 - 2j, float("nan"), float("inf"), complex("nan+nanj")]


def test_hermitian_verdict_and_facts_equal_the_dict_walks_on_random_tables():
    # Random terms, most of them with their mirror, so that both verdicts and every kind of
    # defect occur, in every order of pairs, on matrices of size 1 to 3.
    rng = np.random.default_rng(51)
    verdicts = set()
    for _ in range(4000):
        size, terms = int(rng.integers(1, 4)), {}
        for _ in range(int(rng.integers(0, 9))):
            i, j, m = int(rng.integers(size)), int(rng.integers(size)), (int(rng.integers(-2, 3)),)
            terms[i, j, m] = c = COEFFICIENTS[rng.integers(len(COEFFICIENTS))]
            if rng.random() < 0.75:
                terms[j, i, (-m[0],)] = complex(c).conjugate()
        matrix = LaurentMatrix(1, size, terms)
        entries = [
            [LaurentPoly(1, {m: c for (a, b, m), c in sorted(terms.items()) if (a, b) == (i, j)}) for j in range(size)]
            for i in range(size)
        ]
        assert matrix.hermitian_defect == dict_hermitian_defect(entries)
        verdicts.add(matrix.hermitian_defect is None)
        if all(np.isfinite(complex(c)) for c in terms.values()):
            facts = dict_facts(entries, 1)
            assert (matrix.real, matrix.integral) == (facts["real"], facts["integral"])
            assert matrix.frequency_radius == facts["frequency_radius"]
            assert matrix.rho == pytest.approx(facts["rho"], rel=1e-13)
    assert verdicts == {True, False}


def test_rows_group_the_table(kagome):
    matrix = ps.symbolic_operator(kagome, "schrodinger")
    assert matrix._rows is matrix._rows
    grouped = [(i, j, m, c) for i, row in enumerate(matrix._rows) for j, terms in row for m, c in terms]
    assert grouped == [(i, j, m, c) for (i, j, m), c in matrix.table.items()]
    assert all(terms for row in matrix._rows for _, terms in row)
    columns = [sorted({j for a, j, _ in matrix.table if a == i}) for i in range(matrix.size)]
    assert [[j for j, _ in row] for row in matrix._rows] == columns


def packed(coeffs):
    """``(key, bytes of the real and imaginary parts)`` per coefficient, in order, so that -0.0 and NaN count."""
    return [(key, struct.pack("<dd", c.real, c.imag)) for key, c in coeffs.items()]


def assert_products_are_the_ring_products(matrix, other, n_max):
    assert packed(matrix.trace().coeffs) == packed(ring_trace(matrix).coeffs)
    assert packed((matrix @ other).table) == packed(ring_product(matrix, other).table)
    for n in range(n_max + 1):
        power, want = matrix.power(n), ring_power(matrix, n)
        assert packed(power.table) == packed(want.table), n
        assert packed(power.trace().coeffs) == packed(ring_trace(want).coeffs), n


@pytest.mark.parametrize("graph", TABLE_GRAPHS)
def test_power_and_trace_are_the_ring_products_bit_for_bit(graph):
    for kind in ps.OPERATOR_KINDS:
        for normalize in (False, True):
            matrix = ps.symbolic_operator(graph, kind, normalize)
            assert_products_are_the_ring_products(matrix, ps.symbolic_operator(graph, "adjacency"), 4)


# Dust below PRUNE_TOL, signed zeros, complex values and non-finite values; pairs of them cancel exactly.
PRODUCT_COEFFICIENTS = [
    1.0, -1.0, 0.5, -0.5, 1 / 3, 0.1, 1e-15, -1e-15, 3e-8, 0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0),
    1j, -1j, 1 - 2j, 2 + 1e-15j, float("nan"), float("inf"), -float("inf"), complex(float("inf"), float("nan")),
]


def random_product_table(rng, dim, size):
    terms = {}
    for _ in range(int(rng.integers(0, 10))):
        key = (int(rng.integers(size)), int(rng.integers(size)), tuple(int(v) for v in rng.integers(-2, 3, dim)))
        terms[key] = PRODUCT_COEFFICIENTS[rng.integers(len(PRODUCT_COEFFICIENTS))]
    return terms


def test_products_are_the_ring_products_on_random_tables():
    rng = np.random.default_rng(54)
    for _ in range(1500):
        dim, size = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        terms, other = random_product_table(rng, dim, size), random_product_table(rng, dim, size)
        if rng.random() < 0.5:  # negated terms, so that more sums of products cancel exactly
            other.update({key: -c for key, c in terms.items() if rng.random() < 0.5})
        assert_products_are_the_ring_products(LaurentMatrix(dim, size, terms), LaurentMatrix(dim, size, other), 3)


def test_products_build_no_polynomial_and_take_no_hermitian_verdict(monkeypatch, kagome):
    polys, checks = [], []
    poly_init, check = LaurentPoly.__init__, ps.laurent._hermitian_defect
    monkeypatch.setattr(LaurentPoly, "__init__", lambda self, *args: polys.append(args) or poly_init(self, *args))
    monkeypatch.setattr(ps.laurent, "_hermitian_defect", lambda table: checks.append(table) or check(table))
    matrix = ps.symbolic_operator(kagome, "schrodinger")
    power = (matrix @ matrix).power(0) @ matrix.power(3)
    assert (polys, checks) == ([], [])
    assert power.trace().coeff((0, 0)) == ring_trace(ring_power(matrix, 3)).coeff((0, 0))
    assert len(checks) == 0
    assert matrix.hermitian_defect is matrix.hermitian_defect is None
    assert len(checks) == 1
