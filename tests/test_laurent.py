"""Laurent-series engine: arithmetic, evaluation, traces, symmetry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import periodic_spectra as ps
from periodic_spectra.laurent import PRUNE_TOL, LaurentMatrix, LaurentPoly

from conftest import hermiticity_defect, is_real_on_torus, max_abs_frequency, max_diff, numeric_fiber, support


def test_eval_constant():
    p = LaurentPoly.constant(1, 5.0)
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
        p + LaurentPoly(1, {(1,): 1.0})


def test_z_lattice_square_expansion():
    # (z + 1/z)^2 = z^2 + 2 + z^-2
    sym = ps.symbolic_operator(ps.builtin_graph("zd(1)"), "adjacency")
    squared = sym.power(2)
    diag = squared.entries[0][0]
    assert diag.coeff((0,)) == pytest.approx(2.0)
    assert diag.coeff((2,)) == pytest.approx(1.0)
    assert diag.coeff((-2,)) == pytest.approx(1.0)
    assert len(diag.coeffs) == 3


def test_identity_multiplication(kagome):
    a = ps.symbolic_operator(kagome, "adjacency")
    eye = LaurentMatrix.identity(a.dim, a.size)
    prod = a @ eye
    for i in range(a.size):
        for j in range(a.size):
            assert max_diff(prod.entries[i][j], a.entries[i][j]) == 0.0


def test_matrix_product_matches_pointwise_product(kagome):
    m = ps.symbolic_operator(kagome, "adjacency")
    prod = m @ m
    rng = np.random.default_rng(11)
    for _ in range(5):
        k = rng.uniform(0, 2 * np.pi, 2)
        direct = m.eval_grid([k])[0] @ m.eval_grid([k])[0]
        assert np.abs(prod.eval_grid([k])[0] - direct).max() < 1e-12


def test_trace_of_identity():
    eye = LaurentMatrix.identity(2, 3)
    tr = eye.trace()
    assert tr.coeff((0, 0)) == pytest.approx(3.0)
    assert len(tr.coeffs) == 1


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
    p = LaurentPoly.constant(2, 4.0)
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
    p = LaurentPoly(1, {(0,): 1.0, (3,): 1e-16})
    assert support(p.prune()) == [(0,)]
    q = LaurentPoly(1, {(0,): 1.0, (1,): 1e-16})
    prod = q * q
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
