"""Closed-walk enumeration and the weighted sums behind the trace formulas.

Counting convention: a "cycle" here is a closed walk of n oriented edge
steps with a distinguished base point and direction.  Cyclic shifts and the
reversed walk are counted separately, and walks with backtracking parts are
included.  That convention is forced by the matrix identity
Tr M^n(k) = sum over closed n-walks of (step-weight product) * exp(i<index, k>),
which this module reproduces purely combinatorially; reversal symmetry of the
walk set makes the sum real (the cosine form).

Three step-weight modes:

* ``unit``        every oriented edge weighs 1 (adjacency powers)
* ``schrodinger`` the quotient graph gains one zero-index self-step per
                  vertex weighing v_x = V_x - deg_x (shifted so min v = 0 by
                  default); edge steps weigh 1
* ``normalized``  edge step from x weighs 1/deg_x (transition powers)

The self-steps added in schrodinger mode are single steps, not edge pairs:
the diagonal of the fiber matrix carries v_x exactly once.

Enumeration gives the sums index by index and is exponential in n.  The
bounds need only the classified totals, which :func:`walk_classes` reads off
one eigen-solve of the fiber over a small torus grid; enumeration stays as
the independent engine behind :func:`trace_series`, the CLI's exact integer
columns and the lattice witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EngineMismatchError, GraphFormatError, SearchCapExceeded
from .graphs import FundamentalGraph, IndexVector
from .laurent import LaurentMatrix, LaurentPoly
from .operators import fiber_eigenvalues_grid, shifted_loop_weights, symbolic_operator

MODES = ("unit", "schrodinger", "normalized")

# Upper bound on enumerated walk steps before the combinatorial engine refuses.
DEFAULT_WALK_CAP = 100_000_000

INTEGER_TOL = 1e-6

# Constant C of the spectral engine's error bound C * n * nu^2 * eps * rho^n.
ENGINE_ERROR_FACTOR = 64.0


@dataclass(frozen=True)
class WalkClassCounts:
    """Per-index tallies of closed n-walks: count (unit) or weighted sum."""

    n: int
    mode: str
    dim: int
    by_index: dict[IndexVector, float]

    def value(self, m: IndexVector) -> float:
        return self.by_index.get(tuple(m), 0.0)


@dataclass(frozen=True)
class CycleClassSummary:
    """Classified totals for one walk length.

    Integer counts are populated in unit mode only; the weighted totals are
    meaningful in every mode (and collapse to the counts in unit mode):
    ``b1`` sums weights over nonzero index, ``b2`` twice over odd component
    sum, ``t0`` over zero index.
    """

    n: int
    n_zero: int | None
    n_plus: int | None
    n_odd: int | None
    b1: float
    b2: float
    t0: float


def _steps(graph: FundamentalGraph, mode: str, normalize: bool):
    """Per-vertex step table: list of (head, index, weight)."""
    table: list[list[tuple[int, IndexVector, float]]] = [
        [] for _ in range(graph.num_vertices)
    ]
    if mode == "normalized":
        if min(graph.degrees) < 1:
            raise GraphFormatError("normalized walks need every vertex degree >= 1")
        for e in graph.edges:
            table[e.tail].append((e.head, e.index, 1.0 / graph.degrees[e.tail]))
        return table
    for e in graph.edges:
        table[e.tail].append((e.head, e.index, 1.0))
    if mode == "schrodinger":
        zero = (0,) * graph.dim
        for x, w in enumerate(shifted_loop_weights(graph, normalize=normalize)):
            if w != 0.0:
                table[x].append((x, zero, float(w)))
    return table


def _check_cap(graph: FundamentalGraph, table, n: int, cap: int) -> None:
    fanout = max((len(t) for t in table), default=0)
    if graph.num_vertices * fanout**n > cap:
        raise SearchCapExceeded(
            f"walk enumeration would take about {graph.num_vertices * fanout ** n} steps"
        )


def _enumerate(graph: FundamentalGraph, n: int, mode: str, normalize: bool, cap: int):
    if n < 1:
        raise ValueError("walk length must be positive")
    table = _steps(graph, mode, normalize)
    _check_cap(graph, table, n, cap)
    zero = (0,) * graph.dim
    sums: dict[IndexVector, float] = {}

    def extend(base: int, vertex: int, depth: int, index: IndexVector, weight: float):
        if depth == n:
            if vertex == base:
                sums[index] = sums.get(index, 0.0) + weight
            return
        for head, slope, w in table[vertex]:
            extend(
                base,
                head,
                depth + 1,
                tuple(a + b for a, b in zip(index, slope)),
                weight * w,
            )

    for v in range(graph.num_vertices):
        extend(v, v, 0, zero, 1.0)
    return {m: s for m, s in sums.items() if s != 0.0}


def count_walks(graph: FundamentalGraph, n: int, cap: int = DEFAULT_WALK_CAP) -> WalkClassCounts:
    """Count all closed n-walks by index (backtracking ones included)."""
    return WalkClassCounts(n, "unit", graph.dim, _enumerate(graph, n, "unit", False, cap))


def weighted_walk_sums(
    graph: FundamentalGraph,
    n: int,
    normalize: bool = True,
    cap: int = DEFAULT_WALK_CAP,
) -> WalkClassCounts:
    """Weighted sums over the self-step-augmented graph (Schrodinger powers).

    With ``normalize`` (the default) the self-step weights are shifted so the
    smallest is zero; the user's graph is never mutated, and bandwidths do
    not feel the shift.
    """
    return WalkClassCounts(
        n, "schrodinger", graph.dim, _enumerate(graph, n, "schrodinger", normalize, cap)
    )


def normalized_walk_sums(
    graph: FundamentalGraph, n: int, cap: int = DEFAULT_WALK_CAP
) -> WalkClassCounts:
    """Degree-weighted sums: each walk weighs the product of 1/deg over its steps."""
    return WalkClassCounts(
        n, "normalized", graph.dim, _enumerate(graph, n, "normalized", False, cap)
    )


def _round_count(value: float) -> int:
    nearest = round(value)
    if abs(value - nearest) > INTEGER_TOL:
        raise EngineMismatchError(f"unit-mode walk count {value!r} is not an integer")
    return int(nearest)


def classify(counts: WalkClassCounts) -> CycleClassSummary:
    """Collapse per-index tallies into the zero/nonzero/odd classes."""
    t0 = counts.by_index.get((0,) * counts.dim, 0.0)
    b1 = sum(v for m, v in counts.by_index.items() if any(m))
    b2 = 2.0 * sum(v for m, v in counts.by_index.items() if sum(m) % 2)
    if counts.mode == "unit":
        return CycleClassSummary(
            counts.n,
            _round_count(t0),
            _round_count(b1),
            _round_count(b2 / 2.0),
            float(b1),
            float(b2),
            float(t0),
        )
    return CycleClassSummary(counts.n, None, None, None, float(b1), float(b2), float(t0))


#: Operator kind -> (trace kind whose walks stand for it, walk mode).  The
#: laplacian walks are the Schrodinger walks at zero potential (see
#: :func:`walk_setting`); the normalized Laplacian shares the transition walks.
#: Walk sums and trace series are defined for the trace kinds only.
WALK_KINDS = {
    "adjacency": ("adjacency", "unit"),
    "schrodinger": ("schrodinger", "schrodinger"),
    "laplacian": ("schrodinger", "schrodinger"),
    "transition": ("transition", "normalized"),
    "normalized_laplacian": ("transition", "normalized"),
}
TRACE_KINDS = tuple(kind for kind, (trace, _) in WALK_KINDS.items() if kind == trace)


def _walk_mode(kind: str) -> str:
    if kind not in TRACE_KINDS:
        raise ValueError(f"walk sums are defined for kinds {TRACE_KINDS}, not {kind!r}")
    return WALK_KINDS[kind][1]


def walk_setting(graph: FundamentalGraph, kind: str) -> tuple[FundamentalGraph, str]:
    """The graph and trace kind whose closed walks stand for operator ``kind``."""
    if kind not in WALK_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    if kind == "laplacian":
        graph = graph.with_potential([0.0] * graph.num_vertices)
    return graph, WALK_KINDS[kind][0]


def walk_matrix(graph: FundamentalGraph, kind: str) -> LaurentMatrix:
    """Symbolic step matrix of a trace kind; Tr of its n-th power holds the walk sums.

    The Schrodinger potential is shifted so min(V - deg) = 0, matching
    :func:`weighted_walk_sums`.
    """
    _walk_mode(kind)
    return symbolic_operator(graph, kind, normalize_potential=(kind == "schrodinger"))


def walk_sums_for_kind(
    graph: FundamentalGraph, kind: str, n: int, cap: int = DEFAULT_WALK_CAP
) -> WalkClassCounts:
    mode = _walk_mode(kind)
    if mode == "unit":
        return count_walks(graph, n, cap=cap)
    if mode == "schrodinger":
        return weighted_walk_sums(graph, n, cap=cap)
    return normalized_walk_sums(graph, n, cap=cap)


def check_walk_cap(
    graph: FundamentalGraph, kind: str, n: int, cap: int = DEFAULT_WALK_CAP
) -> None:
    """Raise :class:`SearchCapExceeded` if enumerating the n-walks of ``kind`` would bust ``cap``.

    The step count grows with n, so a check of the largest length refuses a
    run before any enumeration starts.
    """
    mode = _walk_mode(kind)
    _check_cap(graph, _steps(graph, mode, mode == "schrodinger"), n, cap)


def walk_classes(graph: FundamentalGraph, kind: str, n_max: int) -> tuple[tuple[float, float], ...]:
    """``(B_n1, B_n2)`` for n = 1..n_max from one eigen-solve of the walk matrix M.

    With ``T_n(k) = Tr M(k)^n``, ``B_n2 = T_n(0) - T_n(pi,..,pi)`` and
    ``B_n1 = T_n(0) - T_n0``, where the zero-index sum ``T_n0`` is the mean of
    ``T_n`` over a grid of ``n_max * R + 1`` points per axis (R the largest
    index frequency of M), exact because it resolves every frequency of
    ``T_n``.  The values equal :func:`classify` of the enumerated walk sums.
    The sweep streams the grid in chunks (see :func:`fiber_eigenvalues_grid`),
    so memory is the grid points, the eigenvalues, one power of them and the
    (n_max, npts) traces, never the stack of fibers.

    The error of each value is of order ``n * nu^2 * eps * rho^n``, rho the
    largest absolute row sum of M (which bounds its norm): eigenvalue
    rounding, raised to the n-th power and summed over the spectrum.  The
    engine takes ``ENGINE_ERROR_FACTOR`` times that as its bound, against at
    most 3.5 times seen on the built-ins and random test graphs.  When every
    step weight is an integer and the bound is below 1/2, values are rounded
    to the exact integers.  Otherwise values within the bound are set to 0.0:
    walk weights are nonnegative, so this keeps every empty class at exactly
    zero and never raises a value.
    """
    matrix = walk_matrix(graph, kind)
    coeffs = [c for row in matrix.entries for p in row for c in p.coeffs.values()]
    integral = all(c.imag == 0.0 and c.real == round(c.real) for c in coeffs)
    rho = max(sum(abs(c) for p in row for c in p.coeffs.values()) for row in matrix.entries)
    per_axis = n_max * matrix.max_abs_frequency() + 1
    axis = 2.0 * np.pi * np.arange(per_axis) / per_axis
    grid = np.stack(np.meshgrid(*[axis] * graph.dim, indexing="ij"), axis=-1).reshape(-1, graph.dim)
    special = np.array([[0.0] * graph.dim, [np.pi] * graph.dim])
    points = np.vstack([special, grid])
    # T_n at every point, one row per n; columns: k = 0, k = pi*(1,..,1), the grid.
    traces = _power_traces(matrix, points, n_max)
    t_zero, t_pi, mean = traces[:, 0], traces[:, 1], traces[:, 2:].mean(axis=1)
    n = np.arange(1, n_max + 1)
    errs = ENGINE_ERROR_FACTOR * n * matrix.size**2 * np.finfo(float).eps * rho**n
    return tuple(
        (_snap(zero - avg, err, integral), _snap(zero - pi, err, integral))
        for zero, avg, pi, err in zip(t_zero, mean, t_pi, errs)
    )


def _power_traces(matrix: LaurentMatrix, points: np.ndarray, n_max: int) -> np.ndarray:
    """Tr M(k)^n for n = 1..n_max at each point, shape (n_max, npts)."""
    # The grids are small: a single worker beats starting a thread pool.
    lam = fiber_eigenvalues_grid(matrix, points, workers=1)
    # One power of the eigenvalues at a time: memory stays at two (npts, nu) arrays.
    traces = np.empty((n_max, lam.shape[0]))
    power = lam.copy()
    for row in traces:
        row[:] = power.sum(axis=1)
        power *= lam
    return traces


def _snap(value: float, err: float, integral: bool) -> float:
    if integral and err < 0.5:
        return float(round(value))
    return 0.0 if abs(value) <= err else float(value)


def trace_series(
    graph: FundamentalGraph,
    kind: str,
    n: int,
    check: bool = True,
    tol: float = 1e-9,
    cap: int = DEFAULT_WALK_CAP,
) -> LaurentPoly:
    """Trace of the n-th symbolic power, cross-checked against walk sums.

    Supported kinds: ``adjacency``, ``schrodinger`` (potential shifted so
    min(V - deg) = 0, matching :func:`weighted_walk_sums`), ``transition``.
    The coefficient map must agree with the independent walk enumeration to
    ``tol`` per coefficient; a mismatch raises, since it can only mean one of
    the engines is wrong.  The check is skipped when enumeration would bust
    ``cap``.
    """
    series = walk_matrix(graph, kind).power(n).trace()
    if check:
        try:
            sums = walk_sums_for_kind(graph, kind, n, cap=cap)
        except SearchCapExceeded:
            return series
        keys = set(series.coeffs) | set(sums.by_index)
        worst = max(
            (abs(series.coeff(m) - sums.value(m)) for m in keys), default=0.0
        )
        if worst > tol:
            raise EngineMismatchError(
                f"trace-series coefficients deviate from walk sums by {worst:.3e} "
                f"(kind={kind}, n={n})"
            )
    return series
