"""Closed-walk counts and the weighted sums behind the trace formulas.

Counting convention: a "cycle" here is a closed walk of n oriented edge
steps with a distinguished base point and direction.  Cyclic shifts and the
reversed walk are counted separately, and walks with backtracking parts are
included.  That convention is forced by the matrix identity
Tr M^n(k) = sum over closed n-walks of (step-weight product) * exp(i<index, k>),
which this module reproduces purely combinatorially; reversal symmetry of the
walk set makes the sum real (the cosine form).

Walks are weighed for the three trace kinds, ``TRACE_KINDS``; the operator
kinds map onto them through ``operators.OPERATOR_KINDS``:

* ``adjacency``   every oriented edge weighs 1 (adjacency powers)
* ``schrodinger`` the quotient graph gains one zero-index self-step per
                  vertex weighing v_x = V_x - deg_x, shifted so min v = 0;
                  edge steps weigh 1
* ``transition``  edge step from x weighs 1/deg_x (transition powers)

The Schrodinger self-steps are single steps, not edge pairs: the diagonal of
the fiber matrix carries v_x exactly once.

One exact transfer recursion, :func:`walk_series`, gives the sums index by
index for every length up to N in one pass: from each of the nu base vertices
it carries at most nu * (2nR + 1)^d (vertex, index) states one step further
per length n, R the largest index component, so all N lengths cost what the
last one does.  The bounds need only the classified totals, which
:func:`walk_classes` reads off one eigen-solve of the fiber over a small torus
grid; the recursion is the exact engine behind the CLI's integer columns, the
``traces`` verb's comparison with the symbolic powers and the lattice witnesses.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterator

import numpy as np

from .bands import half_box
from .errors import EngineMismatchError, GraphFormatError
from .graphs import FundamentalGraph, IndexVector, shifted_loop_weights
from .laurent import LaurentMatrix, LaurentPoly
from .operators import OPERATOR_KINDS, TRACE_KINDS, fiber_eigenvalues_grid, symbolic_operator

INTEGER_TOL = 1e-6

# Trace-engine residuals may reach this fraction of the trace scale (at least 1).
TRACE_TOL = 1e-9

# Constant C of the spectral engine's error bound C * n * nu * eps * (nu * rho^n).
ENGINE_ERROR_FACTOR = 64.0


@dataclass(frozen=True)
class WalkClassCounts:
    """Per-index tallies of closed n-walks: exact int count (adjacency) or weighted sum."""

    n: int
    kind: str
    dim: int
    by_index: dict[IndexVector, int | float]

    def value(self, m: IndexVector) -> float:
        return self.by_index.get(tuple(m), 0.0)


@dataclass(frozen=True)
class CycleClassSummary:
    """Classified totals for one walk length.

    Integer counts are populated for the adjacency kind only; the weighted
    totals are meaningful for every kind (and are the counts for adjacency):
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


def walk_series(graph: FundamentalGraph, kind: str, n_max: int) -> Iterator[WalkClassCounts]:
    """Sums over the closed n-walks by index, for n = 1..n_max in one pass.

    A transfer recursion: from each base vertex, carry the summed weight of
    every (vertex, index) state one step further per length, and yield the
    states back at the base.  Step weights are scaled to integers over one
    common denominator, so the arithmetic is exact: adjacency sums are ints,
    and every other sum is rounded to a float once.
    """
    _check_trace_kind(kind)
    if n_max < 1:
        raise ValueError("walk length must be positive")
    if kind == "transition" and min(graph.degrees) < 1:
        raise GraphFormatError("normalized walks need every vertex degree >= 1")
    # (tail, head, index, exact weight); every float is a dyadic rational, so Fraction(v_x) is v_x.
    steps = [
        (e.tail, e.head, e.index, Fraction(1, graph.degrees[e.tail]) if kind == "transition" else 1)
        for e in graph.edges
    ]
    if kind == "schrodinger":
        loops = enumerate(shifted_loop_weights(graph, normalize=True))
        steps += [(x, x, (0,) * graph.dim, Fraction(w)) for x, w in loops if w != 0.0]
    den = math.lcm(*(Fraction(w).denominator for *_, w in steps))
    table: list[list[tuple[int, IndexVector, int]]] = [[] for _ in range(graph.num_vertices)]
    for tail, head, slope, w in steps:
        table[tail].append((head, slope, int(w * den)))
    fronts = [{(base, (0,) * graph.dim): 1} for base in range(graph.num_vertices)]
    for n in range(1, n_max + 1):
        sums: dict[IndexVector, int] = defaultdict(int)
        for base, front in enumerate(fronts):
            ahead: dict[tuple[int, IndexVector], int] = defaultdict(int)
            for (vertex, index), weight in front.items():
                for head, slope, w in table[vertex]:
                    ahead[head, tuple(map(add, index, slope))] += weight * w
            fronts[base] = ahead
            for (vertex, index), weight in ahead.items():
                if vertex == base:
                    sums[index] += weight
        try:
            # int / int rounds correctly, and raises OverflowError past the float range.
            by_index = {m: s if kind == "adjacency" else s / den**n for m, s in sums.items() if s}
        except OverflowError:
            raise ValueError(f"walk sums of length n={n} leave the float range") from None
        yield WalkClassCounts(n, kind, graph.dim, by_index)


def walk_sums_for_kind(graph: FundamentalGraph, kind: str, n: int) -> WalkClassCounts:
    """The last item of :func:`walk_series`: the sums over the closed n-walks alone."""
    return deque(walk_series(graph, kind, n), maxlen=1).pop()


def count_walks(graph: FundamentalGraph, n: int) -> WalkClassCounts:
    """Count all closed n-walks by index (backtracking ones included), exactly."""
    return walk_sums_for_kind(graph, "adjacency", n)


def weighted_walk_sums(graph: FundamentalGraph, n: int) -> WalkClassCounts:
    """Weighted sums over the self-step-augmented graph (Schrodinger powers).

    The self-step weights are shifted so the smallest is zero; the user's
    graph is never mutated, and bandwidths do not feel the shift.
    """
    return walk_sums_for_kind(graph, "schrodinger", n)


def normalized_walk_sums(graph: FundamentalGraph, n: int) -> WalkClassCounts:
    """Degree-weighted sums: each walk weighs the product of 1/deg over its steps."""
    return walk_sums_for_kind(graph, "transition", n)


def _round_count(value: float) -> int:
    nearest = round(value)
    if abs(value - nearest) > INTEGER_TOL:
        raise EngineMismatchError(f"adjacency walk count {value!r} is not an integer")
    return int(nearest)


def classify(counts: WalkClassCounts) -> CycleClassSummary:
    """Collapse per-index tallies into the zero/nonzero/odd classes."""
    t0 = counts.by_index.get((0,) * counts.dim, 0.0)
    b1 = sum(v for m, v in counts.by_index.items() if any(m))
    odd = sum(v for m, v in counts.by_index.items() if sum(m) % 2)
    exact = map(_round_count, (t0, b1, odd)) if counts.kind == "adjacency" else (None, None, None)
    totals = (b1, 2 * odd, t0)
    if max(totals) > float(np.finfo(float).max):
        raise ValueError(f"walk sums of length n={counts.n} leave the float range")
    return CycleClassSummary(counts.n, *exact, *map(float, totals))


def _check_trace_kind(kind: str) -> None:
    if kind not in TRACE_KINDS:
        raise ValueError(f"walk sums are defined for kinds {TRACE_KINDS}, not {kind!r}")


def walk_setting(graph: FundamentalGraph, kind: str) -> tuple[FundamentalGraph, str]:
    """The graph and trace kind ``OPERATOR_KINDS[kind]`` whose walks stand for ``kind``."""
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    if kind == "laplacian" and any(graph.potential):
        graph = graph.with_potential([0.0] * graph.num_vertices)
    return graph, OPERATOR_KINDS[kind]


def walk_matrix(graph: FundamentalGraph, kind: str) -> LaurentMatrix:
    """Symbolic step matrix of a trace kind; Tr of its n-th power holds the walk sums.

    The Schrodinger potential is shifted so min(V - deg) = 0, matching
    :func:`weighted_walk_sums`.
    """
    _check_trace_kind(kind)
    return symbolic_operator(graph, kind, normalize_potential=True)


def trace_scales(matrix: LaurentMatrix, n_max: int) -> np.ndarray:
    """``nu * rho^n`` for n = 1..n_max, rho the largest absolute row sum of M (``LaurentMatrix.rho``).

    rho bounds the norm of every fiber M(k), so ``nu * rho^n`` bounds
    ``|Tr M(k)^n|`` at every k, and also the sum of the absolute
    coefficients of the series ``Tr M^n``.  Residuals of the trace engines
    are judged relative to it.  Raises ``ValueError`` at the first n whose
    scale leaves the float range, before any engine overflows.
    """
    rho = matrix.rho
    scales, scale = [], float(matrix.size)
    for n in range(1, n_max + 1):
        scale *= rho
        if not math.isfinite(scale):
            raise ValueError(f"walk weights leave the float range at n={n} (nu * rho^n with rho = {rho:.6g})")
        scales.append(scale)
    return np.array(scales)


def walk_classes(graph: FundamentalGraph, kind: str, n_max: int) -> tuple[tuple[float, float], ...]:
    """``(B_n1, B_n2)`` for n = 1..n_max from one eigen-solve of the walk matrix M.

    With ``T_n(k) = Tr M(k)^n``, ``B_n2 = T_n(0) - T_n(pi,..,pi)`` and
    ``B_n1 = T_n(0) - T_n0``, where the zero-index sum ``T_n0`` is the mean of
    ``T_n`` over a grid of ``n_max * R_s + 1`` points on each axis s (R_s the
    largest ``|m_s|``; like ``rho`` and integrality, a fact of M's term table),
    exact because it resolves every frequency of ``T_n`` on that axis.  M has
    real coefficients, so ``T_n(-k) = T_n(k)``: of each mirror pair of grid
    points (:func:`bands.half_box`) the first is solved and counted twice, or
    once when it is its own mirror.  The values equal :func:`classify` of the
    exact walk sums.  The sweep streams the points in chunks (see
    :func:`fiber_eigenvalues_grid`), so memory is the points, the
    eigenvalues, one power of them and the (n_max, npts) traces, never the
    stack of fibers.

    The error of each value is of order ``n * nu * eps`` times the trace
    scale ``nu * rho^n`` of :func:`trace_scales`: eigenvalue rounding,
    raised to the n-th power and summed over the spectrum.  The
    engine takes ``ENGINE_ERROR_FACTOR`` times that as its bound, against at
    most 3.5 times seen on the built-ins and random test graphs.  When every
    step weight is an integer (``LaurentMatrix.integral``) and the bound is
    below 1/2, values are rounded to the exact integers.  Otherwise values
    within the bound are set to 0.0: walk weights are nonnegative, so this
    keeps every empty class at exactly zero and never raises a value.
    """
    if n_max < 1:
        raise ValueError("walk length must be positive")
    matrix = walk_matrix(graph, kind)
    scales = trace_scales(matrix, n_max)
    shape = tuple(n_max * r + 1 for r in matrix.frequency_radius)
    # T_n(k) = T_n(-k): one point of each pair {m, -m mod shape}, weighted by the pair's size.
    coords, partner = half_box(shape)
    weights = np.bincount(partner)
    box = 2.0 * np.pi * coords / shape
    # T_n at every point, one row per n; columns: k = pi*(1,..,1), then the half box, whose first point is k = 0.
    traces = _power_traces(matrix, np.vstack([np.full((1, graph.dim), np.pi), box]), n_max)
    # einsum rather than a BLAS product, whose first call adds about 1 MB of work buffers to peak memory.
    t_pi, t_zero, mean = traces[:, 0], traces[:, 1], np.einsum("nk,k->n", traces[:, 1:], weights) / partner.size
    n = np.arange(1, n_max + 1)
    errs = ENGINE_ERROR_FACTOR * n * matrix.size * np.finfo(float).eps * scales
    return tuple(
        (_snap(zero - avg, err, matrix.integral), _snap(zero - pi, err, matrix.integral))
        for zero, avg, pi, err in zip(t_zero, mean, t_pi, errs)
    )


def _power_traces(matrix: LaurentMatrix, points: np.ndarray, n_max: int) -> np.ndarray:
    """Tr M(k)^n for n = 1..n_max at each point, shape (n_max, npts)."""
    # The grids are small: a single worker beats starting a thread pool.
    lam = fiber_eigenvalues_grid(matrix, points, workers=1)
    # One power of the eigenvalues at a time: memory stays at two (npts, nu) arrays.
    traces = np.empty((n_max, lam.shape[0]))
    # Starting from ones, the last power formed is the n_max-th, which trace_scales keeps finite.
    power = np.ones_like(lam)
    for row in traces:
        power *= lam
        row[:] = power.sum(axis=1)
    return traces


def _snap(value: float, err: float, integral: bool) -> float:
    if integral and err < 0.5:
        return float(round(value))
    return 0.0 if abs(value) <= err else float(value)


def coefficient_residual(series: LaurentPoly, sums: WalkClassCounts) -> float:
    """Largest difference between the coefficients of a trace series and walk sums."""
    keys = set(series.coeffs) | set(sums.by_index)
    return max((abs(series.coeff(m) - sums.value(m)) for m in keys), default=0.0)


def trace_series(graph: FundamentalGraph, kind: str, n: int) -> LaurentPoly:
    """Trace of the n-th symbolic power of :func:`walk_matrix`.

    Supported kinds: ``adjacency``, ``schrodinger`` (potential shifted so
    min(V - deg) = 0, matching :func:`weighted_walk_sums`), ``transition``.
    By the trace formula the coefficient at index m is the sum over closed
    n-walks of index m; the ``traces`` verb compares the two engines.
    """
    return walk_matrix(graph, kind).power(n).trace()
