"""Fiber operators on the quotient graph, symbolic and numeric.

Five kinds are assembled from the same edge data:

* ``adjacency``            A(k): entry (x,y) sums exp(i<index, k>) over edges x->y
* ``laplacian``            deg(x) on the diagonal minus A(k)
* ``schrodinger``          A(k) + diag(V_x - deg_x), i.e. -laplacian + V
* ``transition``           A(k) with every edge term divided by sqrt(deg_x deg_y)
* ``normalized_laplacian`` identity minus the transition operator

The Schrodinger fiber is deliberately built twice, once as a weighted
adjacency matrix and once as -laplacian + V, and the two assemblies are
required to coincide; a disagreement aborts instead of being symmetrized.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import EngineMismatchError, GraphFormatError, HermiticityError
from .graphs import FundamentalGraph
from .laurent import LaurentMatrix, LaurentPoly

OPERATOR_KINDS = ("adjacency", "laplacian", "schrodinger", "normalized_laplacian", "transition")

HERMITICITY_TOL = 1e-12

# Bytes of complex fiber matrices that a sweep evaluates and solves at once.
CHUNK_BYTES = 1 << 20


def check_kind(kind: str) -> str:
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}; expected one of {OPERATOR_KINDS}")
    return kind


def shifted_loop_weights(graph: FundamentalGraph, normalize: bool = False) -> tuple[float, ...]:
    """Per-vertex weights v_x = V_x - deg_x, optionally shifted so min v_x = 0.

    The shift subtracts a constant from the potential; band positions move but
    every bandwidth is unchanged, and the shifted weights are nonnegative.
    """
    raw = [graph.potential[x] - graph.degrees[x] for x in range(graph.num_vertices)]
    if normalize:
        low = min(raw)
        raw = [v - low for v in raw]
    return tuple(raw)


def symbolic_operator(
    graph: FundamentalGraph,
    kind: str,
    normalize_potential: bool = False,
) -> LaurentMatrix:
    """Assemble the fiber operator of the requested kind as a LaurentMatrix.

    ``normalize_potential`` applies only to the Schrodinger kind and shifts
    the potential so that min(V - deg) = 0 (a bandwidth-neutral energy shift
    used by the combinatorial engines).
    """
    check_kind(kind)
    dim, nv = graph.dim, graph.num_vertices
    if kind in ("normalized_laplacian", "transition") and min(graph.degrees) < 1:
        raise GraphFormatError("normalized kinds need every vertex degree >= 1")

    def edge_weighted(weight_fn) -> LaurentMatrix:
        mat = LaurentMatrix.zeros(dim, nv)
        for e in graph.edges:
            term = LaurentPoly.monomial(dim, e.index, weight_fn(e))
            mat.entries[e.tail][e.head] = mat.entries[e.tail][e.head] + term
        return mat

    if kind == "adjacency":
        return edge_weighted(lambda e: 1.0)

    if kind == "laplacian":
        lap = edge_weighted(lambda e: -1.0)
        for x in range(nv):
            lap.entries[x][x] = lap.entries[x][x] + LaurentPoly.constant(dim, graph.degrees[x])
        return lap

    if kind == "schrodinger":
        weights = shifted_loop_weights(graph, normalize=normalize_potential)
        ham = edge_weighted(lambda e: 1.0)
        for x in range(nv):
            ham.entries[x][x] = ham.entries[x][x] + LaurentPoly.constant(dim, weights[x])
        shift = min(graph.potential[x] - graph.degrees[x] for x in range(nv)) if normalize_potential else 0.0
        alt = symbolic_operator(graph, "laplacian").scaled(-1.0)
        for x in range(nv):
            alt.entries[x][x] = alt.entries[x][x] + LaurentPoly.constant(
                dim, graph.potential[x] - shift
            )
        defect = max(
            ham.entries[i][j].max_diff(alt.entries[i][j])
            for i in range(nv)
            for j in range(nv)
        )
        if defect > 1e-12:
            raise EngineMismatchError(
                f"Schrodinger assemblies disagree by {defect:.3e}"
            )
        return ham

    if kind == "transition":
        deg = graph.degrees
        return edge_weighted(lambda e: 1.0 / np.sqrt(deg[e.tail] * deg[e.head]))

    # normalized_laplacian
    return LaurentMatrix.identity(dim, nv) - symbolic_operator(graph, "transition")


def worker_count(workers: int | None = None) -> int:
    """Worker budget: explicit argument, else PERIODIC_SPECTRA_THREADS, else CPUs."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("PERIODIC_SPECTRA_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def chunk_points(size: int) -> int:
    """Grid points per chunk of a sweep over ``size`` x ``size`` fibers."""
    return max(1, CHUNK_BYTES // (16 * size * size))


def fiber_eigenvalues_grid(
    matrix: LaurentMatrix,
    points: np.ndarray,
    herm_tol: float = HERMITICITY_TOL,
    workers: int | None = None,
) -> np.ndarray:
    """Sorted fiber eigenvalues at every grid point, shape (npts, size).

    The grid is streamed in chunks of :func:`chunk_points` points, about
    ``CHUNK_BYTES`` of complex fiber matrices each.  A chunk is evaluated,
    checked for Hermiticity (a defect above ``herm_tol``, or NaN, raises
    :class:`HermiticityError`) and solved while it is still in cache; only
    its eigenvalues are kept.  Memory is therefore the (npts, size) result,
    2*size times smaller than the stack of fibers, plus a few chunks per
    worker.  Chunks go to a pool of :func:`worker_count` threads; their
    boundaries do not depend on the worker count, and neither do the results.
    """
    points = np.asarray(points, dtype=float)
    out = np.empty((points.shape[0], matrix.size))
    step = chunk_points(matrix.size)
    starts = range(0, points.shape[0], step)

    def solve(start: int) -> None:
        stack = matrix.eval_grid(points[start : start + step])
        defect = float(np.abs(stack - stack.conj().transpose(0, 2, 1)).max())
        if not defect <= herm_tol:  # a NaN defect fails too
            raise HermiticityError(f"fiber matrix deviates from Hermitian by {defect:.3e}")
        out[start : start + step] = np.linalg.eigvalsh(stack)

    nworkers = min(worker_count(workers), len(starts))
    if nworkers <= 1:
        for start in starts:
            solve(start)
    else:
        # map cancels the chunks not yet started once one of them raises.
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            list(pool.map(solve, starts))
    return out
