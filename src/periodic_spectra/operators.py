"""Fiber operators on the quotient graph, symbolic and numeric.

Five kinds are assembled from the same edge data:

* ``adjacency``            A(k): entry (x,y) sums exp(i<index, k>) over edges x->y
* ``laplacian``            deg(x) on the diagonal minus A(k)
* ``schrodinger``          A(k) + diag(V_x - deg_x), i.e. -laplacian + V
* ``transition``           A(k) with every edge term divided by sqrt(deg_x deg_y)
* ``normalized_laplacian`` identity minus the transition operator

Each kind is one pass over the oriented edges plus one constant per vertex
on the diagonal; no kind is built from another.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import GraphFormatError, HermiticityError
from .graphs import FundamentalGraph, shifted_loop_weights
from .laurent import LaurentMatrix

#: Operator kind -> the trace kind whose closed walks stand for it; the laplacian's
#: are the Schrodinger walks at V = 0.  Walk sums are defined for trace kinds only.
OPERATOR_KINDS = {
    "adjacency": "adjacency",
    "laplacian": "schrodinger",
    "schrodinger": "schrodinger",
    "normalized_laplacian": "transition",
    "transition": "transition",
}
TRACE_KINDS = tuple(dict.fromkeys(OPERATOR_KINDS.values()))

# Bytes of complex fiber matrices that a sweep evaluates and solves at once.
CHUNK_BYTES = 1 << 20


def symbolic_operator(
    graph: FundamentalGraph,
    kind: str,
    normalize_potential: bool = False,
) -> LaurentMatrix:
    """Assemble the fiber operator of the requested kind as a LaurentMatrix.

    Every oriented edge x->y adds ``sign * exp(i<index, k>)`` to entry
    (x, y), divided by sqrt(deg_x deg_y) for the normalized kinds, with sign
    -1 for the Laplacians and +1 otherwise.  Then each vertex adds one
    diagonal constant: 0, deg_x (laplacian), V_x - deg_x (schrodinger) or 1
    (normalized_laplacian); each term is summed in that order, straight into
    the matrix's term table.  ``normalize_potential`` applies only to the Schrodinger kind and
    shifts the potential so that min(V - deg) = 0 (a bandwidth-neutral energy
    shift used by the combinatorial engines).
    """
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}; expected one of {tuple(OPERATOR_KINDS)}")
    dim, nv, deg = graph.dim, graph.num_vertices, graph.degrees
    normalized = kind in ("normalized_laplacian", "transition")
    if normalized and min(deg) < 1:
        raise GraphFormatError("normalized kinds need every vertex degree >= 1")
    sign = -1.0 if kind in ("laplacian", "normalized_laplacian") else 1.0
    if kind == "laplacian":
        diagonal = deg
    elif kind == "schrodinger":
        diagonal = shifted_loop_weights(graph, normalize=normalize_potential)
    else:
        diagonal = (float(kind == "normalized_laplacian"),) * nv
    sums: defaultdict[tuple[int, int, tuple[int, ...]], float] = defaultdict(int)
    for e in graph.edges:
        sums[e.tail, e.head, e.index] += sign / math.sqrt(deg[e.tail] * deg[e.head]) if normalized else sign
    for x, value in enumerate(diagonal):
        if value:
            sums[x, x, (0,) * dim] += value
    return LaurentMatrix(dim, nv, sums)


def worker_count(workers: int | None = None) -> int:
    """Worker budget: explicit argument, else PERIODIC_SPECTRA_THREADS, else usable CPUs.

    Usable CPUs are those this process may run on (its affinity mask, which
    ``taskset`` and cpusets narrow), where the platform reports them.
    """
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("PERIODIC_SPECTRA_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def chunk_points(size: int) -> int:
    """Grid points per chunk of a sweep over ``size`` x ``size`` fibers."""
    return max(1, CHUNK_BYTES // (16 * size * size))


def fiber_eigenvalues_grid(
    matrix: LaurentMatrix,
    points: np.ndarray,
    workers: int | None = None,
) -> np.ndarray:
    """Sorted fiber eigenvalues at every grid point, shape (npts, size).

    ``matrix`` must be Hermitian coefficient by coefficient, else
    :class:`HermiticityError` names its first bad term before any point is
    solved (``LaurentMatrix.hermitian_defect``, taken once per operator, at
    its first use).  The grid is streamed in
    chunks of :func:`chunk_points` points, about ``CHUNK_BYTES`` of complex
    fiber matrices each, each evaluated and solved while it is still in
    cache; only its eigenvalues are kept.  Memory is therefore the (npts,
    size) result, 2*size times smaller than the stack of fibers, plus a few
    chunks per worker.  Chunks go to a pool of :func:`worker_count` threads,
    worker w taking chunks w, w + workers, ...; their boundaries do not depend
    on the worker count, and neither do the results.  Each worker evaluates
    all its chunks into one stack of fibers, allocated before the pool starts.
    """
    if matrix.hermitian_defect is not None:
        raise HermiticityError(f"fiber operator is not Hermitian: {matrix.hermitian_defect}")
    points = np.asarray(points, dtype=float)
    out = np.empty((points.shape[0], matrix.size))
    step = chunk_points(matrix.size)
    starts = range(0, points.shape[0], step)
    nworkers = max(1, min(worker_count(workers), len(starts)))
    stacks = [np.empty((min(step, len(points)), matrix.size, matrix.size), dtype=complex) for _ in range(nworkers)]

    def solve(w: int) -> None:
        for start in starts[w::nworkers]:
            chunk = points[start : start + step]
            out[start : start + step] = np.linalg.eigvalsh(matrix.eval_grid(chunk, out=stacks[w][: len(chunk)]))

    if nworkers == 1:
        solve(0)
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            list(pool.map(solve, range(nworkers)))
    return out
