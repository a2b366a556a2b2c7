"""Independent oracles: plain-numpy fibers and brackets built from edge lists.

Nothing here imports the library.  The fiber of every kind is assembled
straight from a ``Quotient``'s edge list; walk sums come from traces of
fiber powers (``Tr M(k)^n`` averaged over a grid fine enough to be exact);
the gauge minimum is a vectorized box search over the same radius-1 box the
seed searches.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from inputs import Quotient

# Bound before any wrapper is installed, so tracing never sees oracle work.
_eigvalsh = np.linalg.eigvalsh

CHUNK = 8192


def degrees(q: Quotient) -> np.ndarray:
    deg = np.zeros(q.num_vertices)
    for a, b, _ in q.edges:
        deg[a] += 1
        deg[b] += 1
    return deg


def _edge_weight(q: Quotient, kind: str) -> np.ndarray:
    if kind in ("transition", "normalized_laplacian"):
        deg = degrees(q)
        return np.array([1.0 / math.sqrt(deg[a] * deg[b]) for a, b, _ in q.edges])
    return np.ones(len(q.edges))


def fiber(q: Quotient, kind: str, ks: np.ndarray, loop_weights=None) -> np.ndarray:
    """Fiber matrices at quasimomenta ``ks`` (npts, d): shape (npts, nu, nu)."""
    nu = q.num_vertices
    weights = _edge_weight(q, kind)
    out = np.zeros((ks.shape[0], nu, nu), dtype=complex)
    for (a, b, idx), w in zip(q.edges, weights):
        phase = w * np.exp(1j * (ks @ np.array(idx, dtype=float)))
        out[:, a, b] += phase
        out[:, b, a] += phase.conj()
    deg = degrees(q)
    diag = np.arange(nu)
    if kind == "laplacian":
        out = -out
        out[:, diag, diag] += deg
    elif kind == "schrodinger":
        out[:, diag, diag] += np.array(q.potential) - deg
    elif kind == "normalized_laplacian":
        out = -out
        out[:, diag, diag] += 1.0
    if loop_weights is not None:
        out[:, diag, diag] += loop_weights
    return out


def eigenvalues(q: Quotient, kind: str, ks: np.ndarray) -> np.ndarray:
    parts = [_eigvalsh(fiber(q, kind, ks[i : i + CHUNK])) for i in range(0, ks.shape[0], CHUNK)]
    return np.concatenate(parts) if parts else np.zeros((0, q.num_vertices))


def lipschitz(q: Quotient, kind: str) -> float:
    """L with |lambda_j(k) - lambda_j(k')| <= L * max_s |k_s - k'_s|.

    Weyl's inequality plus the row-sum bound on the Hermitian difference
    M(k) - M(k'): each oriented edge out of x moves its entry by at most
    |w| * |index|_1 * max_s |dk_s|.
    """
    rows = np.zeros(q.num_vertices)
    for (a, b, idx), w in zip(q.edges, _edge_weight(q, kind)):
        step = abs(w) * sum(abs(v) for v in idx)
        rows[a] += step
        rows[b] += step
    return float(rows.max())


def grid_points(n: int, indices: np.ndarray) -> np.ndarray:
    return 2.0 * np.pi * indices.astype(float) / n


def sublattice(rng: np.random.Generator, dim: int, n: int, max_points: int) -> tuple[np.ndarray, int]:
    """A seeded, randomly offset stride sub-lattice of the ``n^dim`` grid.

    Returns its integer grid coordinates and the stride.
    """
    stride = 1
    while (n // stride) ** dim > max_points or n % stride:
        stride += 1
    offset = rng.integers(0, stride, size=dim)
    axes = [np.arange(offset[s], n, stride) for s in range(dim)]
    mesh = np.array(list(itertools.product(*axes)), dtype=np.int64)
    return mesh, stride


def flat_index(coords: np.ndarray, n: int) -> np.ndarray:
    """Row of each grid coordinate in the library's row-major point order."""
    dim = coords.shape[1]
    weights = n ** np.arange(dim - 1, -1, -1)
    return coords @ weights


# -- brackets ---------------------------------------------------------------


def _walk_matrix(q: Quotient, mode: str, ks: np.ndarray) -> np.ndarray:
    """Fiber of the step matrix whose closed walks the seed enumerates."""
    if mode == "unit":
        return fiber(q, "adjacency", ks)
    if mode == "normalized":
        return fiber(q, "transition", ks)
    raw = np.array(q.potential) - degrees(q)
    return fiber(q, "adjacency", ks, loop_weights=raw - raw.min())


def walk_classes(q: Quotient, mode: str, n_max: int) -> list[tuple[float, float]]:
    """``(B_n1, B_n2)`` for n = 1..n_max from traces of fiber powers.

    ``T_n(k) = sum_j lambda_j(k)^n``.  ``B_n2 = T_n(0) - T_n(pi, .., pi)``;
    the zero-index part is the grid mean of ``T_n``, exact once the grid has
    more than ``n * R`` points per axis, and ``B_n1 = T_n(0) - mean``.
    """
    radius = max((abs(v) for _, _, idx in q.edges for v in idx), default=0)
    n_axis = n_max * radius + 1
    coords = np.array(list(itertools.product(range(n_axis), repeat=q.dim)), dtype=float)
    ks = 2.0 * np.pi * coords / n_axis
    special = np.array([[0.0] * q.dim, [np.pi] * q.dim])
    lam_grid = _eigvalsh(_walk_matrix(q, mode, ks))
    lam_special = _eigvalsh(_walk_matrix(q, mode, special))
    out = []
    for n in range(1, n_max + 1):
        mean = float((lam_grid**n).sum(axis=1).mean())
        t_zero, t_pi = (lam_special**n).sum(axis=1)
        out.append((float(t_zero - mean), float(t_zero - t_pi)))
    return out


def cover_bipartite(q: Quotient) -> bool:
    """Some s in {0,1}^d has length(C) = <s, index(C)> mod 2 on every basis cycle."""
    nu, dim = q.num_vertices, q.dim
    adj: list[list[tuple[int, tuple[int, ...], int]]] = [[] for _ in range(nu)]
    for e, (a, b, idx) in enumerate(q.edges):
        adj[a].append((b, idx, e))
        adj[b].append((a, tuple(-v for v in idx), e))
    depth = [-1] * nu
    path = [None] * nu
    depth[0], path[0] = 0, (0,) * dim
    tree: set[int] = set()
    queue = [0]
    while queue:
        v = queue.pop(0)
        for w, idx, e in adj[v]:
            if depth[w] < 0:
                depth[w] = depth[v] + 1
                path[w] = tuple(p + m for p, m in zip(path[v], idx))
                tree.add(e)
                queue.append(w)
    rows = []
    for e, (a, b, idx) in enumerate(q.edges):
        if e in tree:
            continue
        length = (1 + depth[a] + depth[b]) % 2
        index = tuple((m + pa - pb) % 2 for m, pa, pb in zip(idx, path[a], path[b]))
        rows.append((length, index))
    return any(
        all(length == sum(si * ii for si, ii in zip(s, index)) % 2 for length, index in rows)
        for s in itertools.product((0, 1), repeat=dim)
    )


BOX_CAP = 5_000_000


def box_min_bridges(q: Quotient) -> int | None:
    """Fewest nonzero-index edges over gauges in [-1, 1]^d per free vertex, or
    None when the box exceeds ``BOX_CAP``."""
    nu, dim = q.num_vertices, q.dim
    if 3 ** (dim * (nu - 1)) > BOX_CAP:
        return None
    loops = sum(1 for a, b, idx in q.edges if a == b and any(idx))
    plain = [(a, b, idx) for a, b, idx in q.edges if a != b]
    box = np.array(list(itertools.product((-1, 0, 1), repeat=dim)), dtype=np.int64)
    best = loops + len(plain)
    if nu == 1:
        return loops
    # All box choices for vertices 2..nu-1, repeated for each choice of vertex 1.
    combos = list(itertools.product(range(len(box)), repeat=nu - 2))
    rest = np.array(combos, dtype=np.int64).reshape(len(combos), nu - 2)
    for first in range(len(box)):
        choice = np.concatenate([np.full((rest.shape[0], 1), first), rest], axis=1)
        shifts = np.concatenate([np.zeros((choice.shape[0], 1, dim), dtype=np.int64), box[choice]], axis=1)
        count = np.full(choice.shape[0], loops)
        for a, b, idx in plain:
            moved = np.array(idx) + shifts[:, b] - shifts[:, a]
            count += moved.any(axis=1)
        best = min(best, int(count.min()))
    return best


def expected_bracket(q: Quotient, kind: str, n_max: int, min_bridges: int) -> dict:
    """Every number of the seed's BoundsReport, given the gauge minimum used."""
    if kind == "laplacian":
        q = q.zero_potential()
    deg = degrees(q)
    nu, dim = q.num_vertices, q.dim
    shifted = np.array(q.potential) - deg
    v_plus = float(shifted.max() - shifted.min())
    kappa_minus, kappa_plus = float(deg.min()), float(deg.max())
    v_star = kappa_plus + v_plus
    d_star = dim if dim % 2 == 0 else dim + 1
    bridges = sum(1 for _, _, idx in q.edges if any(idx))
    betti = len(q.edges) - nu + 1
    out_bridges = np.zeros(nu)
    for a, b, idx in q.edges:
        if any(idx):
            out_bridges[a] += 1
            out_bridges[b] += 1
    bridge_ratio = float((out_bridges / deg).sum())
    numerator = 4.0 * dim if cover_bipartite(q) else 2.0 * d_star
    mode = {"schrodinger": "schrodinger", "laplacian": "schrodinger", "adjacency": "unit"}.get(kind, "normalized")
    classes = walk_classes(q, mode, n_max)
    if mode == "schrodinger":
        lower_closed = numerator / v_star ** (nu - 1)
        values = [max(b1, b2) / (n * v_star ** (n - 1)) for n, (b1, b2) in enumerate(classes, 1)]
        upper = upper_closed = 4.0 * min(bridges, min_bridges, betti)
    elif mode == "unit":
        lower_closed = numerator / kappa_plus ** (nu - 1)
        values = [max(b1, b2) / (n * kappa_plus ** (n - 1)) for n, (b1, b2) in enumerate(classes, 1)]
        upper = upper_closed = 4.0 * min(bridges, min_bridges, betti)
    else:
        lower_closed = numerator / kappa_plus**nu
        values = [max(b1, b2) / n for n, (b1, b2) in enumerate(classes, 1)]
        upper_closed = 4.0 * min_bridges / kappa_minus
        upper = min(2.0 * bridge_ratio, upper_closed)
    refined = max([0.0] + values)
    lower = max(lower_closed, refined)
    return {
        "lower_closed_form": lower_closed,
        "lower_refined": refined,
        "lower": lower,
        "upper": upper,
        "upper_closed_form": upper_closed,
        "measure_lower": lower / nu,
        "B1": [b1 for b1, _ in classes],
        "B2": [b2 for _, b2 in classes],
        "bridges": bridges,
        "betti": betti,
    }


def swept_bandwidth(q: Quotient, kind: str, grid_n: int) -> tuple[float, float]:
    """Total bandwidth over the full ``grid_n^d`` grid, and the most it can
    fall short of the true total bandwidth (Lipschitz bound, all bands)."""
    coords = np.array(list(itertools.product(range(grid_n), repeat=q.dim)), dtype=np.int64)
    lam = eigenvalues(q, kind, grid_points(grid_n, coords))
    swept = float((lam.max(axis=0) - lam.min(axis=0)).sum())
    gap = q.num_vertices * 2.0 * lipschitz(q, kind) * np.pi / grid_n
    return swept, gap
