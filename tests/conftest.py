"""Shared fixtures and independent oracles for the test-suite.

``numeric_fiber`` assembles fiber matrices directly from the edge list with
plain numpy, bypassing the symbolic layer entirely, so tests can pit the two
construction paths against each other.  ``box_min_bridges`` is the exhaustive
gauge search over a shift box, the reference for the spanning-tree search,
and ``exhaustive_tree_search`` is that search run to its end without the
floor that stops ``minimize_bridges``, the reference for its answer.
``enumerate_walk_sums`` is the depth-first search over every closed walk,
the reference for the package's transfer recursion.
``assert_trace_matches_walks`` holds the symbolic trace series to the exact
walk sums, the comparison the ``traces`` verb makes.
``full_box_walk_classes`` takes the walk classes' zero-index mean over the
whole index box, the reference for ``walk_classes``' half box.
``unchecked_graph`` builds quotients the parsers reject (sublattice indices);
``random_graph`` builds seeded random connected quotients, ``regular_graph``
seeded regular ones and ``loopless_graph`` seeded loopless ones.  ``full_band_table`` is the unpruned sweep, the
reference for every band table; ``assert_tables_identical`` compares two
tables bit for bit, and ``assert_pruned_table_is_the_full_sweep`` holds
``band_structure`` to the unpruned sweep with its certified flat levels
(``certified_levels``) snapped alike; ``spy_solved_rows`` records which
points a sweep solves.
``evaluate_fiber``, ``eigenvalues``, ``hermiticity_defect`` and
``is_real_on_torus`` evaluate and check single fibers and symbolic entries;
``entry_polys`` views a symbolic matrix as one Laurent polynomial per entry,
built from its term table;
``support``, ``conj_reflect``, ``max_abs_frequency`` and ``max_diff`` read
and compare Laurent polynomials, and ``poly_add``, ``poly_neg``, ``poly_mul``
and ``prune`` are the polynomial ring's operations on them.
``ring_product``, ``ring_power`` and ``ring_trace`` multiply, power and trace
symbolic matrices entry by entry through those operations, the reference for
the bits of ``LaurentMatrix.__matmul__``, ``power`` and ``trace``.
``eval_entries_termwise`` evaluates a symbolic matrix one entry and one term
at a time, the reference for the bits of ``LaurentMatrix.eval_grid``.
``dict_operator`` assembles a fiber operator as one ``{m: c}`` dict per entry,
in edge order, and ``dict_facts`` reads the facts of such entries by dict
walks: the references for ``LaurentMatrix``'s term table and its facts.
``row_cache_csv`` formats a dispersion dump through a cache of row texts, the
reference for the bytes of ``bands.dispersion_csv_blocks``.
"""

import cmath
import itertools
from operator import neg

import numpy as np
import pytest

import periodic_spectra as ps
from periodic_spectra.errors import HermiticityError
from periodic_spectra.laurent import PRUNE_TOL

# Largest entry-wise Hermiticity defect that the dense oracle below accepts.
HERMITICITY_TOL = 1e-12

BUILTIN_NAMES = [
    "kagome",
    "hexagonal",
    "fig4_chain",
    "square_diag",
    "zd(1)",
    "zd(2)",
    "z_cycle(3)",
    "z_cycle(4)",
]

BIPARTITE_BUILTINS = ["hexagonal", "zd(1)", "zd(2)", "z_cycle(4)"]


def numeric_fiber(graph, kind, k, potential_shift=0.0):
    """Dense fiber matrix straight from edge data (independent of the package's
    symbolic path).  ``potential_shift`` is subtracted from the potential for
    the Schrodinger kind."""
    nv = graph.num_vertices
    deg = np.array(graph.degrees, dtype=float)
    adj = np.zeros((nv, nv), dtype=complex)
    for e in graph.edges:
        adj[e.tail, e.head] += np.exp(1j * np.dot(e.index, k))
    if kind == "adjacency":
        return adj
    if kind == "laplacian":
        return np.diag(deg) - adj
    if kind == "schrodinger":
        v = np.array(graph.potential) - deg - potential_shift
        return adj + np.diag(v)
    trans = adj / np.sqrt(np.outer(deg, deg))
    if kind == "transition":
        return trans
    if kind == "normalized_laplacian":
        return np.eye(nv) - trans
    raise ValueError(kind)


def _hermitian(matrix, herm_tol):
    matrix = np.asarray(matrix, dtype=complex)
    defect = float(np.abs(matrix - matrix.conj().T).max())
    if defect > herm_tol:
        raise HermiticityError(f"matrix deviates from Hermitian by {defect:.3e}")
    return matrix


def eigenvalues(matrix, herm_tol=HERMITICITY_TOL):
    """All eigenvalues of a dense Hermitian matrix, ascending; aborts if not Hermitian."""
    return np.linalg.eigvalsh(_hermitian(matrix, herm_tol))


def evaluate_fiber(matrix, k, herm_tol=HERMITICITY_TOL):
    """A symbolic fiber evaluated at one quasimomentum; aborts if not Hermitian."""
    return _hermitian(matrix.eval_grid([k])[0], herm_tol)


def entry_polys(matrix):
    """Entry (i, j) of ``matrix`` as a LaurentPoly, its terms in table order (by frequency)."""
    polys = [[{} for _ in range(matrix.size)] for _ in range(matrix.size)]
    for (i, j, m), c in matrix.table.items():
        polys[i][j][m] = c
    return [[ps.LaurentPoly(matrix.dim, p) for p in row] for row in polys]


def poly_add(a, b):
    """``a + b`` in the polynomial ring: each coefficient of ``b`` is added, in order, to a running
    sum that starts from 0, and a sum that is exactly 0 drops its term."""
    out = dict(a.coeffs)
    for m, c in b.coeffs.items():
        s = out.get(m, 0) + c
        if s == 0:
            out.pop(m, None)
        else:
            out[m] = s
    return ps.LaurentPoly(a.dim, out)


def poly_neg(a):
    return ps.LaurentPoly(a.dim, {m: -c for m, c in a.coeffs.items()})


def prune(a):
    """``a`` without its terms of ``|c| < PRUNE_TOL``; NaN goes too."""
    return ps.LaurentPoly(a.dim, {m: c for m, c in a.coeffs.items() if abs(c) >= PRUNE_TOL})


def poly_mul(a, b):
    """``a * b`` in the polynomial ring: ``c1 * c2`` summed from 0 over the terms of ``a``, then of
    ``b``, in order; the product is pruned."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    out = {}
    for m1, c1 in a.coeffs.items():
        for m2, c2 in b.coeffs.items():
            key = tuple(x + y for x, y in zip(m1, m2))
            out[key] = out.get(key, 0) + c1 * c2
    return prune(ps.LaurentPoly(a.dim, out))


def ring_product(a, b):
    """``a @ b`` through the polynomial ring: entry (i, j) adds, from the zero polynomial, the products
    of entry (i, l) and entry (l, j) over the l whose (i, l) is nonzero, in ascending l, then is pruned."""
    if a.size != b.size or a.dim != b.dim:
        raise ValueError("dimension mismatch")
    left, right, terms = entry_polys(a), entry_polys(b), {}
    for i, row in enumerate(left):
        for j in range(a.size):
            entry = ps.LaurentPoly(a.dim)
            for l, poly in enumerate(row):
                if poly.coeffs:
                    entry = poly_add(entry, poly_mul(poly, right[l][j]))
            terms.update(((i, j, m), c) for m, c in prune(entry).coeffs.items())
    return ps.LaurentMatrix(a.dim, a.size, terms)


def ring_power(matrix, n):
    """``matrix.power(n)`` through :func:`ring_product`, from the identity."""
    result = ps.LaurentMatrix(matrix.dim, matrix.size, {(i, i, (0,) * matrix.dim): 1.0 for i in range(matrix.size)})
    for _ in range(n):
        result = ring_product(result, matrix)
    return result


def ring_trace(matrix):
    """``matrix.trace()`` as the ring adds its diagonal entries, in order, to the zero polynomial."""
    total = ps.LaurentPoly(matrix.dim)
    for i, row in enumerate(entry_polys(matrix)):
        total = poly_add(total, row[i])
    return total


def support(poly):
    """Frequencies of the polynomial's terms, sorted."""
    return sorted(poly.coeffs)


def conj_reflect(poly):
    """Conjugate coefficients and negate frequencies: the torus conjugate."""
    return ps.LaurentPoly(poly.dim, {tuple(-v for v in m): c.conjugate() for m, c in poly.coeffs.items()})


def max_abs_frequency(poly):
    """Largest |m_s| over the support, 0 for the zero polynomial."""
    return max((max(map(abs, m)) for m in poly.coeffs if m), default=0)


def max_diff(a, b):
    """Largest coefficient difference between two polynomials of one dimension."""
    assert a.dim == b.dim
    return max((abs(a.coeffs.get(m, 0) - b.coeffs.get(m, 0)) for m in a.coeffs.keys() | b.coeffs.keys()), default=0.0)


def hermiticity_defect(matrix):
    """Largest coefficient deviation from entry(j,i) == conj-reflect(entry(i,j))."""
    entries = entry_polys(matrix)
    return max(
        max_diff(entries[j][i], conj_reflect(entries[i][j]))
        for i in range(matrix.size)
        for j in range(i, matrix.size)
    )


def is_real_on_torus(poly, tol=1e-12):
    """True when the polynomial equals its torus conjugate, so it is real at every k."""
    return max_diff(poly, conj_reflect(poly)) <= tol


def eval_entries_termwise(entries, points):
    """Stack of the matrix of LaurentPoly ``entries`` at ``points``, each entry summed on its own, term by term.

    Per term, ``<m, k>`` is summed in axis order and ``c * exp(i<m, k>)`` is
    added in sorted-frequency order, with plain numpy and no ``@``.
    """
    points = np.asarray(points, dtype=float)
    stack = np.zeros((len(points), len(entries), len(entries)), dtype=complex)
    for i, row in enumerate(entries):
        for j, poly in enumerate(row):
            acc = None
            for m, c in sorted(poly.coeffs.items()):
                angle = points[:, 0] * m[0]
                for s in range(1, len(m)):
                    angle = angle + points[:, s] * m[s]
                term = c * np.exp(1j * angle)
                acc = term if acc is None else acc + term
            if acc is not None:
                stack[:, i, j] = acc
    return stack


def dict_operator(graph, kind, normalize_potential=False):
    """The fiber operator's entries as LaurentPolys, each a dict filled edge by edge, then the diagonal.

    Each ``{m: c}`` keeps the order in which its frequencies first appear; exact zeros are dropped.
    """
    nv, deg = graph.num_vertices, graph.degrees
    normalized = kind in ("normalized_laplacian", "transition")
    sign = -1.0 if kind in ("laplacian", "normalized_laplacian") else 1.0
    if kind == "laplacian":
        diagonal = deg
    elif kind == "schrodinger":
        diagonal = ps.operators.shifted_loop_weights(graph, normalize=normalize_potential)
    else:
        diagonal = (float(kind == "normalized_laplacian"),) * nv
    sums = [[{} for _ in range(nv)] for _ in range(nv)]
    for e in graph.edges:
        weight = sign / np.sqrt(deg[e.tail] * deg[e.head]) if normalized else sign
        sums[e.tail][e.head][e.index] = sums[e.tail][e.head].get(e.index, 0) + float(weight)
    for x, value in enumerate(diagonal):
        if value:
            sums[x][x][(0,) * graph.dim] = sums[x][x].get((0,) * graph.dim, 0) + value
    return [[ps.LaurentPoly(graph.dim, terms) for terms in row] for row in sums]


def dict_hermitian_defect(entries):
    """The first term that keeps the matrix of ``entries`` from being Hermitian, or None, walking each
    pair i <= j in row-major order: the terms of (i, j) in dict order, then those of (j, i) with no mirror."""
    for i, row in enumerate(entries):
        for j in range(i, len(entries)):
            upper, lower, matched = row[j].coeffs, entries[j][i].coeffs, 0
            for m, c in upper.items():
                mirror = lower.get(key := tuple(map(neg, m)))
                matched += mirror is not None
                if not (cmath.isfinite(c) and c == (mirror or 0j).conjugate()):
                    return f"entry ({i}, {j}) has {c} at {m} but entry ({j}, {i}) has {mirror or 0j} at {key}"
            if matched < len(lower):
                for m, c in lower.items():
                    if (key := tuple(map(neg, m))) not in upper:
                        return f"entry ({j}, {i}) has {c} at {m} but entry ({i}, {j}) has 0j at {key}"
    return None


def dict_facts(entries, dim):
    """The facts that ``LaurentMatrix`` keeps, read off ``entries`` by dict walks.

    ``terms`` is the sorted ``(i, j, m, c)``; ``L`` and ``margin`` are those of
    ``bands._operator_bounds``, and ``dyadic`` is ``(2**e, terms with a)`` for real coefficients.
    """
    size = len(entries)
    terms = sorted((i, j, m, c) for i, row in enumerate(entries) for j, p in enumerate(row) for m, c in p.coeffs.items())
    coeffs = [c for *_, c in terms]
    slope, norm, noise = np.zeros((3, size, size))
    eps = np.finfo(float).eps
    for i, row in enumerate(entries):
        for j, poly in enumerate(row):
            slope[i, j] = sum(abs(c) * sum(map(abs, m)) for m, c in poly.coeffs.items())
            norm[i, j] = sum(map(abs, poly.coeffs.values()))
            noise[i, j] = eps * sum(
                abs(c) * (np.pi * (dim + 1) * sum(map(abs, m)) + len(poly.coeffs) + 2) for m, c in poly.coeffs.items()
            )
    lip, rho_sym, noise = (float(np.maximum(w, w.T).sum(axis=1).max()) for w in (slope, norm, noise))
    real = not any(c.imag != 0 for c in coeffs)
    facts = {
        "terms": terms,
        "hermitian_defect": dict_hermitian_defect(entries),
        "real": real,
        "integral": all(c.imag == 0.0 and c.real == round(c.real) for c in coeffs),
        "frequency_radius": tuple(max((abs(m[s]) for *_, m, _ in terms), default=0) for s in range(dim)),
        "rho": max(sum(abs(c) for p in row for c in p.coeffs.values()) for row in entries),
        "L": lip,
        "margin": 1e-12 * (1.0 + rho_sym) + 2.0 * noise,
    }
    if real:
        ratios = [(i, j, m, c.real.as_integer_ratio()) for i, j, m, c in terms]
        scale = max((den for *_, (_, den) in ratios), default=1)
        facts["dyadic"] = (scale, tuple((i, j, m, num * (scale // den)) for i, j, m, (num, den) in ratios))
    return facts


def box_min_bridges(graph, radius):
    """Fewest bridges over gauges with every shift in [-radius, radius]^dim.

    Vertex 0 stays at the origin.  Exact inside the box, so an upper bound
    for the minimum over all gauges.
    """
    und = graph.unoriented()
    loops = sum(1 for e in und if e.is_loop() and any(e.index))
    plain = [(e.tail, e.head, e.index) for e in und if not e.is_loop()]
    box = list(itertools.product(range(-radius, radius + 1), repeat=graph.dim))
    best = None
    for combo in itertools.product(box, repeat=graph.num_vertices - 1):
        shifts = ((0,) * graph.dim,) + combo
        count = loops + sum(
            1
            for tail, head, idx in plain
            if any(t + shifts[head][s] - shifts[tail][s] for s, t in enumerate(idx))
        )
        best = count if best is None else min(best, count)
    return best


def exhaustive_tree_search(graph):
    """``(gauge, count)`` of the spanning-tree gauge search run to its end, with no floor and no cap.

    The search that ``minimize_bridges`` ran before it stopped at a proven
    floor: trees grow depth first, edge by edge, a branch is cut once the
    bridges it cannot avoid reach the best count so far, and only a strictly
    smaller count replaces the best, which starts at the given gauge's.
    """
    nv, d = graph.num_vertices, graph.dim
    und = graph.unoriented()
    loop_bridges = sum(1 for e in und if e.is_loop() and any(e.index))
    plain = sorted(((e.tail, e.head, e.index) for e in und if not e.is_loop()), key=lambda edge: any(edge[2]))
    zero = (0,) * d
    best_count = sum(1 for _, _, idx in plain if any(idx))
    best_shifts = (zero,) * nv
    comp = list(range(nv))
    shift = [zero] * nv
    forced = [False] * len(plain)

    def offset(j):
        tail, head, idx = plain[j]
        return tuple(shift[tail][s] - t - shift[head][s] for s, t in enumerate(idx))

    def unavoidable():
        count = sum(forced)
        between = {}
        for j, (tail, head, _) in enumerate(plain):
            if forced[j]:
                continue
            a, b, off = comp[tail], comp[head], offset(j)
            if a == b:
                count += any(off)
                continue
            if a > b:
                a, b, off = b, a, tuple(-v for v in off)
            tally = between.setdefault((a, b), {})
            tally[off] = tally.get(off, 0) + 1
        return count + sum(sum(t.values()) - max(t.values()) for t in between.values())

    def connectable(start):
        root = {c: c for c in comp}

        def find(c):
            while root[c] != c:
                c = root[c]
            return c

        pieces = len(root)
        for tail, head, _ in plain[start:]:
            a, b = find(comp[tail]), find(comp[head])
            if a != b:
                root[a] = b
                pieces -= 1
        return pieces == 1

    stack = [("visit", 0, 0)] if nv > 1 else []
    while stack:
        step = stack.pop()
        if step[0] == "restore":
            for v, c, vec in step[1]:
                comp[v], shift[v] = c, vec
            continue
        if step[0] == "unforce":
            forced[step[1]] = False
            continue
        _, i, joined = step
        if step[0] == "skip":
            if connectable(i + 1):
                forced[i] = True
                stack += [("unforce", i), ("visit", i + 1, joined)]
            continue
        if unavoidable() >= best_count:
            continue
        if joined == nv - 1:
            best_count = sum(any(offset(j)) for j in range(len(plain)))
            best_shifts = tuple(shift)
            continue
        tail, head, _ = plain[i]
        if comp[tail] == comp[head]:
            stack.append(("visit", i + 1, joined))
            continue
        off = offset(i)
        moved = [v for v in range(nv) if comp[v] == comp[head]]
        stack += [("skip", i, joined), ("restore", [(v, comp[v], shift[v]) for v in moved])]
        for v in moved:
            comp[v] = comp[tail]
            shift[v] = tuple(a + b for a, b in zip(shift[v], off))
        stack.append(("visit", i + 1, joined + 1))
    return ps.Gauge(best_shifts), loop_bridges + best_count


def enumerate_walk_sums(graph, n, mode, normalize=True):
    """Closed n-walk sums by index from a depth-first search over every walk.

    Its step table comes straight from the edge list, with float weights
    multiplied along each walk: 1 per edge step in ``unit`` and
    ``schrodinger`` mode plus one zero-index self-step of weight
    V_x - deg_x (shifted so the smallest is 0 when ``normalize``), and
    1/deg_x per step from x in ``normalized`` mode.  Costs nu * fanout^n.
    """
    deg = graph.degrees
    table = [[] for _ in range(graph.num_vertices)]
    for e in graph.edges:
        table[e.tail].append((e.head, e.index, 1.0 / deg[e.tail] if mode == "normalized" else 1.0))
    if mode == "schrodinger":
        shift = schrodinger_shift(graph) if normalize else 0.0
        for x in range(graph.num_vertices):
            w = graph.potential[x] - deg[x] - shift
            if w != 0.0:
                table[x].append((x, (0,) * graph.dim, w))
    sums = {}

    def extend(base, vertex, depth, index, weight):
        if depth == n:
            if vertex == base:
                sums[index] = sums.get(index, 0.0) + weight
            return
        for head, slope, w in table[vertex]:
            extend(base, head, depth + 1, tuple(a + b for a, b in zip(index, slope)), weight * w)

    for v in range(graph.num_vertices):
        extend(v, v, 0, (0,) * graph.dim, 1.0)
    return {m: s for m, s in sums.items() if s != 0.0}


def unchecked_graph(dim, labels, edges):
    """A FundamentalGraph from (tail, head, index) triples, skipping the lattice
    check, so quotients whose cycle indices span a proper sublattice can be built."""
    ordinals = {lab: i for i, lab in enumerate(labels)}
    oriented = []
    for pair_id, (a, b, idx) in enumerate(edges):
        e = ps.OrientedEdge(ordinals[a], ordinals[b], tuple(idx), pair_id)
        oriented += [e, e.reversed()]
    return ps.FundamentalGraph(dim, tuple(labels), (0.0,) * len(labels), tuple(oriented))


def assert_trace_matches_walks(graph, kind, n):
    """``trace_series`` equals the exact walk sums to ``TRACE_TOL`` of the trace scale; returns the series."""
    series = ps.trace_series(graph, kind, n)
    residual = ps.walks.coefficient_residual(series, ps.walk_sums_for_kind(graph, kind, n))
    scale = ps.walks.trace_scales(ps.walks.walk_matrix(graph, kind), n)[-1]
    assert residual <= ps.walks.TRACE_TOL * max(1.0, scale)
    return series


def assert_walk_classes_match(graph, n_max):
    """The spectral walk classes equal the classified exact walk sums, zeros exactly."""
    for kind in ps.walks.TRACE_KINDS:
        spectral = ps.walk_classes(graph, kind, n_max)
        assert len(spectral) == n_max
        for n, (b1, b2) in enumerate(spectral, 1):
            summary = ps.classify(ps.walk_sums_for_kind(graph, kind, n))
            for value, want in ((b1, summary.b1), (b2, summary.b2)):
                if want == 0.0:
                    assert value == 0.0
                else:
                    assert value == pytest.approx(want, rel=1e-9)


def full_box_walk_classes(graph, kind, n_max):
    """``walk_classes`` with ``T_n0`` the plain mean over every point of the index box.

    The box has ``n_max * R_s + 1`` points on axis s; the same snap and error
    bound as the engine.  Returns the classes and the bound of each n.
    """
    matrix = ps.walks.walk_matrix(graph, kind)
    coeffs = list(matrix.table.values())
    integral = all(c.imag == 0.0 and c.real == round(c.real) for c in coeffs)
    axes = [2.0 * np.pi * np.arange(n_max * r + 1) / (n_max * r + 1) for r in matrix.frequency_radius]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, graph.dim)
    special = np.array([[0.0] * graph.dim, [np.pi] * graph.dim])
    traces = ps.walks._power_traces(matrix, np.vstack([special, grid]), n_max)
    n = np.arange(1, n_max + 1)
    errs = ps.walks.ENGINE_ERROR_FACTOR * n * matrix.size * np.finfo(float).eps * ps.walks.trace_scales(matrix, n_max)
    snap = ps.walks._snap
    classes = [
        (snap(zero - avg, err, integral), snap(zero - pi, err, integral))
        for zero, avg, pi, err in zip(traces[:, 0], traces[:, 2:].mean(axis=1), traces[:, 1], errs)
    ]
    return classes, errs


def random_graph(seed: int, dim: int | None = None) -> ps.FundamentalGraph:
    """A random connected quotient of rank ``dim`` (1 or 2, drawn from the seed, by default).

    A random spanning tree on 2-4 vertices, one to three extra edges (loops and
    multi-edges allowed) with indices in [-1, 1]^d, one unit-index loop per
    lattice direction so the cycle indices span Z^d, and a random potential.
    """
    rng = np.random.default_rng(1000 + seed)
    dim = dim or int(rng.integers(1, 3))
    nv = int(rng.integers(2, 5))
    labels = [f"v{i}" for i in range(nv)]

    def rand_index():
        return tuple(int(v) for v in rng.integers(-1, 2, dim))

    edges = []
    for child in range(1, nv):
        parent = int(rng.integers(0, child))
        edges.append((labels[parent], labels[child], rand_index()))
    for _ in range(int(rng.integers(1, 4))):
        a, b = int(rng.integers(0, nv)), int(rng.integers(0, nv))
        edges.append((labels[a], labels[b], rand_index()))
    # guarantee the cycle indices span the whole lattice
    for s in range(dim):
        host = int(rng.integers(0, nv))
        unit = tuple(1 if j == s else 0 for j in range(dim))
        edges.append((labels[host], labels[host], unit))
    potential = {lab: float(v) for lab, v in zip(labels, rng.uniform(-2, 2, nv))}
    return ps.build_graph(dim, labels, edges, potential)


def regular_graph(seed: int, nu: int, dim: int) -> ps.FundamentalGraph:
    """A seeded (2 + 2d)-regular quotient on ``nu`` vertices with a random potential.

    A random Hamiltonian cycle with indices in [-1, 1]^d, one unit-index loop
    per lattice direction at vertex 0, and d loops with random nonzero indices
    at every other vertex: dispersive bands with no flat level.
    """
    rng = np.random.default_rng(2000 + seed)
    labels = [f"v{i}" for i in range(nu)]
    perm = rng.permutation(nu)
    edges = [
        (labels[perm[i]], labels[perm[(i + 1) % nu]], tuple(int(v) for v in rng.integers(-1, 2, dim)))
        for i in range(nu)
    ]
    edges += [(labels[0], labels[0], tuple(int(j == s) for j in range(dim))) for s in range(dim)]
    for v in range(1, nu):
        for _ in range(dim):
            idx = rng.integers(-1, 2, dim)
            idx[rng.integers(dim)] = 1
            edges.append((labels[v], labels[v], tuple(int(x) for x in idx)))
    return ps.build_graph(dim, labels, edges, dict(zip(labels, (float(v) for v in rng.uniform(-1, 1, nu)))))


def loopless_graph(seed: int, nu: int, dim: int) -> ps.FundamentalGraph:
    """A seeded 6-regular quotient on ``nu`` >= 3 vertices with no loops and a random potential.

    The union of three random Hamiltonian cycles (multi-edges allowed), every
    edge index drawn from {-1, 0, 1}^dim, redrawn until the cycle indices
    generate Z^dim.  With no loop to force a bridge, these are the inputs
    where ``graphs.bridge_floor`` is weakest.
    """
    rng = np.random.default_rng([seed, nu, 7])
    labels = [f"v{i}" for i in range(nu)]
    while True:
        edges = []
        for _ in range(3):
            perm = rng.permutation(nu)
            edges += [
                (labels[perm[i]], labels[perm[(i + 1) % nu]], tuple(int(v) for v in rng.integers(-1, 2, dim)))
                for i in range(nu)
            ]
        potential = dict(zip(labels, (float(v) for v in rng.uniform(-1, 1, nu))))
        try:
            return ps.build_graph(dim, labels, edges, potential)
        except ps.GraphFormatError:
            continue


def full_band_table(graph, kind, grid, power=1, levels=()):
    """The band table of the unpruned sweep: every point of ``grid.half`` solved.

    With ``power``, each row is raised to it and re-sorted, as
    ``power_band_structure`` does.  ``levels`` are certified flat levels,
    reported as ``band_structure`` reports them: the candidate within the
    sweep's rounding margin (``bands._operator_bounds``) of each level v reads
    ``(v, 0.0)``, and so does every band end within that margin of v.
    """
    matrix = ps.symbolic_operator(graph, kind)
    lam = ps.fiber_eigenvalues_grid(matrix, grid.angles(grid.half[0]))
    if power != 1:
        lam = np.sort(lam**power, axis=1)
    table = ps.bands.table_from_eigenvalues(kind, grid, lam)
    if not levels:
        return table
    margin = ps.bands._operator_bounds(matrix)[1]
    lows, highs = lam.min(axis=0), lam.max(axis=0)
    candidates = list(table.flat_candidates)
    for v in levels:
        (c,) = [c for c, (value, _) in enumerate(candidates) if abs(value - v) <= margin]
        # Only a level that the full sweep samples as flat can be certified.
        assert candidates[c][1] < ps.bands.default_flat_tol(v)
        candidates[c] = (v, 0.0)
        lows, highs = np.where(np.abs(lows - v) <= margin, v, lows), np.where(np.abs(highs - v) <= margin, v, highs)
    return ps.bands._table(kind, grid, lows, highs, tuple(candidates))


def certified_levels(table):
    """The flat levels that a band table reports with residual exactly 0.0, as certified ones read."""
    return [value for value, residual in table.flat_candidates if residual == 0.0]


def assert_pruned_table_is_the_full_sweep(graph, kind, grid):
    """``band_structure`` equals the unpruned sweep bit for bit, certified levels snapped alike; returns its table.

    The levels are those that ``bands._flat_levels`` certifies during the sweep; a level
    whose sampled residual happens to be exactly 0.0 is not snapped.
    """
    certified = []
    original = ps.bands._flat_levels

    def spy(*args):
        found = original(*args)
        certified.extend(v for v, _ in found.values())
        return found

    ps.bands._flat_levels = spy
    try:
        table = ps.band_structure(graph, kind, grid)
    finally:
        ps.bands._flat_levels = original
    assert set(certified) <= set(certified_levels(table))
    assert_tables_identical(table, full_band_table(graph, kind, grid, levels=certified))
    return table


def spy_solved_rows(monkeypatch, grid):
    """Rows of ``grid.half`` solved by each sweep call, one list per call; a point outside it raises."""
    row = {point.tobytes(): i for i, point in enumerate(grid.angles(grid.half[0]))}
    solved = []
    original = ps.bands.fiber_eigenvalues_grid

    def spy(matrix, points, **kwargs):
        solved[-1].extend(row[point.tobytes()] for point in points)
        return original(matrix, points, **kwargs)

    monkeypatch.setattr(ps.bands, "fiber_eigenvalues_grid", spy)
    return solved


def assert_tables_identical(got, want):
    """Every number of two band tables is equal bit for bit, and so is every flat verdict."""
    assert (got.kind, got.grid_n) == (want.kind, want.grid_n)
    for side in ("lo", "hi"):
        values = [np.array([getattr(b, side) for b in t.bands]) for t in (got, want)]
        assert values[0].tobytes() == values[1].tobytes(), side
    assert [b.flat for b in got.bands] == [b.flat for b in want.bands]
    assert np.array(got.flat_candidates).tobytes() == np.array(want.flat_candidates).tobytes()
    for tol in (None, 1e-3, 1.0, 10.0):
        assert ps.flat_bands(got, tol) == ps.flat_bands(want, tol), tol


def row_cache_csv(points, lam, partner=None, block_rows=1 << 14):
    """The dispersion CSV formatted row by row with a cache of row texts, the
    reference for the bytes of ``bands.dispersion_csv_blocks``.

    Each distinct row of ``lam`` (told apart by its bits, or by ``partner``)
    and each distinct angle (by its bits) is formatted once, and every row
    reuses those texts; with ``partner``, point i takes row ``partner[i]``.
    """
    points, lam = np.asarray(points, dtype=float), np.asarray(lam, dtype=float)
    dim, nu = points.shape[1], lam.shape[1]
    header = [f"k{s + 1}" for s in range(dim)] + [f"lambda{j + 1}" for j in range(nu)]
    pieces = [",".join(header) + "\n"]
    if partner is None:
        first = {}
        keys = np.ascontiguousarray(lam).view(np.dtype((np.void, 8 * nu))).ravel().tolist()
        partner = np.array([first.setdefault(key, i) for i, key in enumerate(keys)], dtype=np.intp)
    eigen = ",".join(["%.12g"] * nu)
    row = ",".join(["%s"] * (dim + 1)) + "\n"
    texts = [None] * len(lam)
    angles = {}
    for start in range(0, len(points), block_rows):
        block = slice(start, start + block_rows)
        rows = partner[block]
        new = [key for key in np.unique(rows).tolist() if texts[key] is None]
        for key, values in zip(new, lam[new].tolist()):
            texts[key] = eigen % tuple(values)
        cells = []
        for axis in range(dim):
            bits, where = np.unique(points[block, axis].view(np.uint64), return_inverse=True)
            names = [
                angles[key] if key in angles else angles.setdefault(key, "%.12g" % value)
                for key, value in zip(bits.tolist(), bits.view(float).tolist())
            ]
            cells.append(np.array(names, dtype=object)[where].tolist())
        cells.append([texts[key] for key in rows.tolist()])
        pieces.append("".join(row % cell for cell in zip(*cells)))
    return "".join(pieces)


def schrodinger_shift(graph):
    """min(V - deg), the shift the normalized Schrodinger convention removes."""
    return min(
        graph.potential[x] - graph.degrees[x] for x in range(graph.num_vertices)
    )


@pytest.fixture(params=BUILTIN_NAMES)
def builtin(request):
    return ps.builtin_graph(request.param)


@pytest.fixture
def kagome():
    return ps.builtin_graph("kagome")


@pytest.fixture
def fig4():
    return ps.builtin_graph("fig4_chain")


@pytest.fixture
def hexagonal():
    return ps.builtin_graph("hexagonal")


@pytest.fixture
def wide_index():
    """A 2-vertex rank-3 quotient whose indices reach 101 on the first axis and 1 on the others.

    Its cycle indices (100, 1, 0), (101, 1, 0) and (0, 0, 1) form a unimodular matrix.
    """
    edges = [("a", "b", (0, 0, 0)), ("a", "b", (100, 1, 0)), ("a", "b", (101, 1, 0)), ("a", "a", (0, 0, 1))]
    return ps.build_graph(3, ["a", "b"], edges)
