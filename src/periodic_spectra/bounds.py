"""Closed-form two-sided estimates of the total bandwidth.

Every estimate is assembled from structural graph data (degrees, Betti
number, bridges, lattice rank) plus the classified walk sums.  Lower bounds
come in two flavors: a closed form depending only on the structural
constants, and a refinement that scans walk lengths n and keeps the best
    max(B_n1, B_n2) / (n * step_bound^(n-1))
term, with the walk classes read off one eigen-solve of the walk matrix
(:func:`walks.walk_classes`).  Upper bounds multiply the fewest bridges over
all gauges, which the spanning-tree search of :func:`graphs.minimize_bridges`
finds exactly (rank <= min_bridges <= min(bridges, betti)), so the
Schrodinger and adjacency upper bound is 4 * min_bridges.
:func:`bounds_for_kind` assembles every bracket.  The search and the
bipartiteness test do not depend on the kind or the potential: each graph
keeps their results (:attr:`graphs.FundamentalGraph.fewest_bridges`,
:attr:`graphs.FundamentalGraph.bipartition`), so the brackets of every kind
share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    CycleRecord,
    FundamentalGraph,
    IndexVector,
    _generates_lattice,
    betti_number,
    cycle_basis,
    index_lattice_check,
    shifted_loop_weights,
)
from .walks import classify, walk_classes, walk_series, walk_setting


@dataclass(frozen=True)
class StructuralConstants:
    """Scalar graph data feeding the closed-form estimates.

    ``v_plus`` is the diameter of V - deg (its max after shifting the min to
    zero) and ``v_star = kappa_plus + v_plus`` bounds the one-step growth of
    Schrodinger powers; ``kappa_star`` is its potential-free value
    2*kappa_plus - kappa_minus.  ``bridge_ratio`` sums, over vertices, the
    number of nonzero-index oriented edges leaving the vertex divided by its
    degree.  ``min_bridges`` is the fewest bridges over all gauges, found
    exactly by the spanning-tree search; rank <= min_bridges <= min(bridges, betti).
    """

    dim: int
    num_vertices: int
    kappa_minus: int
    kappa_plus: int
    kappa_star: int
    v_plus: float
    v_star: float
    d_star: int
    betti: int
    bridges: int
    min_bridges: int
    bridge_ratio: float
    bipartite: bool


@dataclass(frozen=True)
class BoundTerm:
    """One walk length's contribution to the refined lower bound."""

    n: int
    b1: float
    b2: float
    value: float


@dataclass(frozen=True)
class BoundsReport:
    """Certified bracket for the total bandwidth of one operator kind.

    ``lower_closed_form`` and ``lower_refined`` are individually valid;
    neither dominates the other in general, so ``lower`` takes their max.
    ``upper_closed_form`` is the plain theorem-level bound, 4 * min_bridges
    (divided by kappa_minus for normalized kinds); ``upper`` equals it, except
    that normalized kinds also try twice the bridge ratio.
    ``measure_lower`` divides the best lower bound by the number of bands,
    bounding the Lebesgue measure of the spectrum from below.
    """

    kind: str
    constants: StructuralConstants
    lower_closed_form: float
    lower_refined: float
    refined_n: int | None
    lower: float
    upper: float
    upper_closed_form: float
    measure_lower: float
    terms: tuple[BoundTerm, ...]


def _d_star(dim: int) -> int:
    """The smallest even integer >= dim."""
    return dim + dim % 2


def structural_constants(graph: FundamentalGraph) -> StructuralConstants:
    deg = graph.degrees
    kappa_minus, kappa_plus = min(deg), max(deg)
    v_plus = max(shifted_loop_weights(graph, normalize=True))
    _, min_bridges = graph.fewest_bridges
    # Nonzero-index oriented edges by tail; both orientations of each bridge are counted.
    per_vertex_bridges = [0] * graph.num_vertices
    for e in graph.edges:
        if any(e.index):
            per_vertex_bridges[e.tail] += 1
    bridge_ratio = sum(b / deg[x] for x, b in enumerate(per_vertex_bridges))
    return StructuralConstants(
        dim=graph.dim,
        num_vertices=graph.num_vertices,
        kappa_minus=kappa_minus,
        kappa_plus=kappa_plus,
        kappa_star=2 * kappa_plus - kappa_minus,
        v_plus=float(v_plus),
        v_star=float(kappa_plus + v_plus),
        d_star=_d_star(graph.dim),
        betti=betti_number(graph),
        bridges=sum(per_vertex_bridges) // 2,
        min_bridges=min_bridges,
        bridge_ratio=float(bridge_ratio),
        bipartite=graph.bipartition[0],
    )


def _over_power(numerator: float, base: float, exponent: int, factor: int = 1) -> float:
    # numerator / (factor * base**exponent); where the denominator leaves the float range, the
    # exact quotient rounded once (tiny, subnormal or 0.0) is still a valid lower bound.
    try:
        if (denominator := factor * base**exponent) < math.inf:
            return numerator / denominator
    except OverflowError:
        pass
    return float(Fraction(numerator) / (factor * Fraction(base) ** exponent))


def _closed_form_lower(sc: StructuralConstants, base: float, exponent: int) -> float:
    return _over_power(4.0 * sc.dim if sc.bipartite else 2.0 * sc.d_star, base, exponent)  # bipartite: 4*rank


def bounds_for_kind(graph: FundamentalGraph, kind: str, n_max: int | None = None) -> BoundsReport:
    """Bracket for operator ``kind``, from the walks that stand for it (lengths n <= n_max, default nu).

    Laplacian bounds are Schrodinger bounds at V = 0; the transition operator
    shares the normalized-Laplacian bracket.  The trace kind sets the closed
    form's base and exponent, the refined terms' step, and the upper bound.
    """
    work, trace_kind = walk_setting(graph, kind)
    n_max = work.num_vertices if n_max is None else n_max
    if n_max < 1:
        raise ValueError("walk length must be positive")
    sc = structural_constants(work)
    if trace_kind == "transition":
        base, exponent, step = sc.kappa_plus, sc.num_vertices, 1.0
        upper_closed = 4.0 * sc.min_bridges / sc.kappa_minus
        upper = min(2.0 * sc.bridge_ratio, upper_closed)
    else:
        base = step = sc.kappa_plus if trace_kind == "adjacency" else sc.v_star  # an int stays exact
        exponent = sc.num_vertices - 1
        upper = upper_closed = 4.0 * sc.min_bridges
    lower_closed = _closed_form_lower(sc, base, exponent)
    terms = tuple(
        BoundTerm(n, b1, b2, _over_power(max(b1, b2), step, n - 1, n))
        for n, (b1, b2) in enumerate(walk_classes(work, trace_kind, n_max), 1)
    )
    refined, refined_n = 0.0, None
    for term in terms:
        if term.value > refined:
            refined, refined_n = term.value, term.n
    lower = max(lower_closed, refined)
    return BoundsReport(
        kind=kind,
        constants=sc,
        lower_closed_form=lower_closed,
        lower_refined=refined,
        refined_n=refined_n,
        lower=lower,
        upper=upper,
        upper_closed_form=upper_closed,
        measure_lower=lower / sc.num_vertices,
        terms=terms,
    )


def schrodinger_bounds(graph: FundamentalGraph, n_max: int | None = None) -> BoundsReport:
    """Bracket for the Schrodinger total bandwidth (laplacian when V = 0)."""
    return bounds_for_kind(graph, "schrodinger", n_max)


def normalized_bounds(graph: FundamentalGraph, n_max: int | None = None) -> BoundsReport:
    """Bracket for the normalized-Laplacian (equivalently transition) bandwidth."""
    return bounds_for_kind(graph, "normalized_laplacian", n_max)


def adjacency_bounds(graph: FundamentalGraph, n_max: int | None = None) -> BoundsReport:
    """Bracket for the adjacency total bandwidth from pure walk counts."""
    return bounds_for_kind(graph, "adjacency", n_max)


# -- lattice / witness report -------------------------------------------------


@dataclass(frozen=True)
class IndexLatticeReport:
    """Structural facts about the cycle-index lattice.

    ``lattice_ok`` says whether the cycle-basis indices generate Z^dim (every
    graph the builders return passes).  ``basis_subset`` lists the first
    rank-many basis cycles, in basis order, whose indices form a unimodular
    matrix, when such a subset exists (a generating set need not contain one;
    its absence is reported, not fatal).  ``witness_n`` is the
    smallest walk length n <= num_vertices with N_n^odd >= n * d_star, and
    ``bipartite_witness_n`` the smallest with N_n^odd >= 2 n dim (bipartite
    covers only).
    """

    lattice_ok: bool
    basis_subset: tuple[CycleRecord, ...] | None
    witness_n: int | None
    witness_odd_count: int | None
    bipartite: bool
    bipartite_witness_n: int | None


def _unimodular_subset(vectors: list[IndexVector], dim: int) -> tuple[int, ...] | None:
    """Positions of the first ``dim`` vectors, in ``itertools.combinations`` order, whose matrix is unimodular.

    Depth first in that order, by exact span tests (:func:`graphs._generates_lattice`):
    a prefix of k vectors is extended only while the rows of its dim x k matrix
    generate Z^k, since every part of a unimodular basis spans a primitive
    sublattice.  So the first subset is that of the plain scan over all
    subsets, but the worst case (many primitive vectors, no unimodular
    subset) stays exponential in ``dim``.
    """

    def extend(prefix: tuple[int, ...]) -> tuple[int, ...] | None:
        if len(prefix) == dim:
            return prefix
        for j in range(prefix[-1] + 1 if prefix else 0, len(vectors) + len(prefix) - dim + 1):
            chosen = (*prefix, j)
            if _generates_lattice(zip(*(vectors[i] for i in chosen)), len(chosen)) and (found := extend(chosen)):
                return found
        return None

    return extend(())


def verify_index_lattice(graph: FundamentalGraph) -> IndexLatticeReport:
    """Fill an :class:`IndexLatticeReport`; :func:`index_lattice_check` gives
    ``lattice_ok``, and :func:`_unimodular_subset` of the cycle basis's indices
    gives ``basis_subset``."""
    lattice_ok = index_lattice_check(graph)
    cycles = cycle_basis(graph)
    found = _unimodular_subset([c.index for c in cycles], graph.dim) if lattice_ok else None
    basis_subset = None if found is None else tuple(cycles[j] for j in found)

    witness_n = witness_odd = bip_witness = None
    bipartite = graph.bipartition[0]
    for n, counts in enumerate(walk_series(graph, "adjacency", graph.num_vertices), 1):
        n_odd = classify(counts).n_odd
        if witness_n is None and n_odd >= n * _d_star(graph.dim):
            witness_n, witness_odd = n, n_odd
        if bipartite and bip_witness is None and n_odd >= 2 * n * graph.dim:
            bip_witness = n
        if witness_n is not None and (not bipartite or bip_witness is not None):
            break
    return IndexLatticeReport(
        lattice_ok=lattice_ok,
        basis_subset=basis_subset,
        witness_n=witness_n,
        witness_odd_count=witness_odd,
        bipartite=bipartite,
        bipartite_witness_n=bip_witness,
    )
