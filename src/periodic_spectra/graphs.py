"""Fundamental graphs of periodic discrete graphs.

A periodic graph is encoded by its finite quotient: vertices, oriented edges
carrying an integer index vector in Z^d (which lattice translate the edge
crosses), and a real potential per vertex.  Both orientations of every edge
are stored; the inverse orientation carries the negated index.  Edge indices
depend on the chosen embedding (gauge); cycle indices do not, and the library
keeps the two notions separate: gauge transforms reshuffle edge indices while
every derived spectral quantity stays fixed.

The cycle facts of a graph all read the fundamental cycles of one
breadth-first spanning tree, built once per graph: the cycle that a non-tree
edge closes has the index ``p(tail) + index - p(head)``, where the tree
potential p sums the indices along the tree from vertex 0.  Connectivity (the
tree reaches every vertex), the lattice check, the rank in
:func:`bridge_floor` and :func:`cycle_basis` read it.

The module also ships a small zoo of built-in lattices (hexagonal, kagome,
hypercubic, a diamond chain, a decorated square lattice, cycle quotients of
the integer line) with their standard index assignments.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import GraphFormatError, SearchCapExceeded

IndexVector = tuple[int, ...]

#: names accepted by :func:`builtin_graph`; ``zd(d)`` and ``z_cycle(nu)``
#: take an integer parameter.
BUILTIN_NAMES = ("zd(d)", "z_cycle(nu)", "hexagonal", "kagome", "fig4_chain", "square_diag")

# Cap on the work of minimize_bridges, in edge scans (see there); 30-40 s of
# search on a 2-CPU x86-64 machine.
DEFAULT_SEARCH_CAP = 20_000_000

# Largest |m_s| of an edge index component.  Tree potentials and cycle indices
# are Python ints; a fundamental cycle index sums at most nu components, which
# stays exact in the int64 matrix of :func:`cycle_basis`.
MAX_INDEX_COMPONENT = 2**31 - 1


def _as_index(values: Iterable[int], dim: int, what: str = "index") -> IndexVector:
    if not isinstance(values, Iterable):
        raise GraphFormatError(f"{what} must be a list of {dim} integers, got {values!r}")
    vec = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise GraphFormatError(f"{what} components must be integers, got {v!r}")
        if abs(int(v)) > MAX_INDEX_COMPONENT:
            raise GraphFormatError(f"{what} component {int(v)} exceeds {MAX_INDEX_COMPONENT} in magnitude")
        vec.append(int(v))
    if len(vec) != dim:
        raise GraphFormatError(f"{what} has length {len(vec)}, expected {dim}")
    return tuple(vec)


def _as_potential(value, label: str) -> float:
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise GraphFormatError(f"potential of {label!r} must be a number, got {value!r}")


def _neg(vec: IndexVector) -> IndexVector:
    return tuple(-v for v in vec)


@dataclass(frozen=True)
class OrientedEdge:
    """One orientation of an edge; ``pair_id`` links it to its inverse."""

    tail: int
    head: int
    index: IndexVector
    pair_id: int

    def reversed(self) -> "OrientedEdge":
        return OrientedEdge(self.head, self.tail, _neg(self.index), self.pair_id)

    def is_loop(self) -> bool:
        return self.tail == self.head


@dataclass(frozen=True)
class CycleRecord:
    """A closed edge sequence together with its (gauge-invariant) index."""

    edges: tuple[OrientedEdge, ...]
    index: IndexVector
    length: int

    def __post_init__(self):
        if self.length != len(self.edges) or self.length == 0:
            raise ValueError("cycle length does not match its edge list")
        for a, b in zip(self.edges, self.edges[1:]):
            if a.head != b.tail:
                raise ValueError("cycle edges do not chain head-to-tail")
        if self.edges[-1].head != self.edges[0].tail:
            raise ValueError("cycle does not return to its initial vertex")
        if tuple(map(sum, zip(*(e.index for e in self.edges)))) != self.index:
            raise ValueError("cycle index does not equal the sum of edge indices")


@dataclass(frozen=True)
class FundamentalGraph:
    """Finite quotient of a rank-``dim`` periodic graph.

    ``edges`` stores both orientations of every unoriented edge, inverse
    pairs adjacent (even position holds the orientation the input gave).
    Instances are immutable and safe to share between workers.
    """

    dim: int
    labels: tuple[str, ...]
    potential: tuple[float, ...]
    edges: tuple[OrientedEdge, ...]
    # Facts that do not read the potential, shared with every with_potential copy.
    _facts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise GraphFormatError("lattice rank must be a positive integer")
        if not self.labels:
            raise GraphFormatError("graph needs at least one vertex")
        if len(set(self.labels)) != len(self.labels):
            raise GraphFormatError("duplicate vertex label")
        if len(self.potential) != len(self.labels):
            raise GraphFormatError("potential must list one value per vertex")
        nv = len(self.labels)
        if len(self.edges) % 2:
            raise GraphFormatError("oriented edges must come in inverse pairs")
        for j in range(0, len(self.edges), 2):
            # The inverse must equal the reversed stored orientation, so validating that one covers both.
            e, back = self.edges[j], self.edges[j + 1]
            if not (0 <= e.tail < nv and 0 <= e.head < nv):
                raise GraphFormatError("edge endpoint out of range")
            _as_index(e.index, self.dim)
            if back != e.reversed() or e.pair_id != j // 2:
                raise GraphFormatError("inverse orientation missing or mispaired")
        if None in self._tree[1]:
            raise GraphFormatError("graph is not connected")
        self._check_potential()

    def _check_potential(self) -> None:
        if not all(math.isfinite(v) for v in self.potential):
            raise GraphFormatError("potential values must be finite")
        shifted = [v - d for v, d in zip(self.potential, self.degrees)]
        if not math.isfinite(max(shifted) - min(shifted)):
            raise GraphFormatError("potential values minus degrees (V - deg) must differ by a finite float")

    # -- basic shape -------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        """Number of unoriented edges."""
        return len(self.edges) // 2

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Vertex degrees; a loop contributes 2 (both orientations start there)."""
        deg = [0] * self.num_vertices
        for e in self.edges:
            deg[e.tail] += 1
        return tuple(deg)

    @cached_property
    def out_edges(self) -> tuple[tuple[OrientedEdge, ...], ...]:
        out: list[list[OrientedEdge]] = [[] for _ in range(self.num_vertices)]
        for e in self.edges:
            out[e.tail].append(e)
        return tuple(tuple(lst) for lst in out)

    @cached_property
    def _tree(self) -> tuple[tuple[OrientedEdge | None, ...], tuple[IndexVector | None, ...]]:
        """Breadth-first spanning tree from vertex 0 (a FIFO over ``out_edges``).

        Per vertex, the tree edge oriented into it (None at vertex 0) and its
        tree potential p, with p(0) = 0 and p(head) = p(tail) + index along
        tree edges.  Both are None at vertices the tree does not reach.
        """
        parent: list[OrientedEdge | None] = [None] * self.num_vertices
        p: list[IndexVector | None] = [(0,) * self.dim] + [None] * (self.num_vertices - 1)
        queue = [0]
        for v in queue:
            for e in self.out_edges[v]:
                if p[e.head] is None:
                    parent[e.head] = e
                    p[e.head] = tuple(a + t for a, t in zip(p[v], e.index))
                    queue.append(e.head)
        return tuple(parent), tuple(p)

    @cached_property
    def _chords(self) -> tuple[tuple[OrientedEdge, IndexVector], ...]:
        """Each non-tree unoriented edge e, in stored order, with the index
        ``p(tail) + index(e) - p(head)`` of the fundamental cycle it closes."""
        parent, p = self._tree
        tree = {e.pair_id for e in parent if e is not None}
        return tuple(
            (e, tuple(a + t - b for a, t, b in zip(p[e.tail], e.index, p[e.head])))
            for e in self.unoriented()
            if e.pair_id not in tree
        )

    def _shared(self, name: str, compute):
        if name not in self._facts:
            self._facts[name] = compute(self)
        return self._facts[name]

    @property
    def fewest_bridges(self) -> tuple["Gauge", int]:
        """:func:`minimize_bridges` at its default cap, searched once per graph and its potentials."""
        return self._shared("fewest_bridges", minimize_bridges)

    @property
    def bipartition(self):
        """:func:`is_bipartite`'s verdict and witness, tested once per graph and its potentials."""
        return self._shared("bipartition", is_bipartite)

    @cached_property
    def _ordinals(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def ordinal(self, label: str) -> int:
        try:
            return self._ordinals[label]
        except KeyError:
            raise GraphFormatError(f"unknown vertex label {label!r}") from None

    def unoriented(self) -> tuple[OrientedEdge, ...]:
        """One representative per unoriented edge (the stored orientation)."""
        return self.edges[::2]

    def with_potential(self, values: Sequence[float] | Mapping[str, float]) -> "FundamentalGraph":
        """A copy with the potential replaced (by ordinal or by label), sharing every potential-free fact."""
        if isinstance(values, Mapping):
            pot = list(self.potential)
            for lab, v in values.items():
                pot[self.ordinal(lab)] = _as_potential(v, lab)
        else:
            if len(values) != self.num_vertices:
                raise GraphFormatError("potential must list one value per vertex")
            pot = [_as_potential(v, lab) for v, lab in zip(values, self.labels)]
        graph = object.__new__(FundamentalGraph)
        graph.__dict__.update(self.__dict__, potential=tuple(pot))
        graph._check_potential()
        return graph


def build_graph(
    dim: int,
    vertices: Sequence[str],
    edges: Iterable[tuple[str, str, Iterable[int]]],
    potential: Mapping[str, float] | None = None,
) -> FundamentalGraph:
    """Assemble a graph from one (tail, head, index) triple per unoriented edge.

    The inverse orientation with negated index is materialized automatically.
    Graphs whose cycle indices do not generate all of Z^dim are rejected: they
    do not describe a rank-``dim`` periodic graph.
    """
    labels = tuple(str(v) for v in vertices)
    ordinals = {lab: i for i, lab in enumerate(labels)}
    pot = [0.0] * len(labels)
    for lab, v in (potential or {}).items():
        if lab not in ordinals:
            raise GraphFormatError(f"unknown vertex label {lab!r}")
        pot[ordinals[lab]] = _as_potential(v, lab)
    oriented: list[OrientedEdge] = []
    for pair_id, (a, b, idx) in enumerate(edges):
        if a not in ordinals or b not in ordinals:
            raise GraphFormatError(f"edge endpoint {a!r} or {b!r} unknown")
        e = OrientedEdge(ordinals[a], ordinals[b], _as_index(idx, dim), pair_id)
        oriented += [e, e.reversed()]
    graph = FundamentalGraph(dim, labels, tuple(pot), tuple(oriented))
    if not index_lattice_check(graph):
        raise GraphFormatError(f"cycle indices do not generate Z^{dim}; not a rank-{dim} periodic graph")
    return graph


# -- file format -----------------------------------------------------------


def parse_graph(text: str) -> FundamentalGraph:
    """Parse the JSON graph format.

    Schema::

        {"dimension": d,
         "vertices": [{"id": "<label>", "potential": 0.0}, ...],
         "edges": [{"from": "<label>", "to": "<label>", "index": [..d ints..]}, ...]}

    Each edge entry is one unoriented edge; loops have ``from == to``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"malformed graph document: {exc}") from None
    if not isinstance(doc, dict):
        raise GraphFormatError("graph document must be a JSON object")
    try:
        dim = doc["dimension"]
        raw_vertices = doc["vertices"]
        raw_edges = doc["edges"]
    except KeyError as exc:
        raise GraphFormatError(f"missing or invalid top-level field: {exc}") from None
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise GraphFormatError(f"dimension must be an integer, got {dim!r}")
    if not isinstance(raw_vertices, list) or not isinstance(raw_edges, list):
        raise GraphFormatError("vertices and edges must be lists")
    labels: list[str] = []
    potential = {}
    for entry in raw_vertices:
        if not isinstance(entry, dict) or "id" not in entry:
            raise GraphFormatError("vertex entries need an 'id' field")
        lab = str(entry["id"])
        labels.append(lab)
        potential[lab] = entry.get("potential", 0.0)
    edges = []
    for entry in raw_edges:
        if not isinstance(entry, dict):
            raise GraphFormatError("edge entries must be objects")
        try:
            edges.append((str(entry["from"]), str(entry["to"]), entry["index"]))
        except KeyError as exc:
            raise GraphFormatError(f"edge entry missing field {exc}") from None
    return build_graph(dim, labels, edges, potential)


def load_graph(path: str) -> FundamentalGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_graph(handle.read())


def graph_to_dict(graph: FundamentalGraph) -> dict:
    """Graph as a JSON-ready mapping in the file-format schema."""
    return {
        "dimension": graph.dim,
        "vertices": [
            {"id": lab, "potential": graph.potential[i]}
            for i, lab in enumerate(graph.labels)
        ],
        "edges": [
            {"from": graph.labels[e.tail], "to": graph.labels[e.head], "index": list(e.index)}
            for e in graph.unoriented()
        ],
    }


# -- structural quantities ---------------------------------------------------


def vertex_degrees(graph: FundamentalGraph) -> dict[str, int]:
    return dict(zip(graph.labels, graph.degrees))


def betti_number(graph: FundamentalGraph) -> int:
    """Cycle-space dimension: #edges - #vertices + 1 of the connected quotient."""
    return graph.num_edges - graph.num_vertices + 1


def bridge_count(graph: FundamentalGraph) -> int:
    """Number of unoriented edges with nonzero index, in the current gauge."""
    return sum(1 for e in graph.unoriented() if any(e.index))


@dataclass(frozen=True)
class Gauge:
    """Integer shift per vertex; normalized so vertex 0 sits at the origin.

    Applying a gauge replaces every edge index by
    ``index + shift[head] - shift[tail]``; cycle indices are untouched.
    """

    shifts: tuple[IndexVector, ...]

    def __post_init__(self):
        if not self.shifts:
            raise ValueError("gauge must cover at least one vertex")
        base = self.shifts[0]
        if any(len(vec) != len(base) for vec in self.shifts):
            raise ValueError("gauge shifts must all have the lattice rank as length")
        norm = tuple(
            tuple(int(s) - int(b) for s, b in zip(vec, base)) for vec in self.shifts
        )
        object.__setattr__(self, "shifts", norm)

    @classmethod
    def zero(cls, graph: FundamentalGraph) -> "Gauge":
        return cls(((0,) * graph.dim,) * graph.num_vertices)


def gauge_transform(graph: FundamentalGraph, gauge: Gauge) -> FundamentalGraph:
    """Re-index every edge by ``shift[head] - shift[tail]``; spectra are unchanged."""
    if len(gauge.shifts) != graph.num_vertices:
        raise GraphFormatError("gauge must assign a shift to every vertex")
    new_edges = []
    for e in graph.unoriented():
        delta = tuple(
            t + gauge.shifts[e.head][s] - gauge.shifts[e.tail][s]
            for s, t in enumerate(e.index)
        )
        moved = OrientedEdge(e.tail, e.head, delta, e.pair_id)
        new_edges += [moved, moved.reversed()]
    return FundamentalGraph(graph.dim, graph.labels, graph.potential, tuple(new_edges))


def _offset(edge: tuple[int, int, IndexVector], shift: Sequence[IndexVector]) -> IndexVector:
    """Shift of head's component, relative to tail's, that gives ``edge`` index 0."""
    tail, head, idx = edge
    return tuple(shift[tail][s] - t - shift[head][s] for s, t in enumerate(idx))


def _unavoidable(plain: list, comp: list[int], shift: list[IndexVector], forced: list[bool]) -> int:
    """Bridges of every spanning tree through a forest, forced edges counted.

    ``comp`` and ``shift`` give each vertex's component and shift; the forest
    edges have index 0.  Between two components one relative shift is
    chosen, so of the edges joining them at most those sharing the most
    common offset get index 0.
    """
    count = sum(forced)
    between: dict[tuple[int, int], dict[IndexVector, int]] = {}
    for j, edge in enumerate(plain):
        if forced[j]:
            continue
        a, b, off = comp[edge[0]], comp[edge[1]], _offset(edge, shift)
        if a == b:
            count += any(off)
            continue
        if a > b:
            a, b, off = b, a, _neg(off)
        tally = between.setdefault((a, b), {})
        tally[off] = tally.get(off, 0) + 1
    for tally in between.values():
        count += sum(tally.values()) - max(tally.values())
    return count


def bridge_floor(graph: FundamentalGraph) -> int:
    """A lower bound on the bridges of every gauge, proven without a search.

    Loops with nonzero index are bridges in every gauge.  Every cycle index
    of the loopless multigraph is a signed sum of the indices of its bridges,
    since zero-index edges add nothing, so it has at least as many bridges as
    the rank of its cycle indices.  The edges joining two vertices are all
    bridges but those sharing one offset (:func:`_unavoidable` of the forest
    without edges).  The floor is the loop bridges plus the larger bound.
    """
    nv, zero = graph.num_vertices, (0,) * graph.dim
    und = graph.unoriented()
    plain = [(e.tail, e.head, e.index) for e in und if not e.is_loop()]
    # The fundamental cycles of the loopless multigraph span its cycle indices.
    rank = _rank([list(index) for e, index in graph._chords if not e.is_loop()])
    roots = _unavoidable(plain, list(range(nv)), [zero] * nv, [False] * len(plain))
    return sum(1 for e in und if e.is_loop() and any(e.index)) + max(rank, roots)


def minimize_bridges(
    graph: FundamentalGraph,
    cap: int = DEFAULT_SEARCH_CAP,
) -> tuple[Gauge, int]:
    """Fewest nonzero-index unoriented edges over all gauges, and a gauge attaining it.

    In any gauge the zero-index edges form a balanced set (every cycle in it
    has index zero), and a balanced set extends to a spanning tree T without
    gaining bridges.  Gauging T to zero leaves as bridges the loops with
    nonzero index and the non-tree edges whose fundamental cycle has nonzero
    index, so the minimum of that count over the spanning trees of the
    loopless multigraph is the minimum over all gauges.

    The trees are grown depth first, edge by edge, and a branch is cut once
    the bridges it cannot avoid reach the best count so far, which starts at
    the given gauge's; when nothing beats the given gauge it is returned as
    the zero gauge.  A count that reaches :func:`bridge_floor` is optimal, so
    the search never starts when the given gauge meets the floor, and stops
    at the first tree that does: the tree it would return after finishing,
    since only a strictly smaller count replaces the best.  ``cap`` bounds
    the work, counted in edge scans: every partial forest the search visits
    scans each edge once for its bound, and passing ``cap`` scans raises
    :class:`SearchCapExceeded`.  The count satisfies
    ``dim <= count <= bridge_count``.  :attr:`FundamentalGraph.fewest_bridges`
    keeps the default-cap result of each graph.
    """
    nv, d = graph.num_vertices, graph.dim
    und = graph.unoriented()
    # Loop indices are gauge-invariant; count their bridges once.
    loop_bridges = sum(1 for e in und if e.is_loop() and any(e.index))
    # Zero-index edges first, so the first trees found follow the given gauge.
    plain = sorted(
        ((e.tail, e.head, e.index) for e in und if not e.is_loop()),
        key=lambda edge: any(edge[2]),
    )
    zero = (0,) * d
    best_count = sum(1 for _, _, idx in plain if any(idx))
    best_shifts: tuple[IndexVector, ...] = (zero,) * nv
    floor = bridge_floor(graph) - loop_bridges

    # Partial forest: component label and shift per vertex; its edges have index 0.
    comp = list(range(nv))
    shift = [zero] * nv
    # Edges this branch leaves out of the tree and keeps as bridges (see "skip").
    forced = [False] * len(plain)

    def connectable(start: int) -> bool:
        """Whether the forest plus edges ``plain[start:]`` still spans the graph."""
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

    # Depth-first search over (edge position, forest edges so far), kept on an
    # explicit stack so the depth is not bounded by Python's recursion limit.
    # Entries: ("visit", i, joined), ("restore", saved), ("skip", i, joined),
    # ("unforce", i); a join pushes its restore and the branch without the edge
    # below the branch with it.
    stack: list[tuple] = [("visit", 0, 0)] if best_count > floor else []
    scans = 0
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
            # A tree without edge i that gives it index 0 has the gauge of a
            # tree with it (swap it for a cycle edge outside the forest), so
            # the branch without it need only reach gauges where it is a bridge.
            if connectable(i + 1):
                forced[i] = True
                stack += [("unforce", i), ("visit", i + 1, joined)]
            continue
        scans += len(plain)
        if scans > cap:
            raise SearchCapExceeded(f"gauge search passed its cap of {cap} edge scans")
        if _unavoidable(plain, comp, shift, forced) >= best_count:
            continue
        if joined == nv - 1:
            best_count = sum(any(_offset(edge, shift)) for edge in plain)
            best_shifts = tuple(shift)
            if best_count == floor:
                break
            continue
        tail, head, _ = plain[i]
        if comp[tail] == comp[head]:
            stack.append(("visit", i + 1, joined))
            continue
        # Join head's component to tail's so that edge i gets index 0.
        off = _offset(plain[i], shift)
        moved = [v for v in range(nv) if comp[v] == comp[head]]
        stack += [("skip", i, joined), ("restore", [(v, comp[v], shift[v]) for v in moved])]
        for v in moved:
            comp[v] = comp[tail]
            shift[v] = tuple(a + b for a, b in zip(shift[v], off))
        stack.append(("visit", i + 1, joined + 1))
    return Gauge(best_shifts), loop_bridges + best_count


# -- bipartiteness of the periodic cover -------------------------------------


def is_bipartite(graph: FundamentalGraph):
    """Bipartiteness of the periodic cover, not of the quotient alone.

    Looks for vertex parities ``p`` and a parity vector ``s`` in {0,1}^dim with
    ``p(tail) + p(head) + <s, index>`` odd on every edge; the quotient may have
    odd cycles with nonzero index that are not cycles of the cover.  Returns
    ``(True, (parities, s))`` or ``(False, None)``.  Gauss-Jordan elimination
    over GF(2) on one bitmask per edge (bit c for unknown c, the parities then
    s, and the right-hand side above them) keeps the unique reduced row echelon
    form, and the witness sets every free unknown to 0.
    """
    nv, d = graph.num_vertices, graph.dim
    odd = 1 << (nv + d)
    pivots: dict[int, int] = {}  # pivot column -> its row
    for e in graph.unoriented():
        row = odd ^ (1 << e.tail) ^ (1 << e.head)
        for s, t in enumerate(e.index):
            row ^= (t % 2) << (nv + s)
        for c, pivot in pivots.items():
            if row >> c & 1:
                row ^= pivot
        if row == odd:
            return False, None
        if not row:
            continue
        c = (row & -row).bit_length() - 1
        for other, pivot in pivots.items():
            if pivot >> c & 1:
                pivots[other] = pivot ^ row
        pivots[c] = row
    solution = [pivots[c] >> (nv + d) & 1 if c in pivots else 0 for c in range(nv + d)]
    return True, (tuple(solution[:nv]), tuple(solution[nv:]))


# -- cycle space -------------------------------------------------------------


def cycle_basis(graph: FundamentalGraph) -> tuple[list[CycleRecord], np.ndarray]:
    """Fundamental cycles of the graph's BFS spanning tree, plus their dim x beta index matrix.

    One cycle per non-tree unoriented edge, in stored order: the edge, then
    the tree path from its head back to its tail.  Each is proper (no
    backtracking) and visits no interior vertex twice.
    """
    parent = graph._tree[0]

    def climb(v: int) -> list[OrientedEdge]:
        """Tree edges from vertex 0 down to v, listed from v up."""
        up = []
        while parent[v] is not None:
            up.append(parent[v])
            v = parent[v].tail
        return up

    cycles: list[CycleRecord] = []
    for e, index in graph._chords:
        rise, fall = climb(e.head), climb(e.tail)
        while rise and fall and rise[-1] is fall[-1]:  # above the lowest common ancestor
            rise.pop()
            fall.pop()
        edges = (e, *(f.reversed() for f in rise), *reversed(fall))
        cycles.append(CycleRecord(edges, index, len(edges)))
    matrix = np.zeros((graph.dim, len(cycles)), dtype=np.int64)
    for j, c in enumerate(cycles):
        matrix[:, j] = c.index
    return cycles, matrix


def _generates_lattice(columns: Iterable[Sequence[int]], dim: int) -> bool:
    """True iff the integer vectors ``columns`` (length ``dim`` each) generate Z^dim.

    Exact column reduction in Python ints: row by row, Euclid's algorithm
    folds the columns that are nonzero there into one pivot, which leaves.
    The span is Z^dim iff every pivot is +-1 (for ``dim`` columns, |det| = 1).
    """
    live = [[int(v) for v in col] for col in columns]
    for row in range(dim):
        hits = [col for col in live if col[row]]
        while len(hits) > 1:
            pivot = min(hits, key=lambda col: abs(col[row]))
            for col in hits:
                if col is not pivot:
                    q = col[row] // pivot[row]
                    col[:] = [a - q * b for a, b in zip(col, pivot)]
            hits = [col for col in hits if col[row]]
        if not hits or abs(hits[0][row]) != 1:
            return False
        live.remove(hits[0])
    return True


def _rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix, by fraction-free (Bareiss) elimination; ``rows`` is overwritten.

    Every entry below the pivots stays a minor of the input, so each division is exact.
    """
    rank, last = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            row = rows[r]
            rows[r] = [(top[col] * a - row[col] * b) // last for a, b in zip(row, top)]
        last, rank = top[col], rank + 1
    return rank


def index_lattice_check(graph: FundamentalGraph) -> bool:
    """True iff the fundamental cycle indices of the graph's spanning tree generate Z^dim.

    Decided exactly by :func:`_generates_lattice`; every valid rank-``dim``
    periodic graph passes, and the graph builders reject all others.
    """
    return _generates_lattice((index for _, index in graph._chords), graph.dim)


# -- builtin lattices --------------------------------------------------------


def _hexagonal() -> FundamentalGraph:
    # Two-vertex quotient of the honeycomb; one in-cell edge and two crossing ones.
    return build_graph(
        2,
        ["v1", "v2"],
        [("v1", "v2", (0, 0)), ("v1", "v2", (1, 0)), ("v1", "v2", (0, 1))],
    )


def _kagome() -> FundamentalGraph:
    # Corner-sharing triangles; 4-regular on three vertices.
    return build_graph(
        2,
        ["x1", "x2", "x3"],
        [
            ("x1", "x2", (0, 0)),
            ("x2", "x3", (0, 0)),
            ("x3", "x1", (0, 0)),
            ("x2", "x1", (0, 1)),
            ("x3", "x2", (1, -1)),
            ("x1", "x3", (-1, 0)),
        ],
    )


def _fig4_chain() -> FundamentalGraph:
    # Chain of diamonds along Z: two degree-3 hubs, two degree-2 rim vertices.
    return build_graph(
        1,
        ["x1", "x2", "x3", "x4"],
        [
            ("x1", "x4", (1,)),
            ("x1", "x2", (0,)),
            ("x2", "x4", (0,)),
            ("x4", "x3", (0,)),
            ("x3", "x1", (0,)),
        ],
    )


def _square_diag() -> FundamentalGraph:
    # Squares rotated 45 degrees, joined by one horizontal and one vertical bridge.
    return build_graph(
        2,
        ["x1", "x2", "x3", "x4"],
        [
            ("x1", "x2", (0, 0)),
            ("x2", "x3", (0, 0)),
            ("x3", "x4", (0, 0)),
            ("x4", "x1", (0, 0)),
            ("x3", "x1", (1, 0)),
            ("x4", "x2", (0, 1)),
        ],
    )


def _zd(d: int) -> FundamentalGraph:
    if d < 1:
        raise GraphFormatError("zd(d) needs d >= 1")
    basis = [tuple(1 if j == s else 0 for j in range(d)) for s in range(d)]
    return build_graph(d, ["o"], [("o", "o", vec) for vec in basis])


def _z_cycle(nu: int) -> FundamentalGraph:
    if nu < 1:
        raise GraphFormatError("z_cycle(nu) needs nu >= 1")
    labels = [f"x{i + 1}" for i in range(nu)]
    edges = [(labels[i], labels[(i + 1) % nu], (1,) if i == nu - 1 else (0,)) for i in range(nu)]
    return build_graph(1, labels, edges)


_PARAMETRIC = re.compile(r"^(zd|z_cycle)\((\d+)\)$")


def builtin_graph(name: str) -> FundamentalGraph:
    """Return one of the built-in lattices by name.

    Plain names: ``hexagonal``, ``kagome``, ``fig4_chain``, ``square_diag``.
    Parametric: ``zd(d)`` (single vertex, d loops) and ``z_cycle(nu)``
    (nu-periodic quotient of the integer line).
    """
    key = name.strip().lower()
    plain = {
        "hexagonal": _hexagonal,
        "kagome": _kagome,
        "fig4_chain": _fig4_chain,
        "square_diag": _square_diag,
    }
    if key in plain:
        return plain[key]()
    match = _PARAMETRIC.match(key)
    if match:
        kind, arg = match.group(1), int(match.group(2))
        return _zd(arg) if kind == "zd" else _z_cycle(arg)
    raise GraphFormatError(f"unknown builtin graph {name!r}")
