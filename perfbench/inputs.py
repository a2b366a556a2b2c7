"""Seeded benchmark inputs.

Every graph is kept here as a plain edge list, so the oracles can build their
fibers without the library.  The library only ever receives the finished
``FundamentalGraph`` (built through ``build_graph``), never the seed.

Random quotients are connected and lattice-valid by construction: a random
Hamiltonian cycle connects the vertices, and vertex 0 carries one loop per
basis vector ``e_s``, so the cycle indices generate ``Z^d``.  Every other
vertex also carries ``d`` loops with random nonzero indices, which makes the
quotient ``(2 + 2d)``-regular.  Regularity fixes the number of walks the
enumeration visits and the number of gauges the box search tries, so a job's
cost does not depend on the seed.

Each pass of a run receives its own copy of every graph (``Quotient.variant``):
the vertex labels carry the pass number and the edges come in another order.
The copies give the same numbers at the same cost, but no cache keyed on the
input can carry work from one pass into the next.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Quotient:
    """One graph: ``edges`` holds one ``(tail, head, index)`` per unoriented edge."""

    name: str
    dim: int
    num_vertices: int
    edges: tuple[tuple[int, int, tuple[int, ...]], ...]
    potential: tuple[float, ...]
    tag: str = ""

    @property
    def labels(self) -> list[str]:
        return [f"{self.tag}x{i + 1}" for i in range(self.num_vertices)]

    def variant(self, seed: int, number: int) -> "Quotient":
        """The same graph with labels tagged by ``number`` and edges reordered."""
        order = np.random.default_rng([seed, 4, number]).permutation(len(self.edges))
        edges = tuple(self.edges[i] for i in order)
        return Quotient(self.name, self.dim, self.num_vertices, edges, self.potential, f"p{number}.")

    def to_graph(self, ps):
        labels = self.labels
        return ps.build_graph(
            self.dim,
            labels,
            [(labels[a], labels[b], idx) for a, b, idx in self.edges],
            dict(zip(labels, self.potential)),
        )

    def zero_potential(self) -> "Quotient":
        return Quotient(self.name, self.dim, self.num_vertices, self.edges, (0.0,) * self.num_vertices, self.tag)


def random_quotient(rng: np.random.Generator, name: str, nu: int, dim: int, potential: bool) -> Quotient:
    perm = [int(v) for v in rng.permutation(nu)]
    edges = []
    for i in range(nu):
        idx = tuple(int(v) for v in rng.integers(-1, 2, size=dim))
        edges.append((perm[i], perm[(i + 1) % nu], idx))
    for s in range(dim):
        edges.append((0, 0, tuple(int(j == s) for j in range(dim))))
    for v in range(1, nu):
        for _ in range(dim):
            idx = rng.integers(-1, 2, size=dim)
            idx[rng.integers(dim)] = 1
            edges.append((v, v, tuple(int(x) for x in idx)))
    # Distinct potentials: exactly one vertex loses its Schrodinger self-step.
    pot = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=nu)) if potential else (0.0,) * nu
    return Quotient(name, dim, nu, tuple(edges), pot)


def kagome() -> Quotient:
    edges = (
        (0, 1, (0, 0)),
        (1, 2, (0, 0)),
        (2, 0, (0, 0)),
        (1, 0, (0, 1)),
        (2, 1, (1, -1)),
        (0, 2, (-1, 0)),
    )
    return Quotient("kagome", 2, 3, edges, (0.0,) * 3)


def z_cycle(nu: int) -> Quotient:
    edges = tuple((i, (i + 1) % nu, (1,) if i == nu - 1 else (0,)) for i in range(nu))
    return Quotient(f"z_cycle({nu})", 1, nu, edges, (0.0,) * nu)


@dataclass(frozen=True)
class SweepJob:
    """``band_structure`` of one graph and kind, or ``dispersion`` plus its CSV dump."""

    name: str
    graph: Quotient
    kind: str
    grid_n: int
    dump: bool = False


@dataclass(frozen=True)
class BracketJob:
    name: str
    graph: Quotient
    kind: str
    n_max: int


def sweep_jobs(seed: int) -> list[SweepJob]:
    rng = np.random.default_rng([seed, 1])
    q8 = random_quotient(rng, "q8r2", 8, 2, potential=True)
    q16 = random_quotient(rng, "q16r3", 16, 3, potential=False)
    q6 = random_quotient(rng, "q6r2", 6, 2, potential=True)
    return [
        SweepJob("q8r2-schrodinger-400", q8, "schrodinger", 400),
        SweepJob("q16r3-laplacian-24", q16, "laplacian", 24),
        SweepJob("kagome-laplacian-400", kagome(), "laplacian", 400),
        SweepJob("q6r2-schrodinger-200-dump", q6, "schrodinger", 200, dump=True),
        SweepJob("q6r2-normalized_laplacian-200", q6, "normalized_laplacian", 200),
    ]


def bracket_jobs(seed: int) -> list[BracketJob]:
    rng = np.random.default_rng([seed, 2])
    q6 = random_quotient(rng, "q6r2", 6, 2, potential=True)
    jobs = [BracketJob(f"kagome-{kind}-8", kagome(), kind, 8) for kind in ("laplacian", "adjacency", "normalized_laplacian")]
    jobs += [BracketJob(f"z_cycle(10)-{kind}-10", z_cycle(10), kind, 10) for kind in ("laplacian", "adjacency")]
    jobs += [BracketJob(f"z_cycle(11)-{kind}-11", z_cycle(11), kind, 11) for kind in ("laplacian", "transition")]
    jobs += [BracketJob(f"q6r2-{kind}-6", q6, kind, 6) for kind in ("schrodinger", "normalized_laplacian")]
    return jobs


def refusal_jobs(seed: int) -> list[BracketJob]:
    """Valid inputs on which the box gauge search refuses at radius 1."""
    rng = np.random.default_rng([seed, 3])
    q9 = random_quotient(rng, "q9r2", 9, 2, potential=False)
    return [
        BracketJob("z_cycle(16)-laplacian-4", z_cycle(16), "laplacian", 4),
        BracketJob("q9r2-laplacian-4", q9, "laplacian", 4),
    ]


# README command-line examples and worked-example rows, deduplicated.
CLI_COMMANDS = (
    ("bandwidth", "--builtin", "kagome", "--operator", "laplacian", "--grid", "60"),
    ("bounds", "--builtin", "fig4_chain", "--operator", "normalized_laplacian", "--n-max", "4"),
    ("cycles", "--builtin", "kagome", "--n-max", "3", "--format", "csv"),
    ("bands", "--builtin", "fig4_chain", "--operator", "normalized_laplacian", "--grid", "400",
     "--format", "json", "--dispersion-out", "disp.csv"),
    ("info", "--builtin", "square_diag"),
    ("embed", "--builtin", "kagome", "--radius", "1"),
    ("verify", "--builtin", "hexagonal"),
    ("traces", "--builtin", "kagome", "--operator", "adjacency", "--n-max", "4"),
    ("bounds", "--builtin", "kagome", "--operator", "laplacian", "--n-max", "3"),
    ("bandwidth", "--builtin", "fig4_chain", "--operator", "normalized_laplacian", "--grid", "400"),
)
