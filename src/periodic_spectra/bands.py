"""Quasimomentum sweeps: band tables, bandwidths, spectrum measure, flat bands.

Bands follow the sorted-eigenvalue labeling: band j is the min/max over the
grid of the j-th smallest fiber eigenvalue.  Flat bands are detected at the
operator level instead: a value that some eigenvalue attains at *every* grid
point is flat even when band crossings hide it from the sorted labeling (a
flat level running through the middle of a dispersive band splits across two
sorted bands, whose widths are both nonzero).

Every fiber operator has real coefficients, so M(-k) = conj M(k) and the
eigenvalues at -k equal those at k.  A sweep therefore solves one point of
each pair {k, -k mod 2*pi} (:attr:`KGrid.half`); :func:`dispersion` copies
each solved row to its mirror, so its rows at k and -k are equal bit for bit,
and the band tables reduce the solved half alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import EngineMismatchError
from .graphs import FundamentalGraph
from .operators import fiber_eigenvalues_grid, symbolic_operator

DEFAULT_GRID_N = 64


def default_flat_tol(value: float) -> float:
    return 1e-8 * (1.0 + abs(value))


@dataclass(frozen=True)
class KGrid:
    """Uniform grid 2*pi*m/n on the torus; n even so both 0 and pi*(1,..,1) appear.

    The grid is closed under k -> -k mod 2*pi.  Sweeps solve only
    :attr:`half`, one point of each such pair; :func:`dispersion` fills the
    row of -k with a copy of the eigenvalues solved at k.
    """

    dim: int
    points_per_dim: int = DEFAULT_GRID_N

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("grid dimension must be positive")
        if self.points_per_dim < 2 or self.points_per_dim % 2:
            raise ValueError("points_per_dim must be even and at least 2")

    @cached_property
    def points(self) -> np.ndarray:
        # Row-major over the axes, the last axis fastest.
        return self._angles(self._mesh())

    @cached_property
    def half(self) -> tuple[np.ndarray, np.ndarray]:
        """Time-reversal pairing: ``(points to solve, partner row of every grid point)``.

        The grid is closed under m -> -m mod n.  Of each pair {m, -m mod n} the
        first in grid order is solved, so (n^d + 2^d)/2 points remain, in grid
        order and starting with k = 0; each is bitwise equal to its row of
        :attr:`points`.  ``partner[i]`` is the row, among the solved points, of
        grid point i or of its mirror.
        """
        n = self.points_per_dim
        mesh = self._mesh()
        rows = np.arange(mesh.shape[1])
        first = np.minimum(rows, np.ravel_multi_index(-mesh % n, (n,) * self.dim))
        solved = first == rows
        return self._angles(mesh[:, solved]), (np.cumsum(solved) - 1)[first]

    def _mesh(self) -> np.ndarray:
        """Integer grid coordinates m, shape (dim, npts), in grid order."""
        return np.indices((self.points_per_dim,) * self.dim).reshape(self.dim, -1)

    def _angles(self, mesh: np.ndarray) -> np.ndarray:
        return 2.0 * np.pi * np.ascontiguousarray(mesh.T, dtype=float) / self.points_per_dim


@dataclass(frozen=True)
class Band:
    lo: float
    hi: float
    flat: bool


@dataclass(frozen=True)
class BandTable:
    """Per-band intervals from a grid sweep plus flat-level diagnostics.

    ``flat_candidates`` holds ``(value, residual)`` for every distinct
    eigenvalue at k = 0, where the residual is the worst distance over the
    grid from that value to the nearest eigenvalue; a residual below the flat
    tolerance certifies a flat level.
    """

    kind: str
    grid_n: int
    bands: tuple[Band, ...]
    flat_candidates: tuple[tuple[float, float], ...]

    @property
    def flat_values(self) -> tuple[float, ...]:
        return tuple(b.lo for b in flat_bands(self))


def dispersion(graph: FundamentalGraph, kind: str, grid: KGrid | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Grid points and sorted fiber eigenvalues, shapes (npts, d) and (npts, nu).

    Only one point of each pair {k, -k} is solved; the rows at k and -k mod
    2*pi are copies of the same eigenvalues.  The full table is twice the
    memory of the solved half that :func:`band_structure` reduces, so call
    this only when every row is needed (a dispersion dump).
    """
    grid = grid or KGrid(graph.dim)
    return grid.points, _solve_half(graph, kind, grid)[grid.half[1]]


def _solve_half(graph: FundamentalGraph, kind: str, grid: KGrid) -> np.ndarray:
    """Sorted fiber eigenvalues at the points of ``grid.half``, shape (npts_half, nu).

    The pairing holds only for real coefficients, where M(-k) = conj M(k) has
    the spectrum of M(k) (and is Hermitian when M(k) is); a complex
    coefficient raises :class:`EngineMismatchError` instead of being mirrored.
    """
    if grid.dim != graph.dim:
        raise ValueError("grid dimension does not match the graph")
    matrix = symbolic_operator(graph, kind)
    if any(c.imag != 0 for row in matrix.entries for p in row for c in p.coeffs.values()):
        raise EngineMismatchError("fiber operator has complex coefficients; eigenvalues at k and -k may differ")
    return fiber_eigenvalues_grid(matrix, grid.half[0])


def _flat_candidates(lam: np.ndarray) -> tuple[tuple[float, float], ...]:
    # Any flat level is present at k = 0, so its eigenvalues are the candidates.
    at_zero = lam[0]
    candidates: list[float] = []
    for value in at_zero:
        if candidates and abs(value - candidates[-1]) <= default_flat_tol(value):
            continue
        candidates.append(float(value))
    out = []
    # One scratch array for every candidate: the eigenvalue table is the sweep's largest array.
    distance = np.empty_like(lam)
    for value in candidates:
        np.abs(np.subtract(lam, value, out=distance), out=distance)
        out.append((value, float(distance.min(axis=1).max())))
    return tuple(out)


def table_from_eigenvalues(kind: str, grid: KGrid, lam: np.ndarray) -> BandTable:
    lows = lam.min(axis=0)
    highs = lam.max(axis=0)
    bands = tuple(
        Band(float(lo), float(hi), bool(hi - lo < default_flat_tol(hi)))
        for lo, hi in zip(lows, highs)
    )
    return BandTable(kind, grid.points_per_dim, bands, _flat_candidates(lam))


def band_structure(graph: FundamentalGraph, kind: str, grid: KGrid | None = None) -> BandTable:
    """Min/max of each sorted eigenvalue curve over the solved half of the grid."""
    grid = grid or KGrid(graph.dim)
    return table_from_eigenvalues(kind, grid, _solve_half(graph, kind, grid))


def power_band_structure(graph: FundamentalGraph, kind: str, n: int, grid: KGrid | None = None) -> BandTable:
    """Band table of the n-th power: sweep eigenvalues, raise to n, re-sort."""
    if n < 1:
        raise ValueError("power must be positive")
    grid = grid or KGrid(graph.dim)
    powered = np.sort(_solve_half(graph, kind, grid) ** n, axis=1)
    return table_from_eigenvalues(kind, grid, powered)


def total_bandwidth(table: BandTable) -> float:
    """Sum of band lengths; overlapping bands are counted with multiplicity."""
    return float(sum(b.hi - b.lo for b in table.bands))


def merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    if not intervals:
        return []
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def spectrum_components(table: BandTable) -> list[tuple[float, float]]:
    """Connected components of the union of all bands."""
    return merge_intervals([(b.lo, b.hi) for b in table.bands])


def spectrum_measure(table: BandTable) -> float:
    """Lebesgue measure of the union of the bands."""
    return float(sum(hi - lo for lo, hi in spectrum_components(table)))


def flat_bands(table: BandTable, tol: float | None = None) -> list[Band]:
    """Flat levels: values attained by some eigenvalue at every grid point."""
    if tol is not None and tol <= 0:
        raise ValueError("flat-band tolerance must be positive")
    out = []
    for value, residual in table.flat_candidates:
        limit = tol if tol is not None else default_flat_tol(value)
        if residual < limit:
            out.append(Band(value, value, True))
    return out


# -- export ------------------------------------------------------------------


# A float at 12 significant digits, the precision of every JSON and CSV export.
FLOAT_12G = "%.12g"


def format_12g(value: float) -> str:
    """``value`` formatted by :data:`FLOAT_12G`."""
    return FLOAT_12G % float(value)


# Rows that dispersion_csv_blocks formats at a time.
CSV_BLOCK_ROWS = 1 << 14


def dispersion_csv_blocks(points: np.ndarray, lam: np.ndarray) -> Iterator[str]:
    """The text of :func:`dispersion_csv` in pieces: the header line, then
    :data:`CSV_BLOCK_ROWS` rows at a time, each piece ending with a newline.

    A writer that takes each piece as it comes holds one block, never the
    whole text.
    """
    dim = points.shape[1]
    header = [f"k{s + 1}" for s in range(dim)] + [f"lambda{j + 1}" for j in range(lam.shape[1])]
    row = ",".join([FLOAT_12G] * len(header)) + "\n"
    yield ",".join(header) + "\n"
    for start in range(0, len(points), CSV_BLOCK_ROWS):
        block = slice(start, start + CSV_BLOCK_ROWS)
        yield "".join(row % tuple(values) for values in np.hstack([points[block], lam[block]]).tolist())


def dispersion_csv(points: np.ndarray, lam: np.ndarray) -> str:
    """One row per grid point: quasimomentum components then the eigenvalues."""
    return "".join(dispersion_csv_blocks(points, lam))
