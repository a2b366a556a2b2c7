"""Quasimomentum sweeps: band tables, bandwidths, spectrum measure, flat bands.

Bands follow the sorted-eigenvalue labeling: band j is the min/max over the
grid of the j-th smallest fiber eigenvalue.  Flat bands are detected at the
operator level instead: a value that some eigenvalue attains at *every* grid
point is flat even when band crossings hide it from the sorted labeling (a
flat level running through the middle of a dispersive band splits across two
sorted bands, whose widths are both nonzero).

Every fiber operator has real coefficients, so M(-k) = conj M(k) and the
eigenvalues at -k equal those at k.  A sweep therefore solves at most one
point of each pair {k, -k mod 2*pi} (:attr:`KGrid.half`); :func:`dispersion`
solves the whole half and copies each solved row to its mirror, so its rows
at k and -k are equal bit for bit.

:func:`band_structure` solves only the points that can still set a reported
number, and folds each solved block into running band extremes and flat
residuals as it is solved.  Each sorted eigenvalue is Lipschitz in k (Weyl's
inequality), so a point that its nearest point of one coarse pass shows to
lie inside every band and within every flat candidate's residual is never
evaluated.  Min and max are exact, so every number of the table is the full
sweep's, bit for bit.  :func:`power_band_structure` solves the whole half.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import EngineMismatchError
from .graphs import FundamentalGraph
from .laurent import LaurentMatrix
from .operators import HERMITICITY_TOL, fiber_eigenvalues_grid, symbolic_operator

DEFAULT_GRID_N = 64

# Bytes of eigenvalues that band_structure solves and folds at once after its
# coarse pass, and that one block of its skip test gathers; bounds its temporaries.
BATCH_BYTES = 1 << 20


def default_flat_tol(value: float) -> float:
    return 1e-8 * (1.0 + abs(value))


@dataclass(frozen=True)
class KGrid:
    """Uniform grid 2*pi*m/n on the torus; n even so both 0 and pi*(1,..,1) appear.

    The grid is closed under k -> -k mod 2*pi.  Sweeps solve at most
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

    Every point of ``grid.half`` is solved; the rows at k and -k mod 2*pi are
    copies of the same eigenvalues.  The full table is twice the memory of
    the solved half, so call this only when every row is needed.
    """
    grid = grid or KGrid(graph.dim)
    return grid.points, solve_half(graph, kind, grid)[grid.half[1]]


def solve_half(graph: FundamentalGraph, kind: str, grid: KGrid) -> np.ndarray:
    """Sorted fiber eigenvalues at every point of ``grid.half``, shape (npts_half, nu)."""
    return fiber_eigenvalues_grid(_fiber_operator(graph, kind, grid), grid.half[0])


def _fiber_operator(graph: FundamentalGraph, kind: str, grid: KGrid) -> LaurentMatrix:
    """The fiber operator of a sweep over ``grid``.

    The pairing holds only for real coefficients, where M(-k) = conj M(k) has
    the spectrum of M(k) (and is Hermitian when M(k) is); a complex
    coefficient raises :class:`EngineMismatchError` instead of being mirrored.
    """
    if grid.dim != graph.dim:
        raise ValueError("grid dimension does not match the graph")
    matrix = symbolic_operator(graph, kind)
    if any(c.imag != 0 for row in matrix.entries for p in row for c in p.coeffs.values()):
        raise EngineMismatchError("fiber operator has complex coefficients; eigenvalues at k and -k may differ")
    return matrix


def _operator_bounds(matrix: LaurentMatrix) -> tuple[float, float, bool]:
    """``(L, rho, exact)``: bounds that hold for the fiber at every k.

    Entry (i, j) weighs ``sum_m |c| * ||m||_1`` for ``L`` and ``sum_m |c|``
    for ``rho``, or the weight of entry (j, i) if that is larger, so the
    bounds hold for the Hermitian matrix of either triangle, the one that
    ``eigvalsh`` reads.  The largest row sum of the weights bounds the
    infinity norm, hence the 2-norm, of a Hermitian matrix, so
    ``||M(k) - M(k')||_2 <= L * ||k - k'||_inf`` on the torus and
    ``||M(k)||_2 <= rho``.

    ``exact`` holds when no evaluated fiber can read a Hermiticity defect
    above ``HERMITICITY_TOL``.  ``sum_m |c_ij(m) - conj c_ji(-m)|`` bounds
    the defect of entry (i, j) at every k, and ``noise`` bounds what
    ``LaurentMatrix.eval_grid`` adds to each entry by rounding: the phase
    ``<m, k>`` (|k_s| < 2*pi, summed over ``dim`` axes), ``exp``, the product
    with c and the running sum of the entry's terms.  Their total must stay
    under half the tolerance, which absorbs the rounding of the check itself.
    """
    size = matrix.size
    slope, norm = np.zeros((size, size)), np.zeros((size, size))
    defect, noise = np.zeros((size, size)), np.zeros((size, size))
    eps = np.finfo(float).eps
    for i, row in enumerate(matrix.entries):
        for j, poly in enumerate(row):
            if not poly.coeffs:
                continue
            slope[i, j] = sum(abs(c) * sum(map(abs, m)) for m, c in poly.coeffs.items())
            norm[i, j] = sum(map(abs, poly.coeffs.values()))
            noise[i, j] = eps * sum(
                abs(c) * (np.pi * (matrix.dim + 1) * sum(map(abs, m)) + len(poly.coeffs) + 2)
                for m, c in poly.coeffs.items()
            )
            mirror = {tuple(-v for v in m): c.conjugate() for m, c in matrix.entries[j][i].coeffs.items()}
            defect[i, j] = sum(abs(poly.coeffs.get(m, 0) - mirror.get(m, 0)) for m in poly.coeffs.keys() | mirror.keys())
    lip = float(np.maximum(slope, slope.T).sum(axis=1).max())
    rho = float(np.maximum(norm, norm.T).sum(axis=1).max())
    exact = bool((defect + noise + noise.T <= HERMITICITY_TOL / 2).all())  # a NaN defect fails too
    return lip, rho, exact


def _candidate_values(at_zero: np.ndarray) -> list[float]:
    # Any flat level is present at k = 0, so its eigenvalues are the candidates.
    candidates: list[float] = []
    for value in at_zero:
        if candidates and abs(value - candidates[-1]) <= default_flat_tol(value):
            continue
        candidates.append(float(value))
    return candidates


def _residual(columns: np.ndarray, value: float) -> float:
    """Worst distance over the columns of eigenvalues from ``value`` to the nearest eigenvalue."""
    return float(np.abs(columns - value).min(axis=0).max())


def _flat_candidates(lam: np.ndarray) -> tuple[tuple[float, float], ...]:
    out = []
    # One scratch array for every candidate: the eigenvalue table is the sweep's largest array.
    distance = np.empty_like(lam)
    for value in _candidate_values(lam[0]):
        np.abs(np.subtract(lam, value, out=distance), out=distance)
        out.append((value, float(distance.min(axis=1).max())))
    return tuple(out)


def _table(kind: str, grid: KGrid, lows: np.ndarray, highs: np.ndarray, candidates: tuple) -> BandTable:
    bands = tuple(Band(float(lo), float(hi), bool(hi - lo < default_flat_tol(hi))) for lo, hi in zip(lows, highs))
    return BandTable(kind, grid.points_per_dim, bands, candidates)


def table_from_eigenvalues(kind: str, grid: KGrid, lam: np.ndarray) -> BandTable:
    return _table(kind, grid, lam.min(axis=0), lam.max(axis=0), _flat_candidates(lam))


def band_structure(graph: FundamentalGraph, kind: str, grid: KGrid | None = None) -> BandTable:
    """Min/max of each sorted eigenvalue curve over the grid, from the points that can set them.

    One coarse pass solves the points of ``grid.half`` whose grid coordinates
    are all multiples of the stride s, a lattice closed under k -> -k, k = 0
    first.  Every other point is tested once against its nearest coarse
    point, r <= s/2 steps of ``h = 2*pi/n`` away: the sorted eigenvalues move
    by at most ``L * h * r`` (Weyl's inequality).  The point is skipped when
    its coarse row, widened by that plus ``1e-12 * (1 + rho)`` for the
    rounding of both solves, stays inside every band and within every flat
    residual so far.  Each solved block is folded into those as it is solved;
    they come from solved points, so they lie inside the final bands and are
    at most the final residuals.  When ``L * h`` alone passes half the
    narrowest band or the smallest residual, or when an evaluated fiber could
    read a Hermiticity defect over the tolerance (``_operator_bounds``), the
    rest is solved untested, so every fiber is checked.
    """
    grid = grid or KGrid(graph.dim)
    matrix = _fiber_operator(graph, kind, grid)
    points, partner = grid.half

    def solve(index: np.ndarray) -> np.ndarray:
        # One column per point, so the reductions below run along contiguous rows.
        return fiber_eigenvalues_grid(matrix, points[index]).T.copy()

    lip, rho, exact = _operator_bounds(matrix)
    n, npts = grid.points_per_dim, len(points)
    h = 2.0 * np.pi / n
    slope, margin = lip * h, 1e-12 * (1.0 + rho)
    batch = max(1, BATCH_BYTES // (8 * matrix.size))
    # A coarser lattice solves fewer points but tests the rest from farther.  Mean % of the half
    # solved on seeded nu = 6 regular quotients (adjacency / Schrodinger); 8>4>2>1 refines by levels:
    #   dim  grid   stride 2    4          8          16          8>4>2>1
    #   1    4000   59.8/58.1   41.1/38.2  35.4/30.6  35.4/30.0   33.0/29.3
    #   2    200    38.1/38.5   31.9/32.7  56.7/58.8  87.8/88.2   37.3/37.9
    #   3    48     72.6/73.5   88.2/88.2  98.7/98.8  100/100     72.5/76.8
    s = 2 ** max(1, 4 - grid.dim)
    while n % s:
        s //= 2
    # Rows of the half on the coarse lattice, in grid order (grid coordinates are exact: angles 2*pi*m/n).
    coarse = np.flatnonzero((np.rint(points / h).astype(np.intp) % s == 0).all(axis=1))
    top = solve(coarse)
    lo, hi = top.min(axis=1), top.max(axis=1)
    values = _candidate_values(top[:, 0])
    residual = np.array([_residual(top, value) for value in values])

    def unsure(c: np.ndarray) -> np.ndarray:
        """Whether each point at grid coordinates ``c`` could pass a running extreme."""
        near = (c + s // 2) // s * s
        reach = slope * np.abs(c - near).max(axis=1) + margin
        column = np.searchsorted(coarse, partner[np.ravel_multi_index(tuple((near % n).T), (n,) * grid.dim)])
        row = top.take(column, axis=1)
        inside = ((row - reach >= lo[:, None]) & (row + reach <= hi[:, None])).all(axis=0)
        for value, limit in zip(values, residual):
            inside &= np.abs(row - value).min(axis=0) + reach <= limit
        return ~inside

    rest = not exact or slope + margin > min(((hi - lo) / 2).min(), residual.min())
    for start in range(0, npts, batch):
        c = np.rint(points[start : start + batch] / h).astype(np.intp)
        off = (c % s).any(axis=1)
        part = start + np.flatnonzero(off)
        part = part if rest else part[unsure(c[off])]
        if len(part):
            block = solve(part)
            np.minimum(lo, block.min(axis=1), out=lo)
            np.maximum(hi, block.max(axis=1), out=hi)
            np.maximum(residual, [_residual(block, value) for value in values], out=residual)
    return _table(kind, grid, lo, hi, tuple(zip(values, map(float, residual))))


def power_band_structure(graph: FundamentalGraph, kind: str, n: int, grid: KGrid | None = None) -> BandTable:
    """Band table of the n-th power: solve the whole half, raise to n, re-sort."""
    if n < 1:
        raise ValueError("power must be positive")
    grid = grid or KGrid(graph.dim)
    return table_from_eigenvalues(kind, grid, np.sort(solve_half(graph, kind, grid) ** n, axis=1))


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


def dispersion_csv_blocks(points: np.ndarray, lam: np.ndarray, partner: np.ndarray | None = None) -> Iterator[str]:
    """The text of :func:`dispersion_csv` in pieces: the header line, then
    :data:`CSV_BLOCK_ROWS` rows at a time, each piece ending with a newline.

    With ``partner`` (as from :attr:`KGrid.half`), ``lam`` holds the solved
    half and point i takes row ``partner[i]``, expanded one block at a time.
    A writer that takes each piece as it comes holds one block, never the
    whole text.
    """
    dim = points.shape[1]
    header = [f"k{s + 1}" for s in range(dim)] + [f"lambda{j + 1}" for j in range(lam.shape[1])]
    row = ",".join([FLOAT_12G] * len(header)) + "\n"
    yield ",".join(header) + "\n"
    for start in range(0, len(points), CSV_BLOCK_ROWS):
        block = slice(start, start + CSV_BLOCK_ROWS)
        eigenvalues = lam[block] if partner is None else lam[partner[block]]
        yield "".join(row % tuple(values) for values in np.hstack([points[block], eigenvalues]).tolist())


def dispersion_csv(points: np.ndarray, lam: np.ndarray) -> str:
    """One row per grid point: quasimomentum components then the eigenvalues."""
    return "".join(dispersion_csv_blocks(points, lam))
