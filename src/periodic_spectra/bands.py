"""Quasimomentum sweeps: band tables, bandwidths, spectrum measure, flat bands.

Bands follow the sorted-eigenvalue labeling: band j is the min/max over the
grid of the j-th smallest fiber eigenvalue.  Flat bands are detected at the
operator level instead: a value that some eigenvalue attains at *every* grid
point is flat even when band crossings hide it from the sorted labeling (a
flat level running through the middle of a dispersive band splits across two
sorted bands, whose widths are both nonzero).

Every fiber operator has real coefficients, so M(-k) = conj M(k) and the
eigenvalues at -k equal those at k.  A sweep therefore solves at most one
point of each pair {k, -k mod 2*pi} (:attr:`KGrid.half`, integer grid
coordinates); :func:`dispersion` solves the whole half and copies each solved
row to its mirror, so its rows at k and -k are equal bit for bit.

:func:`band_structure` solves only the points that can still set a reported
number, and folds each solved block into running band extremes and flat
residuals as it is solved.  Each sorted eigenvalue is Lipschitz in k (Weyl's
inequality), so a point that its nearest point of one coarse pass shows to
lie inside every band and within every flat candidate's residual is never
evaluated.  Min and max are exact, so every number of the table is the full
sweep's, bit for bit.  :func:`power_band_structure` solves the whole half.

:func:`band_structure` also proves flat candidates exact in integer
arithmetic (:func:`_flat_level`); a certified level reports residual 0.0 and
no longer stops the pruning.  Tables built by :func:`table_from_eigenvalues`
(``dispersion``, ``power_band_structure``) keep the sampled residuals.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import EngineMismatchError
from .graphs import FundamentalGraph, _rank
from .laurent import LaurentMatrix
from .operators import fiber_eigenvalues_grid, symbolic_operator

DEFAULT_GRID_N = 64

# Bytes of eigenvalues that band_structure solves and folds at once after its
# coarse pass, and that one block of its skip test gathers; bounds its temporaries.
BATCH_BYTES = 1 << 20

# Bytes of eigenvalues that table_from_eigenvalues reduces at once; small enough to stay in cache.
REDUCE_BYTES = 1 << 17


def default_flat_tol(value: float) -> float:
    return 1e-8 * (1.0 + abs(value))


def half_box(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Time-reversal pairing of a row-major index box: ``(coordinates kept, partner row of every point)``.

    Of each pair {m, -m mod shape} the first in box order is kept; ``coords``
    holds their integer coordinates, shape (nkept, dim), in box order from
    m = 0.  ``partner[i]`` is the row, among the kept points, of box point i
    or of its mirror, so ``np.bincount(partner)`` is each kept point's pair size.
    """
    first = np.zeros(1, dtype=np.intp)
    for n in shape:
        first = (first[:, None] * n + -np.arange(n) % n).ravel()
    rows = np.arange(first.size)
    kept = np.minimum(first, rows, out=first) == rows
    del rows  # a full-box array, freed before the coordinates are built
    coords = np.stack(np.unravel_index(np.flatnonzero(kept), shape), axis=1)
    return coords, (np.cumsum(kept) - 1)[first]


@dataclass(frozen=True)
class KGrid:
    """Uniform grid 2*pi*m/n on the torus; n even so both 0 and pi*(1,..,1) appear.

    The grid is closed under k -> -k mod 2*pi.  Sweeps solve at most
    :attr:`half`, one point of each such pair, given by its integer grid
    coordinates m; :meth:`angles` forms every k = 2*pi*m/n, so the angles of
    a solved point are bitwise its row of :attr:`points`.  :func:`dispersion`
    fills the row of -k with a copy of the eigenvalues solved at k.
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
        n, dim = self.points_per_dim, self.dim
        return self.angles(np.indices((n,) * dim).reshape(dim, -1).T)

    @cached_property
    def half(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`half_box` of the grid: the (n^d + 2^d)/2 points to solve from k = 0, and each point's partner row."""
        return half_box((self.points_per_dim,) * self.dim)

    def angles(self, coords: np.ndarray) -> np.ndarray:
        """Quasimomenta ``2*pi*m/n`` of the grid coordinates m, shape (npts, dim), C-contiguous."""
        return 2.0 * np.pi * np.ascontiguousarray(coords, dtype=float) / self.points_per_dim


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
    tolerance counts as a flat level.  :func:`band_structure` reports
    residual 0.0 for a level it has certified flat at every k, not only at
    the grid points; the value is then exact, and so is every band end that
    reads it.  Tables from :func:`table_from_eigenvalues` keep the sampled
    residuals.
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
    return fiber_eigenvalues_grid(_fiber_operator(graph, kind, grid), grid.angles(grid.half[0]))


def _fiber_operator(graph: FundamentalGraph, kind: str, grid: KGrid) -> LaurentMatrix:
    """The fiber operator of a sweep over ``grid``.

    The pairing holds only for real coefficients, where M(-k) = conj M(k) has
    the spectrum of M(k); a complex coefficient raises
    :class:`EngineMismatchError` instead of being mirrored.
    """
    if grid.dim != graph.dim:
        raise ValueError("grid dimension does not match the graph")
    matrix = symbolic_operator(graph, kind)
    if not matrix.real:
        raise EngineMismatchError("fiber operator has complex coefficients; eigenvalues at k and -k may differ")
    return matrix


def _operator_bounds(matrix: LaurentMatrix) -> tuple[float, float]:
    """``(L, margin)``: solved eigenvalues of one sorted slot at k and k' differ by at
    most ``L * ||k - k'||_inf + margin``, at any index size.

    The weights of each entry (i, j) are read once off the term table
    (``LaurentMatrix.weights``): ``sum_m |c| * ||m||_1`` for ``L``, ``sum_m |c|``
    for ``rho``, and for ``noise`` a bound on what ``LaurentMatrix.eval_grid``
    adds to the entry by rounding.  Each is taken as the larger of entries
    (i, j) and (j, i), so the bounds hold for the triangle that ``eigvalsh``
    reads.  The largest row sum of the weights
    bounds the 2-norm of a Hermitian matrix, so ``||M(k) - M(k')||_2 <= L *
    ||k - k'||_inf``, ``||M(k)||_2 <= rho``, and ``margin`` allows 1e-12 per
    unit of ``1 + rho`` for two eigen-solves plus twice ``noise`` for two evaluations.
    """
    lip, rho, noise = (float(np.maximum(w, w.T).sum(axis=1).max()) for w in matrix.weights)
    return lip, 1e-12 * (1.0 + rho) + 2.0 * noise


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


def _fold(block: np.ndarray, lo: np.ndarray, hi: np.ndarray, values: list, residual: np.ndarray, which) -> None:
    """Fold solved points, one column each, into the band extremes ``lo`` and ``hi`` and, as
    ``np.maximum`` does (a NaN from an overflowed power stays), the residuals of candidates ``which``."""
    np.minimum(lo, block.min(axis=1), out=lo)
    np.maximum(hi, block.max(axis=1), out=hi)
    residual[which] = np.maximum(residual[which], [_residual(block, values[i]) for i in which])


def _flat_level(matrix: LaurentMatrix, value: float) -> tuple[float, int]:
    """``(v, mu)``: ``value`` rounded to the grid of the coefficients, and the
    multiplicity of v as an eigenvalue of M(k) at every k (0: v is not flat).

    Every coefficient is a dyadic rational, ``a * 2**-e`` with a common e
    (``LaurentMatrix.dyadic_terms``), so ``2**e * (M(z) - v*I)``, its rows scaled by ``z**R`` to clear negative
    powers (``LaurentMatrix.frequency_radius``), is a matrix of integer
    polynomials in z whenever v lies on the grid ``2**-e * Z``, where every
    rational flat level lies.  Each of its minors has degree at most
    ``2 * nu * R_s`` in z_s, so it vanishes identically if it vanishes on a
    tensor grid of ``2 * nu * R_s + 1`` integers per axis.  The largest rank
    over that grid, computed exactly, is therefore the rank at generic z, and
    at least the rank at every z on the torus ``z_s = exp(i k_s)``: v is an
    eigenvalue of the Hermitian M(k) with multiplicity at least
    ``mu = nu - rank`` at every k.
    """
    size, radius = matrix.size, matrix.frequency_radius
    scale, terms = matrix.dyadic_terms  # 2**e, and each term's a
    num, den = value.as_integer_ratio()
    level = (2 * num * scale + den) // (2 * den)  # the integer nearest value * 2**e
    # Entry (i, j) of 2**e * z**R * (M(z) - v*I), as {exponent: integer coefficient}.
    entries = [[{radius: -level} if i == j else {} for j in range(size)] for i in range(size)]
    for i, j, m, a in terms:
        key = tuple(x + r for x, r in zip(m, radius))
        entries[i][j][key] = entries[i][j].get(key, 0) + a
    axes = [range(-size * r, size * r + 1) for r in radius]
    powers = [{x: [x**p for p in range(2 * r + 1)] for x in axis} for axis, r in zip(axes, radius)]
    rank = 0
    for z in itertools.product(*axes):
        tables = [power[x] for power, x in zip(powers, z)]
        rows = [
            [sum(c * math.prod(t[p] for t, p in zip(tables, key)) for key, c in entry.items()) for entry in row]
            for row in entries
        ]
        rank = max(rank, _rank(rows))
        if rank == size:
            break
    return level / scale, size - rank


def _flat_levels(
    matrix: LaurentMatrix, values: list[float], residual: np.ndarray, margin: float, budget: int
) -> dict[int, tuple[float, int]]:
    """Certified flat levels among the candidates: ``{candidate: (v, mu)}``, v within ``margin`` of the candidate.

    Only candidates whose residual so far is under the flat tolerance are
    tried, and only when their certificates together, ``nu**3`` for each
    point of each, cost at most ``budget``, the points left to test.
    """
    tried = [c for c, value in enumerate(values) if residual[c] < default_flat_tol(value)]
    size = matrix.size
    if not tried or len(tried) * size**3 * math.prod(2 * size * r + 1 for r in matrix.frequency_radius) > budget:
        return {}
    out = {}
    for c in tried:
        level, mu = _flat_level(matrix, values[c])
        if mu and abs(level - values[c]) <= margin:
            out[c] = (level, mu)
    return out


def _table(kind: str, grid: KGrid, lows: np.ndarray, highs: np.ndarray, candidates: tuple) -> BandTable:
    bands = tuple(Band(float(lo), float(hi), bool(hi - lo < default_flat_tol(hi))) for lo, hi in zip(lows, highs))
    return BandTable(kind, grid.points_per_dim, bands, candidates)


def table_from_eigenvalues(kind: str, grid: KGrid, lam: np.ndarray) -> BandTable:
    values = _candidate_values(lam[0])
    lo, hi, residual = lam[0].copy(), lam[0].copy(), np.zeros(len(values))
    # Transposed blocks of REDUCE_BYTES, so each nearest-eigenvalue search runs along contiguous rows.
    step = max(1, REDUCE_BYTES // (8 * lam.shape[1]))
    for start in range(0, len(lam), step):
        _fold(lam[start : start + step].T.copy(), lo, hi, values, residual, range(len(values)))
    return _table(kind, grid, lo, hi, tuple(zip(values, residual.tolist())))


def band_structure(graph: FundamentalGraph, kind: str, grid: KGrid | None = None) -> BandTable:
    """Min/max of each sorted eigenvalue curve over the grid, from the points that can set them.

    One coarse pass solves the points of ``grid.half`` whose grid coordinates
    are all multiples of the stride s, a lattice closed under k -> -k, k = 0
    first.  Every other point is tested once against its nearest coarse
    point, r <= s/2 steps of ``h = 2*pi/n`` away, and skipped when the coarse
    row, widened by ``L * h * r + margin`` (Weyl's inequality and rounding,
    :func:`_operator_bounds`), stays inside every band and within every flat
    residual so far.  Each solved block is folded into those as it is solved;
    they come from solved points, so they lie inside the final bands and are
    at most the final residuals.  When ``L * h + margin`` passes half the
    narrowest band or the smallest residual, the rest is solved untested.

    A flat candidate of the coarse pass is proved flat, when that costs less
    than the points left to test (:func:`_flat_levels`).  A certified level v
    of multiplicity mu reports residual 0.0, and every band end within
    ``margin`` of v is reported as v.  It leaves the residual test and the
    ``rest`` shortcut.  Its pinned slots are exempt from the band test: when
    exactly mu entries of the coarse row lie within ``reach + margin`` of v,
    they are v's own mu branches, identically v (Rellich), and every other
    branch stays too far from v to cross it on the way, so the same slots
    hold v up to ``margin`` at the point, which cannot move a reported end.
    A point whose coarse row has any other count near v is solved.  Every
    other number of the table is the full sweep's, bit for bit.
    """
    grid = grid or KGrid(graph.dim)
    matrix = _fiber_operator(graph, kind, grid)
    coords = grid.half[0]

    def solve(points: np.ndarray) -> np.ndarray:
        # One column per point, so the reductions below run along contiguous rows.
        return fiber_eigenvalues_grid(matrix, grid.angles(points)).T.copy()

    lip, margin = _operator_bounds(matrix)
    n, npts = grid.points_per_dim, len(coords)
    slope = lip * (2.0 * np.pi / n)  # L * h
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
    # The half's points on the coarse lattice, in grid order, and the column of each coarse point's pair.
    coarse, pair = half_box((n // s,) * grid.dim)
    top = solve(coarse * s)
    lo, hi = top.min(axis=1), top.max(axis=1)
    values = _candidate_values(top[:, 0])
    residual = np.array([_residual(top, value) for value in values])
    certified = _flat_levels(matrix, values, residual, margin, npts - len(coarse))
    levels = list(certified.values())
    loose = [i for i in range(len(values)) if i not in certified]

    def snap(x: np.ndarray) -> np.ndarray:
        """``x`` with each entry within ``margin`` of a certified level v read as v."""
        for v, _ in levels:
            x = np.where(np.abs(x - v) <= margin, v, x)
        return x

    def unsure(c: np.ndarray) -> np.ndarray:
        """Whether each point at grid coordinates ``c`` could pass a running extreme."""
        near = (c + s // 2) // s  # coarse coordinates of the nearest coarse point
        reach = slope * np.abs(c - near * s).max(axis=1) + margin
        row = top.take(pair[np.ravel_multi_index(tuple(near.T), (n // s,) * grid.dim, mode="wrap")], axis=1)
        inside = (row - reach >= lo[:, None]) & (row + reach <= hi[:, None])
        counted = np.ones(row.shape[1], dtype=bool)
        for v, mu in levels:
            pinned = np.abs(row - v) <= reach + margin
            counted &= pinned.sum(axis=0) == mu
            inside |= pinned
        inside = inside.all(axis=0) & counted
        for i in loose:
            inside &= np.abs(row - values[i]).min(axis=0) + reach <= residual[i]
        return ~inside

    flat = np.zeros(len(lo), dtype=bool)
    for v, _ in levels:
        flat |= np.maximum(np.abs(lo - v), np.abs(hi - v)) <= margin
    narrowest = min(np.min((hi - lo)[~flat] / 2, initial=np.inf), np.min(residual[loose], initial=np.inf))
    rest = slope + margin > narrowest
    for start in range(0, npts, batch):
        c = coords[start : start + batch]
        off = (c % s).any(axis=1)
        part = start + np.flatnonzero(off)
        part = part if rest else part[unsure(c[off])]
        if len(part):
            _fold(solve(coords[part]), lo, hi, values, residual, loose)
    candidates = tuple(
        (certified[i][0], 0.0) if i in certified else (value, float(residual[i])) for i, value in enumerate(values)
    )
    return _table(kind, grid, snap(lo), snap(hi), candidates)


def power_band_structure(graph: FundamentalGraph, kind: str, n: int, grid: KGrid | None = None) -> BandTable:
    """Band table of the n-th power: solve the whole half, raise to n, re-sort.

    Raises ``ValueError`` when a power leaves the float range.
    """
    if n < 1:
        raise ValueError("power must be positive")
    grid = grid or KGrid(graph.dim)
    with np.errstate(over="ignore"):
        powers = solve_half(graph, kind, grid) ** n
    if not np.isfinite(powers).all():
        raise ValueError(f"eigenvalue powers n={n} leave the float range")
    return table_from_eigenvalues(kind, grid, np.sort(powers, axis=1))


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
    if tol is not None and not tol > 0:
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


def _texts(values: np.ndarray) -> np.ndarray:
    """:data:`FLOAT_12G` text of each entry, as an object array.

    Each distinct value is formatted once; values are told apart by their
    bits, so -0.0 and NaN payloads keep their own text.
    """
    bits, where = np.unique(values.view(np.uint64), return_inverse=True)
    return np.array([FLOAT_12G % value for value in bits.view(float).tolist()], dtype=object)[where]


def dispersion_csv_blocks(
    points: np.ndarray | KGrid, lam: np.ndarray, partner: np.ndarray | None = None
) -> Iterator[str]:
    """The text of :func:`dispersion_csv` in pieces: the header line, then
    :data:`CSV_BLOCK_ROWS` rows at a time, each piece ending with a newline.

    ``points`` holds the quasimomenta, shape (npts, d), or is the
    :class:`KGrid` itself, whose points are then taken block by block from
    their integer grid coordinates through one text table of the n angles
    :meth:`KGrid.angles` forms per axis (bitwise the entries of
    :attr:`KGrid.points`, which is never built).  With ``partner`` (as from
    :attr:`KGrid.half`), ``lam`` holds the solved half and point i takes row
    ``partner[i]``; without it, row i.

    Each block is formatted from its own rows through one ``%`` template, so
    a writer that takes each piece as it comes holds ``lam``, ``partner`` and
    one block, and nothing else that grows with the number of rows.
    """
    lam = np.asarray(lam, dtype=float)
    if isinstance(points, KGrid):
        n, dim = points.points_per_dim, points.dim
        npts, table = n**dim, _texts(points.angles(np.arange(n)))

        def angles(start: int, stop: int) -> list[np.ndarray]:
            return [table[m] for m in np.unravel_index(np.arange(start, stop), (n,) * dim)]

    else:
        points = np.asarray(points, dtype=float)
        npts, dim = points.shape

        def angles(start: int, stop: int) -> list[np.ndarray]:
            return [_texts(column) for column in points[start:stop].T]

    nu = lam.shape[1]
    header = [f"k{s + 1}" for s in range(dim)] + [f"lambda{j + 1}" for j in range(nu)]
    yield ",".join(header) + "\n"
    row = ",".join(["%s"] * dim + [FLOAT_12G] * nu) + "\n"
    for start in range(0, npts, CSV_BLOCK_ROWS):
        stop = min(start + CSV_BLOCK_ROWS, npts)
        cells = np.empty((stop - start, dim + nu), dtype=object)
        for axis, column in enumerate(angles(start, stop)):
            cells[:, axis] = column
        cells[:, dim:] = lam[start:stop] if partner is None else lam[partner[start:stop]]
        yield (row * (stop - start)) % tuple(cells.ravel().tolist())


def dispersion_csv(points: np.ndarray, lam: np.ndarray) -> str:
    """One row per grid point: quasimomentum components then the eigenvalues.

    Each block is freed once it is written into a buffer, so the call holds
    the buffer and the returned copy of it, not every block plus their join.
    """
    text = io.StringIO()
    text.writelines(dispersion_csv_blocks(points, lam))
    return text.getvalue()
