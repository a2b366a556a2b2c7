"""Sparse finite Fourier series in d variables, and square matrices of them.

A polynomial maps integer frequency vectors m in Z^d to complex coefficients;
evaluation substitutes exp(i<m, k>).  Coefficient arithmetic is plain complex
floating point, the frequency bookkeeping exact integer arithmetic, and
products prune coefficients below ``PRUNE_TOL``, the only inexact step.  A
matrix is one sorted term table that no other module reads: every fact of its
coefficients is computed here, once per matrix, and its products and trace
work on the table itself.  A polynomial is what a trace returns: a read-only
series to query and evaluate.
"""

from __future__ import annotations

import cmath
from functools import cached_property
from operator import add, neg
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

IndexVector = tuple[int, ...]

# Coefficients with magnitude below this are dropped after every product.
PRUNE_TOL = 1e-14


class LaurentPoly:
    """Finite Fourier series: {m: c} represents sum_m c * exp(i<m, k>); ``coeffs`` is read-only."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: Mapping[IndexVector, complex] | None = None):
        self.dim = int(dim)
        terms: dict[IndexVector, complex] = {}
        for m, c in (coeffs or {}).items():
            key = tuple(map(int, m))
            if len(key) != self.dim:
                raise ValueError(f"frequency {key} has length {len(key)}, expected {self.dim}")
            c = complex(c)
            if c != 0:
                terms[key] = c
        self.coeffs = MappingProxyType(terms)

    def coeff(self, m: Iterable[int]) -> complex:
        key = tuple(int(v) for v in m)
        if len(key) != self.dim:
            raise ValueError("frequency length mismatch")
        return self.coeffs.get(key, 0j)

    def eval_grid(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at many quasimomenta at once; ``points`` is (npts, dim)."""
        points = np.asarray(points, dtype=float)
        if not self.coeffs:
            return np.zeros(points.shape[0], dtype=complex)
        items = sorted(self.coeffs.items())
        freqs = np.array([m for m, _ in items], dtype=float).reshape(len(items), self.dim)
        values = np.array([c for _, c in items], dtype=complex)
        return np.exp(1j * (points @ freqs.T)) @ values

    def __repr__(self) -> str:
        terms = ", ".join(f"{m}: {c:.6g}" for m, c in sorted(self.coeffs.items()))
        return f"LaurentPoly(dim={self.dim}, {{{terms}}})"


class LaurentMatrix:
    """Square matrix of finite Fourier series, the symbolic form of fiber operators.

    Built from ``terms``, which maps ``(i, j, m)``, m a tuple of ``dim`` ints, to the coefficient
    of ``exp(i<m, k>)`` in entry (i, j).  ``table``, the term table, keeps the nonzero ones,
    read-only and sorted: entry by entry in row-major order, each entry by frequency.  Every fact,
    the Hermitian verdict ``hermitian_defect`` among them, is computed at its first use.
    """

    def __init__(self, dim: int, size: int, terms: Mapping[tuple[int, int, IndexVector], complex]):
        self.dim, self.size = int(dim), int(size)
        self.table = MappingProxyType({key: complex(c) for key, c in sorted(terms.items()) if c != 0})

    @cached_property
    def hermitian_defect(self) -> str | None:
        """The first term that keeps some M(k) from being Hermitian, or None (see :func:`_hermitian_defect`)."""
        return _hermitian_defect(self.table)

    @cached_property
    def _rows(self) -> tuple[tuple[tuple[int, tuple[tuple[IndexVector, complex], ...]], ...], ...]:
        """Per row i, ``(j, ((m, c), ...))`` for each nonzero entry (i, j), in table order."""
        rows: list[dict[int, list]] = [{} for _ in range(self.size)]
        for (i, j, m), c in self.table.items():
            rows[i].setdefault(j, []).append((m, c))
        return tuple(tuple((j, tuple(terms)) for j, terms in row.items()) for row in rows)

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        """Entry (i, j) adds the pruned products of (i, l) and (l, j) over ascending l, then is pruned.

        A product sums ``c1 * c2`` in table order; every sum starts from 0, and a running total
        that becomes exactly 0 loses its term: the bits of multiplying the entries as polynomials.
        """
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        if other.size != self.size or other.dim != self.dim:
            raise ValueError("dimension mismatch")
        terms, right = {}, other._rows
        for i, row in enumerate(self._rows):
            totals: dict[int, dict[IndexVector, complex]] = {}
            for l, left in row:
                for j, entry in right[l]:
                    product: dict[IndexVector, complex] = {}
                    for m1, c1 in left:
                        for m2, c2 in entry:
                            key = tuple(map(add, m1, m2))
                            product[key] = product.get(key, 0) + c1 * c2
                    _accumulate(totals.setdefault(j, {}), _pruned(product))
            for j, total in totals.items():
                terms.update(((i, j, m), c) for m, c in _pruned(total))
        return LaurentMatrix(self.dim, self.size, terms)

    def power(self, n: int) -> "LaurentMatrix":
        if n < 0:
            raise ValueError("only nonnegative powers are defined")
        result = LaurentMatrix(self.dim, self.size, {(i, i, (0,) * self.dim): 1.0 for i in range(self.size)})
        for _ in range(n):
            result = result @ self
        return result

    def trace(self) -> LaurentPoly:
        total: dict[IndexVector, complex] = {}
        _accumulate(total, ((m, c) for (i, j, m), c in self.table.items() if i == j))
        return LaurentPoly(self.dim, total)

    @cached_property
    def _phase_plan(self) -> tuple[np.ndarray, tuple]:
        """The sorted distinct frequencies as float rows, and ``((i, j), [(row of m, c), ...])`` per entry."""
        distinct = sorted({m for _, _, m in self.table})
        column = {m: s for s, m in enumerate(distinct)}
        plan: dict[tuple[int, int], list[tuple[int, complex]]] = {}
        for (i, j, m), c in self.table.items():
            plan.setdefault((i, j), []).append((column[m], c))
        return np.array(distinct, dtype=float).reshape(len(distinct), self.dim), tuple(plan.items())

    def eval_grid(self, points: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Stack of fiber matrices, shape (npts, size, size); written into ``out``, zeroed first, if given.

        ``exp(i<m, k>)`` is computed once per distinct frequency m of the matrix, one contiguous row
        of the phase table each, with ``<m, k>`` summed in axis order; each entry sums
        ``c * exp(i<m, k>)`` in table order.  No BLAS call is made, so the bits of an entry at a
        point depend neither on the other points nor on the BLAS kernel, for any frequency range.
        """
        points = np.asarray(points, dtype=float)
        shape = (points.shape[0], self.size, self.size)
        if out is None:
            out = np.zeros(shape, dtype=complex)
        elif out.shape != shape or out.dtype != complex:
            raise ValueError(f"out must be a complex array of shape {shape}")
        else:
            out.fill(0)
        table, plan = self._phase_plan
        angles = table[:, 0, None] * points[:, 0]
        for s in range(1, self.dim):
            angles += table[:, s, None] * points[:, s]
        phases = np.exp(1j * angles)
        for (i, j), terms in plan:
            (row, c), *rest = terms
            acc = c * phases[row]
            for row, c in rest:
                acc += c * phases[row]
            out[:, i, j] = acc
        return out

    @cached_property
    def real(self) -> bool:
        """Every coefficient is real, so M(-k) = conj M(k)."""
        return all(c.imag == 0 for c in self.table.values())

    @cached_property
    def integral(self) -> bool:
        """Every coefficient is a real integer."""
        return self.real and all(c.real.is_integer() for c in self.table.values())

    @cached_property
    def frequency_radius(self) -> tuple[int, ...]:
        """R_s, the largest ``|m_s|`` over the terms, for each axis s."""
        return tuple(max((abs(m[s]) for _, _, m in self.table), default=0) for s in range(self.dim))

    @cached_property
    def rho(self) -> float:
        """The largest row sum of ``|c|`` over the terms, which bounds ``||M(k)||_2`` at every k."""
        sums = [0.0] * self.size
        for (i, _, _), c in self.table.items():
            sums[i] += abs(c)
        return max(sums)

    @cached_property
    def weights(self) -> np.ndarray:
        """Per entry, shape (3, size, size): ``sum_m |c| * ||m||_1``, ``sum_m |c|``, and a bound on the
        rounding :meth:`eval_grid` adds at |k_s| < 2*pi (phase over ``dim`` axes, ``exp``, product
        with c, running sum), ``eps * sum_m |c| * (pi * (dim + 1) * ||m||_1 + terms + 2)``."""
        entry = [i * self.size + j for i, j, _ in self.table]
        count = np.bincount(entry, minlength=self.size**2)[entry]
        mass = np.abs(list(self.table.values()))
        norm = np.array([sum(map(abs, m)) for *_, m in self.table], dtype=float)
        noise = np.finfo(float).eps * mass * (np.pi * (self.dim + 1) * norm + count + 2)
        sums = [np.bincount(entry, weights=w, minlength=self.size**2) for w in (mass * norm, mass, noise)]
        return np.reshape(sums, (3, self.size, self.size))

    @cached_property
    def dyadic_terms(self) -> tuple[int, tuple[tuple[int, int, IndexVector, int], ...]]:
        """``(2**e, ((i, j, m, a), ...))`` with ``Re c == a * 2**-e`` for every term, e the smallest such."""
        ratios = [(i, j, m, c.real.as_integer_ratio()) for (i, j, m), c in self.table.items()]
        scale = max((den for *_, (_, den) in ratios), default=1)
        return scale, tuple((i, j, m, num * (scale // den)) for i, j, m, (num, den) in ratios)


def _hermitian_defect(terms: Mapping[tuple[int, int, IndexVector], complex]) -> str | None:
    """The first term that keeps some M(k) from being Hermitian, or None.  By uniqueness of
    Fourier series, every M(k) is Hermitian exactly when every coefficient is finite (NaN and
    inf fail) and ``c_ij(m) == conj c_ji(-m)``.  Pairs i <= j are taken in row-major order: the
    terms of (i, j) by frequency, then those of (j, i) that have no mirror."""
    bad = []
    for (i, j, m), c in terms.items():
        mirror = terms.get(key := (j, i, tuple(map(neg, m))), 0j)
        if not (cmath.isfinite(c) and c == mirror.conjugate()) and (i <= j or key not in terms):
            message = f"entry ({i}, {j}) has {c} at {m} but entry ({j}, {i}) has {mirror} at {key[2]}"
            bad.append(((min(i, j), max(i, j), i > j, m), message))
    return min(bad)[1] if bad else None


def _pruned(terms: Mapping[IndexVector, complex]) -> Iterable[tuple[IndexVector, complex]]:
    """The terms with ``|c| >= PRUNE_TOL``, in order: dust, exact zeros and NaN go."""
    return ((m, c) for m, c in terms.items() if abs(c) >= PRUNE_TOL)


def _accumulate(total: dict[IndexVector, complex], terms: Iterable[tuple[IndexVector, complex]]) -> None:
    """Add ``terms`` into the running sums ``total``, each from 0; a sum that is exactly 0 is dropped."""
    for m, c in terms:
        s = total.get(m, 0) + c
        if s == 0:
            total.pop(m, None)
        else:
            total[m] = s
