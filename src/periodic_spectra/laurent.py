"""Sparse finite Fourier series in d variables, and square matrices of them.

A polynomial is a map from integer frequency vectors m in Z^d to complex
coefficients; evaluation substitutes exp(i<m, k>).  Coefficient arithmetic is
plain complex floating point while the frequency bookkeeping is exact integer
arithmetic.  Products prune coefficients below ``PRUNE_TOL`` so floating-point
dust cannot inflate the support; that pruning is the only inexact step in the
symbolic layer.
"""

from __future__ import annotations

import cmath
from operator import neg
from typing import Iterable, Mapping

import numpy as np

IndexVector = tuple[int, ...]

# Coefficients with magnitude below this are dropped after every product.
PRUNE_TOL = 1e-14


class LaurentPoly:
    """Finite Fourier series: {m: c} represents sum_m c * exp(i<m, k>)."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: Mapping[IndexVector, complex] | None = None):
        self.dim = int(dim)
        self.coeffs: dict[IndexVector, complex] = {}
        for m, c in (coeffs or {}).items():
            key = tuple(map(int, m))
            if len(key) != self.dim:
                raise ValueError(f"frequency {key} has length {len(key)}, expected {self.dim}")
            c = complex(c)
            if c != 0:
                self.coeffs[key] = c

    @classmethod
    def zero(cls, dim: int) -> "LaurentPoly":
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, value: complex) -> "LaurentPoly":
        return cls(dim, {(0,) * dim: value})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = out.get(m, 0) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return LaurentPoly(self.dim, out)

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.dim, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, float, complex)):
            return LaurentPoly(self.dim, {m: c * other for m, c in self.coeffs.items()})
        other = self._coerce(other)
        out: dict[IndexVector, complex] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                key = tuple(a + b for a, b in zip(m1, m2))
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentPoly(self.dim, out).prune()

    __rmul__ = __mul__
    __radd__ = __add__

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            return other
        return LaurentPoly.constant(self.dim, other)

    def prune(self) -> "LaurentPoly":
        return LaurentPoly(self.dim, {m: c for m, c in self.coeffs.items() if abs(c) >= PRUNE_TOL})

    # -- queries -----------------------------------------------------------

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
    """Square matrix of LaurentPoly entries; the symbolic form of fiber operators."""

    __slots__ = ("dim", "size", "entries")

    def __init__(self, dim: int, entries: list[list[LaurentPoly]]):
        self.dim = int(dim)
        self.size = len(entries)
        for row in entries:
            if len(row) != self.size:
                raise ValueError("matrix must be square")
            for p in row:
                if p.dim != self.dim:
                    raise ValueError("dimension mismatch")
        self.entries = entries

    @classmethod
    def zeros(cls, dim: int, size: int) -> "LaurentMatrix":
        return cls(dim, [[LaurentPoly.zero(dim) for _ in range(size)] for _ in range(size)])

    @classmethod
    def identity(cls, dim: int, size: int) -> "LaurentMatrix":
        mat = cls.zeros(dim, size)
        for i in range(size):
            mat.entries[i][i] = LaurentPoly.constant(dim, 1.0)
        return mat

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        if other.size != self.size or other.dim != self.dim:
            raise ValueError("dimension mismatch")
        out = LaurentMatrix.zeros(self.dim, self.size)
        for i in range(self.size):
            for j in range(self.size):
                acc = LaurentPoly.zero(self.dim)
                for l in range(self.size):
                    left = self.entries[i][l]
                    if left.coeffs:
                        acc = acc + left * other.entries[l][j]
                out.entries[i][j] = acc.prune()
        return out

    def power(self, n: int) -> "LaurentMatrix":
        if n < 0:
            raise ValueError("only nonnegative powers are defined")
        result = LaurentMatrix.identity(self.dim, self.size)
        for _ in range(n):
            result = result @ self
        return result

    def trace(self) -> LaurentPoly:
        acc = LaurentPoly.zero(self.dim)
        for i in range(self.size):
            acc = acc + self.entries[i][i]
        return acc

    def eval_grid(self, points: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Stack of fiber matrices, shape (npts, size, size).

        With ``out``, a complex array of that shape, the stack is written
        into it (zeroed first) and ``out`` is returned, so a caller can
        evaluate many chunks into one stack.

        ``exp(i<m, k>)`` is computed once for each distinct frequency m of the
        whole matrix, one contiguous row of the phase table per frequency.
        ``<m, k>`` is summed term by term in axis order, and each entry sums
        ``c * exp(i<m, k>)`` term by term in sorted-frequency order.  No BLAS
        call is made, so the bits of every entry at a point depend neither on
        the other points of the call nor on the BLAS kernel, for any frequency
        range.
        """
        points = np.asarray(points, dtype=float)
        shape = (points.shape[0], self.size, self.size)
        if out is None:
            out = np.zeros(shape, dtype=complex)
        elif out.shape != shape or out.dtype != complex:
            raise ValueError(f"out must be a complex array of shape {shape}")
        else:
            out.fill(0)
        terms = [
            (i, j, sorted(p.coeffs.items()))
            for i, row in enumerate(self.entries)
            for j, p in enumerate(row)
            if p.coeffs
        ]
        freqs = sorted({m for _, _, items in terms for m, _ in items})
        column = {m: c for c, m in enumerate(freqs)}
        table = np.array(freqs, dtype=float).reshape(len(freqs), self.dim)
        angles = table[:, 0, None] * points[:, 0]
        for s in range(1, self.dim):
            angles += table[:, s, None] * points[:, s]
        phases = np.exp(1j * angles)
        for i, j, items in terms:
            (m, c), *rest = items
            acc = c * phases[column[m]]
            for m, c in rest:
                acc += c * phases[column[m]]
            out[:, i, j] = acc
        return out

    def hermitian_defect(self) -> str | None:
        """The first term that keeps some M(k) from being Hermitian, or None.  By uniqueness of
        Fourier series, every M(k) is Hermitian exactly when every coefficient is finite (NaN and
        inf fail) and ``c_ij(m) == conj c_ji(-m)``; each pair i <= j is walked once."""
        for i, row in enumerate(self.entries):
            for j in range(i, self.size):
                upper, lower, matched = row[j].coeffs, self.entries[j][i].coeffs, 0
                for m, c in upper.items():
                    mirror = lower.get(key := tuple(map(neg, m)))
                    matched += mirror is not None
                    if not (cmath.isfinite(c) and c == (mirror or 0j).conjugate()):
                        return f"entry ({i}, {j}) has {c} at {m} but entry ({j}, {i}) has {mirror or 0j} at {key}"
                if matched < len(lower):  # some term of (j, i) has no mirror
                    for m, c in lower.items():
                        if c != 0 and (key := tuple(map(neg, m))) not in upper:
                            return f"entry ({j}, {i}) has {c} at {m} but entry ({i}, {j}) has 0j at {key}"
        return None

    def frequency_radius(self) -> tuple[int, ...]:
        """R_s, the largest ``|m_s|`` over the terms of the entries, for each axis s."""
        terms = [m for row in self.entries for poly in row for m in poly.coeffs]
        return tuple(max((abs(m[s]) for m in terms), default=0) for s in range(self.dim))
