"""Exact linear algebra over the rationals.

Everything downstream reduces to one elimination, the incremental sparse
forward reduction of :class:`Subquotient`.  It is behind homology,
spectral-sequence pages and quotients, and ``row_reduce`` is that
reduction on a matrix's columns: ``rank``, ``kernel_basis`` and
``solve_particular`` read their answers off its pivot columns and the
recorded coordinates of the dependent columns.  :func:`assemble` builds
every matrix from per-label images.  Matrices are stored sparsely as
``(row, col) -> Fraction`` maps and vectors are reduced as sparse maps,
so the large-but-sparse coboundary matrices stay cheap.

Inside the elimination a value is a plain ``int`` whenever it is
integral; a ``Fraction`` appears only where a non-unit pivot divides.
Structure constants are mostly +-1, so nearly all of the arithmetic is
on ints.  Everything handed out (coordinates, kernel and solution
vectors, matrix entries) is a ``Fraction``.

Pivoting is deterministic (vectors in the given order, each reduced at
its smallest nonzero index), so bases are reproducible across runs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

Vector = list[Fraction]


class NoSolution(Exception):
    """Raised when a linear system M x = b has no solution."""


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _exact(x):
    """x as an int when it is integral, else as a Fraction."""
    if isinstance(x, int):
        return x
    x = _frac(x)
    return x.numerator if x.denominator == 1 else x


def _div(x, p):
    """x / p as an int when integral; a unit p divides by multiplying,
    and no int is ever divided by an int with ``/``."""
    return _exact(x * p if p == 1 or p == -1 else Fraction(x) / p)


def vec(entries: Iterable) -> Vector:
    return [_frac(x) for x in entries]


def zero_vec(n: int) -> Vector:
    return [Fraction(0)] * n


def is_zero_vec(a: Vector) -> bool:
    return all(x == 0 for x in a)


@dataclass(frozen=True)
class RationalMatrix:
    """Sparse exact-rational matrix.  Immutable; no stored zeros."""

    rows: int
    cols: int
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (r, c), v in self.entries.items():
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise IndexError(f"entry ({r},{c}) out of bounds")
            v = _frac(v)
            if v != 0:
                clean[(r, c)] = v
        object.__setattr__(self, "entries", clean)

    @classmethod
    def from_columns(cls, columns: Sequence[Vector], nrows: int) -> "RationalMatrix":
        entries = {}
        for c, col in enumerate(columns):
            if len(col) != nrows:
                raise ValueError("column length mismatch")
            for r, v in enumerate(col):
                if v != 0:
                    entries[(r, c)] = _frac(v)
        return cls(nrows, len(columns), entries)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, {})

    def columns(self) -> list[dict]:
        """Every column as a sparse ``{row: value}`` map, in one pass."""
        out: list[dict] = [dict() for _ in range(self.cols)]
        for (r, c), v in self.entries.items():
            out[c][r] = v
        return out

    def matvec(self, x: Sequence) -> Vector:
        if len(x) != self.cols:
            raise ValueError("dimension mismatch")
        x = vec(x)
        out = zero_vec(self.rows)
        for (r, c), v in self.entries.items():
            if x[c] != 0:
                out[r] += v * x[c]
        return out

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        by_row: list[dict] = [dict() for _ in range(other.rows)]
        for (r, c), v in other.entries.items():
            by_row[r][c] = v
        entries: dict = {}
        for (r, k), v in self.entries.items():
            for c, w in by_row[k].items():
                key = (r, c)
                s = entries.get(key, Fraction(0)) + v * w
                if s == 0:
                    entries.pop(key, None)
                else:
                    entries[key] = s
        return RationalMatrix(self.rows, other.cols, entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )


def row_reduce(M: RationalMatrix) -> "Subquotient":
    """The echelon form of M: its columns fed, in order, into a
    :class:`Subquotient` with no boundaries.

    ``pivot_columns`` are the reduced row-echelon pivot columns, and
    ``dependent[f]`` holds the coordinates of column f over them, which
    are the echelon entries ``R[i, f]``.
    """
    return Subquotient(M.rows, M.columns())


def rank(M: RationalMatrix) -> int:
    return row_reduce(M).dim


def kernel_basis(M: RationalMatrix) -> list[Vector]:
    """Basis of ker M, one vector e_f - sum_i R[i, f] e_{p_i} per free
    column f (deterministic)."""
    E = row_reduce(M)
    basis = []
    for free, coords in E.dependent.items():
        v = zero_vec(M.cols)
        v[free] = Fraction(1)
        for k, c in coords.items():
            v[E.pivot_columns[k]] = -_frac(c)
        basis.append(v)
    return basis


def solve_particular(M: RationalMatrix, b: Sequence) -> Vector:
    """The solution of M x = b supported on the pivot columns; raises
    NoSolution if b is not in the image."""
    E = row_reduce(M)
    try:
        coords = E.coords(b)
    except NoSolution:
        raise NoSolution("target not in the image") from None
    x = zero_vec(M.cols)
    for pc, c in zip(E.pivot_columns, coords):
        x[pc] = c
    return x


def assemble(
    src_labels: Sequence,
    tgt_index: Mapping,
    image: Callable[[object], Iterable[tuple[object, object]]],
) -> RationalMatrix:
    """Matrix whose column j is ``image(src_labels[j])``.

    ``image`` yields ``(target label, coefficient)`` pairs; pairs hitting
    the same entry accumulate.  A target label missing from ``tgt_index``
    (label -> row) raises ValueError: the map left its declared target.
    """
    entries: dict = {}
    for c, label in enumerate(src_labels):
        for tgt, v in image(label):
            r = tgt_index.get(tgt)
            if r is None:
                raise ValueError(f"image of {label!r} leaves the target basis at {tgt!r}")
            if (r, c) in entries:
                entries[(r, c)] += v
            else:
                entries[(r, c)] = v
    return RationalMatrix(len(tgt_index), len(src_labels), entries)


class Subquotient:
    """(span(cycles) + span(boundaries)) / span(boundaries), with coordinates.

    One incremental elimination: the boundaries go in first, then each
    cycle in the given order.  A cycle independent of everything before
    it becomes a representative, and its index goes to ``pivot_columns``;
    a dependent cycle keeps its coordinates over the representatives in
    ``dependent`` (cycle index -> sparse coordinates).  Every pivot row
    records its coordinates over the representatives (boundaries count as
    zero), so ``coords`` is one forward reduction with no new elimination.
    Vectors are dense sequences or sparse ``{index: value}`` maps.  Pivot
    rows and the ``dependent`` coordinates hold ints where integral;
    ``coords`` hands out Fractions.
    """

    def __init__(
        self, ambient_dim: int, cycles: Sequence, boundaries: Sequence = ()
    ):
        self.ambient_dim = ambient_dim
        self.representatives: list = []
        self.pivot_columns: list[int] = []
        self.dependent: dict[int, dict] = {}
        # leading column -> (row with a 1 there, row's coordinates over the reps)
        self._pivots: dict[int, tuple[dict, dict]] = {}
        for b in boundaries:
            self._insert(b, None)
        for i, z in enumerate(cycles):
            coords = self._insert(z, z)
            if coords is None:
                self.pivot_columns.append(i)
            else:
                self.dependent[i] = {k: _exact(x) for k, x in coords.items()}

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def rows(self) -> list[dict]:
        """The pivot rows in insertion order, an echelon basis of the span."""
        return [row for row, _ in self._pivots.values()]

    def coords(self, v) -> Vector:
        """c with v - sum_k c_k reps_k in span(boundaries); NoSolution when
        v lies outside span(cycles) + span(boundaries)."""
        lead, coords = self._reduce(self._sparse(v))
        if lead is not None:
            raise NoSolution("vector outside span(cycles) + span(boundaries)")
        return [_frac(coords.get(k, 0)) for k in range(self.dim)]

    def _sparse(self, v) -> dict:
        if isinstance(v, dict):
            return {i: _exact(x) for i, x in v.items() if x}
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        return {i: _exact(x) for i, x in enumerate(v) if x}

    def _reduce(self, w: dict) -> tuple[int | None, dict]:
        """Eliminate pivots from w in place, leading column first.

        Returns the leading column of the remainder (None when w reduced
        to zero) and the coordinates of the subtracted pivot rows.
        """
        coords: dict = {}
        heap = list(w)
        heapq.heapify(heap)
        while heap:
            c = heapq.heappop(heap)
            f = w.get(c)
            if f is None:
                continue
            pivot = self._pivots.get(c)
            if pivot is None:
                return c, coords
            row, row_coords = pivot
            for cc, x in row.items():
                s = w.get(cc, 0) - f * x
                if s:
                    if cc not in w:
                        heapq.heappush(heap, cc)
                    w[cc] = s
                else:
                    w.pop(cc, None)
            for k, x in row_coords.items():
                coords[k] = coords.get(k, 0) + f * x
        return None, coords

    def _insert(self, v, rep) -> dict | None:
        """Add v to the echelon; returns its coordinates when it is
        dependent, None when it became a pivot row."""
        w = self._sparse(v)
        lead, coords = self._reduce(w)
        if lead is None:
            return coords
        # w = v - (reduced rows) is congruent to [rep] - coords mod boundaries;
        # the row is w / w[lead] and its coordinates (rep - coords) / w[lead]
        p = w[lead]
        row_coords = {k: _div(-x, p) for k, x in coords.items()}
        if rep is not None:
            row_coords[self.dim] = _div(1, p)
            self.representatives.append(rep)
        self._pivots[lead] = ({c: _div(x, p) for c, x in w.items()}, row_coords)
        return None


class QuotientSpace:
    """Ambient rational space modulo the span of given vectors.

    ``representatives`` are the unit vectors at the columns that are not
    pivots of the subspace's echelon form, in ascending order; ``reduce``
    returns coordinates with respect to them, vanishing exactly on the
    subspace span.  A view over :class:`Subquotient` whose cycles are the
    unit vectors in descending column order.
    """

    def __init__(self, ambient_dim: int, subspace: Sequence[Vector]):
        units = []
        for c in reversed(range(ambient_dim)):
            e = zero_vec(ambient_dim)
            e[c] = Fraction(1)
            units.append(e)
        self._sq = Subquotient(ambient_dim, units, subspace)
        self.ambient_dim = ambient_dim
        self.representatives: list[Vector] = self._sq.representatives[::-1]

    @property
    def dim(self) -> int:
        return self._sq.dim

    def reduce(self, v: Sequence) -> Vector:
        """Coordinates of v modulo the subspace (over the representatives)."""
        return self._sq.coords(v)[::-1]

    def contains(self, v: Sequence) -> bool:
        return is_zero_vec(self.reduce(v))
