"""Exact linear algebra over the rationals.

Everything downstream reduces to one elimination, the incremental sparse
forward reduction of :class:`Subquotient`.  It is behind homology,
spectral-sequence pages and quotients, and ``row_reduce`` is that
reduction on a matrix's columns: ``rank`` and ``solve_particular`` read
their answers off its pivot columns, and :meth:`Subquotient.kernel` is
the one readout of an echelon's kernel, sparse, which ``kernel_basis``,
homology and the pages share.  :func:`assemble` builds every matrix from
per-label images.  Matrices are stored sparsely as ``(row, col) ->
Fraction`` maps and vectors are reduced as sparse maps, so the
large-but-sparse coboundary matrices stay cheap.

Inside the elimination a value is a plain ``int`` whenever it is
integral; a ``Fraction`` appears only where a non-unit pivot divides.
Structure constants are mostly +-1, so nearly all of the arithmetic is
on ints.  Everything handed out at the edge (coordinates, dense kernel,
solution and representative vectors, matrix entries) is a ``Fraction``,
and :func:`dense` is the one place where a dense vector is made.

Pivoting is deterministic: vectors go in the given order, and each
remainder's pivot is a unit entry where it has one, at the coordinate that
the fewest input vectors touch (Markowitz), smallest index on ties.  Only
the stored rows depend on that choice; every readout depends on the
insertion order and the spans alone, so bases are reproducible.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
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


def dense(x: Mapping, dim: int) -> Vector:
    """The sparse ``{index: value}`` vector x as a dense Fraction list."""
    v = zero_vec(dim)
    for i, c in x.items():
        v[i] = _frac(c)
    return v


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
        """The product, summed on ints wherever the entries are integral."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        by_row: list[dict] = [dict() for _ in range(other.rows)]
        for (r, c), v in other.entries.items():
            by_row[r][c] = _exact(v)
        entries: dict = {}
        for (r, k), v in self.entries.items():
            row = by_row[k]
            if row:
                v = _exact(v)
                for c, w in row.items():
                    entries[(r, c)] = entries.get((r, c), 0) + v * w
        return RationalMatrix(self.rows, other.cols, {k: v for k, v in entries.items() if v})

    def is_zero(self) -> bool:
        return not self.entries


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
    return [dense(k, M.cols) for k in row_reduce(M).kernel()]


def solve_particular(M: RationalMatrix, b: Sequence) -> Vector:
    """The solution of M x = b supported on the pivot columns; raises
    NoSolution if b is not in the image."""
    E = row_reduce(M)
    try:
        coords = E.sparse_coords(b)
    except NoSolution:
        raise NoSolution("target not in the image") from None
    return dense({E.pivot_columns[k]: c for k, c in coords.items()}, M.cols)


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
    ``coords`` hands out Fractions.  A vector is reduced against the pivot
    rows in insertion order; each row is zero at every earlier row's pivot,
    so the remainder is zero at all pivots.
    """

    def __init__(
        self, ambient_dim: int, cycles: Sequence, boundaries: Sequence = ()
    ):
        self.ambient_dim = ambient_dim
        self.representatives: list = []
        self.pivot_columns: list[int] = []
        self.dependent: dict[int, dict] = {}
        # (pivot column, row with a 1 there, row's coordinates over the reps)
        # in insertion order, and each pivot column's place in that list
        self._rows: list[tuple[int, dict, dict]] = []
        self._rank: dict[int, int] = {}
        bs = [self._sparse(b) for b in boundaries]
        zs = [self._sparse(z) for z in cycles]
        count = Counter(chain.from_iterable(bs + zs))
        for w in bs:
            self._insert(w, None, count)
        for i, (z, w) in enumerate(zip(cycles, zs)):
            coords = self._insert(w, z, count)
            if coords is None:
                self.pivot_columns.append(i)
            else:
                self.dependent[i] = {k: _exact(x) for k, x in coords.items() if x}

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def rows(self) -> list[dict]:
        """The pivot rows in insertion order, a basis of the span."""
        return [row for _, row, _ in self._rows]

    def kernel(self) -> list[dict]:
        """One relation e_f - sum_k c_k e_{pivot_k} per dependent cycle f
        with coordinates c, over the cycle indices, as a sparse ``{index:
        value}`` map with no zeros, ints where integral: a basis of the
        combinations of cycles in span(boundaries), so of ker M for
        ``row_reduce(M)``."""
        return [
            {f: 1, **{self.pivot_columns[k]: -c for k, c in cs.items()}}
            for f, cs in self.dependent.items()
        ]

    def coords(self, v) -> Vector:
        """c with v - sum_k c_k reps_k in span(boundaries); NoSolution when
        v lies outside span(cycles) + span(boundaries)."""
        coords = self.sparse_coords(v)
        return [_frac(coords.get(k, 0)) for k in range(self.dim)]

    def sparse_coords(self, v) -> dict:
        """``coords`` as a ``{k: c}`` map with no zeros, ints where integral."""
        w = self._sparse(v)
        coords = self._reduce(w)
        if w:
            raise NoSolution("vector outside span(cycles) + span(boundaries)")
        return {k: _exact(c) for k, c in coords.items() if c}

    def _sparse(self, v) -> dict:
        if isinstance(v, dict):
            return {i: _exact(x) for i, x in v.items() if x}
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        return {i: _exact(x) for i, x in enumerate(v) if x}

    def _reduce(self, w: dict) -> dict:
        """Subtract pivot rows from w in place, in insertion order, until w
        is zero at every pivot; returns the coordinates of the rows taken."""
        coords: dict = {}
        rows, rank = self._rows, self._rank
        heap = [rank[c] for c in w if c in rank]
        heapq.heapify(heap)
        while heap:
            lead, row, row_coords = rows[heapq.heappop(heap)]
            f = w.get(lead)
            if f is None:  # a repeated entry, or cancelled on the way
                continue
            for c, x in row.items():
                v = w.get(c)
                if v is None:
                    w[c] = -f * x
                    k = rank.get(c)
                    if k is not None:
                        heapq.heappush(heap, k)
                else:
                    v -= f * x
                    if v:
                        w[c] = v
                    else:
                        del w[c]
            for k, x in row_coords.items():
                coords[k] = coords.get(k, 0) + f * x
        return coords

    def _insert(self, w: dict, rep, count: Counter) -> dict | None:
        """Add the sparse vector w to the echelon; returns its coordinates
        when it is dependent, None when it became a pivot row."""
        coords = self._reduce(w)
        if not w:
            return coords
        lead = min(w, key=lambda c: (abs(w[c]) != 1, count[c], c))
        # w = v - (reduced rows) is congruent to [rep] - coords mod boundaries;
        # the row is w / w[lead] and its coordinates (rep - coords) / w[lead]
        p = w[lead]
        row_coords = {k: _div(-x, p) for k, x in coords.items()}
        if rep is not None:
            row_coords[self.dim] = _div(1, p)
            self.representatives.append(rep)
        row = w if p == 1 else {c: _div(x, p) for c, x in w.items()}
        self._rank[lead] = len(self._rows)
        self._rows.append((lead, row, row_coords))
        return None


class QuotientSpace:
    """Ambient rational space modulo the span of given vectors.

    ``representatives`` are the unit vectors at the columns that are not
    pivot columns of the subspace's reduced row-echelon form, in ascending
    order; ``reduce`` returns coordinates with respect to them, vanishing
    exactly on the subspace span.  A view over :class:`Subquotient` whose
    cycles are the unit vectors in descending column order, so neither
    depends on which pivots the elimination picks.
    """

    def __init__(self, ambient_dim: int, subspace: Sequence[Vector]):
        units = [{c: 1} for c in reversed(range(ambient_dim))]
        self._sq = Subquotient(ambient_dim, units, subspace)
        self.ambient_dim = ambient_dim
        self.representatives: list[Vector] = [
            dense(e, ambient_dim) for e in self._sq.representatives[::-1]
        ]

    @property
    def dim(self) -> int:
        return self._sq.dim

    def reduce(self, v: Sequence) -> Vector:
        """Coordinates of v modulo the subspace (over the representatives)."""
        return self._sq.coords(v)[::-1]

    def contains(self, v: Sequence) -> bool:
        return is_zero_vec(self.reduce(v))
