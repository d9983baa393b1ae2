"""Exact linear algebra over the rationals.

Two eliminations.  :func:`lowest_rows`, the persistence reduction, keeps
no coordinates: ``rank`` and ``complexes.homology_dims`` count its lowest
rows, and homology seeds the boundaries of each degree with its kept
columns (:meth:`Subquotient.of_lows`).  Every vector handed out comes from
the incremental sparse forward reduction of :class:`Subquotient`, behind
homology's classes, quotients and the spectral-sequence pairing.  Its
cycles go in only as they are read, so homology extends a degree's
boundaries by the relations of ``row_reduce(d_q)`` one at a time and stops
at dim H.  ``solve_particular`` reads its answer off the pivot columns, and
:meth:`Subquotient.kernel` is the one readout of an echelon's kernel,
sparse.  :func:`assemble` builds every matrix from per-label images, and
:meth:`RationalMatrix.apply` is the one sparse product.  Matrices are
stored as sparse ``{row: value}`` columns, which both eliminations take
with no conversion, and vectors are reduced as sparse maps.

Inside both eliminations and in a stored column a value is a plain ``int``
whenever it is integral; a ``Fraction`` appears only where a non-unit
pivot divides or an entry is not integral.  Structure constants are
mostly +-1, so nearly all of the arithmetic is on ints.  That rule lives
only at the entry points (:func:`assemble`, :meth:`RationalMatrix.apply`,
the ``RationalMatrix`` constructor and ``Subquotient._sparse``), which
take any exact value: the hosts hand out int structure constants and
``operads.combine`` sums what it is given, so nothing above this module
converts a coefficient.  Everything handed out at the edge (coordinates,
dense kernel, solution and representative vectors, the ``(row, col)``
matrix entries) is a ``Fraction``, and :func:`dense` is the one place
where a dense vector is made, only for what is handed out: class queries
reduce sparse maps, and of their vectors only ``HochschildClass.vector``
and ``DegreeHomology.representatives`` are dense.

Pivoting is deterministic, by one rule: vectors go in the given order,
and each pivots at its lowest row, its largest index, taken inside the
smallest block it touches when coordinates come in blocks.  A seeded
row's pivot is its low by the same rule.  Only the stored rows depend on
that rule; every readout depends on the insertion order and the spans
alone, so bases are reproducible.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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


class RationalMatrix:
    """Sparse exact-rational matrix, stored as its columns.  Immutable.

    Column c is a ``{row: value}`` map with no zeros, each value an ``int``
    wherever it is integral.  ``entries`` is the ``(row, col) -> Fraction``
    view at the edge, and ``columns()`` hands out new maps on ints.
    """

    __slots__ = ("rows", "cols", "_columns")

    def __init__(self, rows: int, cols: int, entries: Mapping | None = None):
        columns: list[dict] = [{} for _ in range(cols)]
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise IndexError(f"entry ({r},{c}) out of bounds")
            if v:
                columns[c][r] = _exact(v)
        self.rows, self.cols, self._columns = rows, cols, columns

    @classmethod
    def _of(cls, rows: int, columns: list) -> "RationalMatrix":
        """The matrix with the given stored columns, taken as they are."""
        M = cls.__new__(cls)
        M.rows, M.cols, M._columns = rows, len(columns), columns
        return M

    @classmethod
    def from_columns(cls, columns: Sequence[Vector], nrows: int) -> "RationalMatrix":
        if any(len(col) != nrows for col in columns):
            raise ValueError("column length mismatch")
        return cls._of(nrows, [{r: _exact(v) for r, v in enumerate(col) if v} for col in columns])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls._of(rows, [{} for _ in range(cols)])

    @property
    def entries(self) -> dict:
        return {(r, c): _frac(v) for c, col in enumerate(self._columns) for r, v in col.items()}

    def columns(self) -> list[dict]:
        """Every column as a new sparse ``{row: value}`` map."""
        return [dict(col) for col in self._columns]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._columns) == (other.rows, other.cols, other._columns)

    def __repr__(self) -> str:
        return f"RationalMatrix(rows={self.rows}, cols={self.cols}, entries={self.entries!r})"

    def apply(self, x: Mapping) -> dict:
        """M x for the sparse ``{index: value}`` vector x, as a sparse
        ``{row: value}`` map with no zeros, ints where integral: the one
        sparse product, behind ``matvec`` and ``matmul``."""
        mine, acc = self._columns, {}
        for k, w in x.items():
            for r, v in mine[k].items():
                acc[r] = acc.get(r, 0) + v * w
        return {r: v if type(v) is int else _exact(v) for r, v in acc.items() if v}

    def matvec(self, x: Sequence) -> Vector:
        if len(x) != self.cols:
            raise ValueError("dimension mismatch")
        return dense(self.apply({c: _exact(v) for c, v in enumerate(x) if v}), self.rows)

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        """The product, column by column."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        return RationalMatrix._of(self.rows, [self.apply(col) for col in other._columns])

    def is_zero(self) -> bool:
        return not any(self._columns)


def row_reduce(M: RationalMatrix) -> "Subquotient":
    """The echelon form of M: its columns handed, in order and one at a
    time, to a :class:`Subquotient` with no boundaries.  ``relations()``
    inserts a column only when the relation after the last one read is
    asked for, so a reader that stops early leaves the rest of M untouched;
    every other reader reduces all of M first.

    ``pivot_columns`` are the reduced row-echelon pivot columns, and
    ``dependent[f]`` holds the coordinates of column f over them, which
    are the echelon entries ``R[i, f]``.
    """
    return Subquotient(M.rows, map(dict, M._columns))


def lowest_rows(columns: Iterable[dict]) -> dict:
    """The persistence reduction of sparse columns, in order and in place:
    each is reduced only until its lowest nonzero row is no earlier
    column's, and kept there if nonzero, as ``{low row: (its entry there,
    the rest of the column)}``, so rank-many.  A step subtracts a kept column
    (scaled by ``_div``), drops the low and keeps ints where integral."""
    lows: dict = {}
    for w in columns:
        while w and (low := max(w)) in lows:
            p, rest = lows[low]
            f = _div(w.pop(low), p)
            for r, x in rest.items():
                v = w.get(r, 0) - f * x
                if v:
                    w[r] = v if type(v) is int else _exact(v)
                else:
                    del w[r]
        if w:
            lows[low] = (w.pop(low), w)
    return lows


def rank(M: RationalMatrix) -> int:
    """The number of lowest rows of M's columns: ``lowest_rows``."""
    return len(lowest_rows(M.columns()))


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
    the same entry accumulate, and the column is stored on ints where
    integral.  A target label missing from ``tgt_index`` (label -> row)
    raises ValueError: the map left its declared target.
    """
    columns = []
    for label in src_labels:
        col: dict = {}
        for tgt, v in image(label):
            r = tgt_index.get(tgt)
            if r is None:
                raise ValueError(f"image of {label!r} leaves the target basis at {tgt!r}")
            col[r] = col[r] + v if r in col else v
        columns.append({r: v if type(v) is int else _exact(v) for r, v in col.items() if v})
    return RationalMatrix._of(len(tgt_index), columns)


class Subquotient:
    """(span(cycles) + span(boundaries)) / span(boundaries), with coordinates.

    One incremental elimination: the boundaries go in first, then each
    cycle in the given order, and ``extend`` appends more cycles.  A cycle
    independent of everything before it becomes a representative, and its
    index goes to ``pivot_columns``; a dependent cycle keeps its
    coordinates over the representatives in ``dependent`` (cycle index ->
    sparse coordinates).  Every pivot row records its coordinates over the
    representatives (boundaries count as zero), so ``coords`` is one
    forward reduction with no new elimination.
    Each remainder pivots at its lowest row, its largest index; with
    ``block`` (coordinate -> int), at the lowest row inside the smallest
    block it touches, and reducing never reaches a smaller block.
    Vectors are dense sequences or sparse ``{index: value}`` maps.  Pivot
    rows and the ``dependent`` coordinates hold ints where integral;
    ``coords`` hands out Fractions.  A vector is reduced against the pivot
    rows in insertion order; each row is zero at every earlier row's pivot,
    so the remainder is zero at all pivots.
    The cycles go in as they are read: :meth:`relations` inserts them one
    at a time, and every other reader first inserts the rest.  A pivot
    depends on its own remainder alone, so no reader can tell.
    """

    def __init__(
        self, ambient_dim: int, cycles: Iterable, boundaries: Sequence = (),
        block: Callable[[int], int] | None = None,
    ):
        self.ambient_dim = ambient_dim
        self._block = block
        self._reps: list = []
        self._pivots: list[int] = []
        self._dependent: dict[int, dict] = {}
        # (pivot column, row with a 1 there, row's coordinates over the reps)
        # in insertion order, and each pivot column's place in that list
        self._rows: list[tuple[int, dict, dict]] = []
        self._rank: dict[int, int] = {}
        for b in boundaries:
            self._insert(self._sparse(b), None)
        self._pending = iter(cycles)

    @classmethod
    def of_lows(cls, ambient_dim: int, lows: Mapping) -> "Subquotient":
        """Some columns' span modulo itself, from their ``lowest_rows`` and
        with no elimination: each kept column, divided by its entry at its
        low, is the pivot row there, in decreasing low order.  Every entry
        of a kept column lies at or below its low, so each row is zero at
        every earlier (larger) row's pivot: the invariant above.  The kept
        columns become the rows."""
        sq = cls(ambient_dim, ())
        for low in sorted(lows, reverse=True):
            p, row = lows[low]
            if p == -1:
                row = {r: -x if type(x) is int else _exact(-x) for r, x in row.items()}
            elif p != 1:
                row = {r: _div(x, p) for r, x in row.items()}
            row[low] = 1
            sq._rank[low] = len(sq._rows)
            sq._rows.append((low, row, {}))
        return sq

    def extend(self, cycles: Iterable, stop: int | None = None) -> None:
        """Insert more cycles after everything inserted so far, in the given
        order, their indices continuing the earlier cycles'; stops before
        the next cycle once the quotient has ``stop`` representatives.  So
        ``Subquotient(n, (), boundaries)`` extended by ``cycles`` has the
        representatives, coordinates and spans of ``Subquotient(n, cycles,
        boundaries)``, and the same ``kernel`` when it runs to the end."""
        for z in cycles:
            if self.dim == stop:
                return
            self._add_cycle(z)

    def _add_cycle(self, z) -> int:
        """Insert the cycle z under the next cycle index; return it."""
        i = len(self._pivots) + len(self._dependent)
        coords = self._insert(self._sparse(z), z)
        if coords is None:
            self._pivots.append(i)
        else:
            self._dependent[i] = {k: _exact(x) for k, x in coords.items() if x}
        return i

    def relations(self) -> Iterator[dict]:
        """The ``kernel`` relation of each cycle not yet inserted, yielded as
        soon as that cycle turns dependent: the cycles go in one at a time,
        and only as far as the relations are read."""
        for z in self._pending:
            f = self._add_cycle(z)
            if f in self._dependent:
                yield self._relation(f)

    def _inserted(self) -> "Subquotient":
        """self, once every pending cycle is in: how each reader but
        ``relations`` starts."""
        for z in self._pending:
            self._add_cycle(z)
        return self

    representatives = property(lambda self: self._inserted()._reps)
    pivot_columns = property(lambda self: self._inserted()._pivots)
    dependent = property(lambda self: self._inserted()._dependent)

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def rows(self) -> list[dict]:
        """The pivot rows in insertion order, a basis of the span."""
        return [row for _, row, _ in self.pivot_rows()]

    def pivot_rows(self) -> list[tuple[int, dict, dict]]:
        """(pivot, row, the row's coordinates over the representatives) per
        pivot row, in insertion order; the row is that combination of the
        representatives modulo span(boundaries)."""
        return list(self._inserted()._rows)

    def kernel(self) -> list[dict]:
        """One relation e_f - sum_k c_k e_{pivot_k} per dependent cycle f
        with coordinates c, over the cycle indices, as a sparse ``{index:
        value}`` map with no zeros, ints where integral: a basis of the
        combinations of cycles in span(boundaries), so of ker M for
        ``row_reduce(M)``."""
        return [self._relation(f) for f in self.dependent]

    def _relation(self, f: int) -> dict:
        return {f: 1, **{self._pivots[k]: -c for k, c in self._dependent[f].items()}}

    def coords(self, v) -> Vector:
        """c with v - sum_k c_k reps_k in span(boundaries); NoSolution when
        v lies outside span(cycles) + span(boundaries)."""
        return dense(self.sparse_coords(v), self.dim)

    def sparse_coords(self, v) -> dict:
        """``coords`` as a ``{k: c}`` map with no zeros, ints where integral."""
        w = self._sparse(v)
        coords = self._inserted()._reduce(w)
        if w:
            raise NoSolution("vector outside span(cycles) + span(boundaries)")
        return {k: _exact(c) for k, c in coords.items() if c}

    def _sparse(self, v) -> dict:
        if isinstance(v, dict):
            return {i: x if type(x) is int else _exact(x) for i, x in v.items() if x}
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

    def _insert(self, w: dict, rep) -> dict | None:
        """Add the sparse vector w to the echelon; returns its coordinates
        when it is dependent, None when it became a pivot row."""
        coords = self._reduce(w)
        if not w:
            return coords
        # the lowest row, inside the smallest block
        block = self._block
        lead = max(w) if block is None else max(w, key=lambda c: (-block(c), c))
        # w = v - (reduced rows) is congruent to [rep] - coords mod boundaries;
        # the row is w / w[lead] and its coordinates (rep - coords) / w[lead]
        p = w[lead]
        row_coords = {k: _div(-x, p) for k, x in coords.items()}
        if rep is not None:
            row_coords[len(self._reps)] = _div(1, p)
            self._reps.append(rep)
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
