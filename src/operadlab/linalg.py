"""Exact linear algebra over the rationals.

Everything downstream reduces to this module: ``row_reduce`` with
``rank``, ``kernel_basis`` and ``solve_particular`` on top of it, the
:class:`Subquotient` behind homology, spectral-sequence pages and
quotients, and :func:`assemble`, which builds every matrix from per-label
images.  Matrices are stored sparsely as ``(row, col) -> Fraction`` maps;
elimination works on sparse rows, so the large-but-sparse coboundary
matrices stay cheap.

Pivoting is deterministic (leftmost column, smallest row index) so bases
are reproducible across runs.
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


def _sparse_rows(M: RationalMatrix) -> list[dict]:
    rows: list[dict] = [dict() for _ in range(M.rows)]
    for (r, c), v in M.entries.items():
        rows[r][c] = v
    return rows


def row_reduce(M: RationalMatrix) -> tuple[RationalMatrix, list[int], RationalMatrix]:
    """Reduced row-echelon form.

    Returns ``(R, pivots, T)`` with ``T @ M == R`` and ``pivots`` the pivot
    columns in increasing order.
    """
    work = _sparse_rows(M)
    # transform rows, augmented identity
    trans: list[dict] = [{r: Fraction(1)} for r in range(M.rows)]
    pivots: list[int] = []
    pivot_row_of: list[int] = []  # parallel to pivots
    next_row = 0
    for col in range(M.cols):
        # find pivot: smallest row index >= next_row with nonzero entry in col
        pr = None
        for r in range(next_row, M.rows):
            if work[r].get(col, 0) != 0:
                pr = r
                break
        if pr is None:
            continue
        if pr != next_row:
            work[next_row], work[pr] = work[pr], work[next_row]
            trans[next_row], trans[pr] = trans[pr], trans[next_row]
        # normalize
        inv = Fraction(1) / work[next_row][col]
        if inv != 1:
            work[next_row] = {c: v * inv for c, v in work[next_row].items()}
            trans[next_row] = {c: v * inv for c, v in trans[next_row].items()}
        prow, trow = work[next_row], trans[next_row]
        # eliminate everywhere else
        for r in range(M.rows):
            if r == next_row:
                continue
            f = work[r].get(col)
            if not f:
                continue
            wr, tr = work[r], trans[r]
            for c, v in prow.items():
                s = wr.get(c, Fraction(0)) - f * v
                if s == 0:
                    wr.pop(c, None)
                else:
                    wr[c] = s
            for c, v in trow.items():
                s = tr.get(c, Fraction(0)) - f * v
                if s == 0:
                    tr.pop(c, None)
                else:
                    tr[c] = s
        pivots.append(col)
        pivot_row_of.append(next_row)
        next_row += 1
        if next_row == M.rows:
            break
    R = RationalMatrix(
        M.rows, M.cols, {(r, c): v for r, row in enumerate(work) for c, v in row.items()}
    )
    T = RationalMatrix(
        M.rows, M.rows, {(r, c): v for r, row in enumerate(trans) for c, v in row.items()}
    )
    return R, pivots, T


def rank(M: RationalMatrix) -> int:
    return len(row_reduce(M)[1])


def kernel_basis(M: RationalMatrix) -> list[Vector]:
    """Basis of ker M, one vector per free column (deterministic)."""
    R, pivots, _ = row_reduce(M)
    pivot_set = set(pivots)
    rows = _sparse_rows(R)
    basis = []
    for free in range(M.cols):
        if free in pivot_set:
            continue
        v = zero_vec(M.cols)
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            coeff = rows[i].get(free)
            if coeff:
                v[pc] = -coeff
        basis.append(v)
    return basis


def solve_particular(M: RationalMatrix, b: Sequence) -> Vector:
    """One solution of M x = b; raises NoSolution if b is not in the image."""
    if len(b) != M.rows:
        raise ValueError("rhs length mismatch")
    R, pivots, T = row_reduce(M)
    tb = T.matvec(vec(b))
    # rows beyond the pivot rows of R must have zero rhs
    for r in range(len(pivots), M.rows):
        if tb[r] != 0:
            raise NoSolution("target not in the image")
    x = zero_vec(M.cols)
    for i, pc in enumerate(pivots):
        x[pc] = tb[i]
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
            entries[(r, c)] = entries.get((r, c), 0) + v
    return RationalMatrix(len(tgt_index), len(src_labels), entries)


class Subquotient:
    """(span(cycles) + span(boundaries)) / span(boundaries), with coordinates.

    One incremental elimination: the boundaries go in first, then each
    cycle in the given order.  A cycle independent of everything before
    it becomes a representative.  Every pivot row records its coordinates
    over the representatives (boundaries count as zero), so ``coords`` is
    one forward reduction with no new elimination.
    """

    def __init__(
        self, ambient_dim: int, cycles: Sequence[Vector], boundaries: Sequence[Vector] = ()
    ):
        self.ambient_dim = ambient_dim
        self.representatives: list = []
        # leading column -> (row with a 1 there, row's coordinates over the reps)
        self._pivots: dict[int, tuple[dict, dict]] = {}
        for b in boundaries:
            self._insert(b, None)
        for z in cycles:
            self._insert(z, z)

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def coords(self, v: Sequence) -> Vector:
        """c with v - sum_k c_k reps_k in span(boundaries); NoSolution when
        v lies outside span(cycles) + span(boundaries)."""
        lead, coords = self._reduce(self._sparse(v))
        if lead is not None:
            raise NoSolution("vector outside span(cycles) + span(boundaries)")
        return [coords.get(k, Fraction(0)) for k in range(self.dim)]

    def _sparse(self, v: Sequence) -> dict:
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        return {i: _frac(x) for i, x in enumerate(v) if x}

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

    def _insert(self, v: Sequence, rep) -> None:
        w = self._sparse(v)
        lead, coords = self._reduce(w)
        if lead is None:
            return
        # w = v - (reduced rows) is congruent to [rep] - coords mod boundaries
        row_coords = {k: -x for k, x in coords.items()}
        if rep is not None:
            row_coords[self.dim] = Fraction(1)
            self.representatives.append(rep)
        inv = 1 / w[lead]
        self._pivots[lead] = (
            {c: x * inv for c, x in w.items()},
            {k: x * inv for k, x in row_coords.items()},
        )


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
