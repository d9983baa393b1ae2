"""Graded spaces, chain complexes on a degree window, and homology.

A :class:`ChainComplexWindow` only knows the complex between ``deg_min``
and ``deg_max``.  Degrees at a truncated edge have spurious cycles or
missing boundaries, so homology there is flagged unreliable instead of
being reported as a number; asking for it raises :class:`WindowBoundary`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .linalg import (
    NoSolution,
    RationalMatrix,
    Subquotient,
    Vector,
    assemble,
    dense,
    is_zero_vec,
    kernel_basis,  # unused; bench/test_bench.py pins this binding
    row_reduce,
    solve_particular,
    vec,
    zero_vec,
)


class WindowBoundary(Exception):
    """Homology requested at a truncated window edge."""


class NotACycle(NoSolution):
    """A vector that should be a cycle is not one."""


class NotABoundary(Exception):
    pass


@dataclass(frozen=True)
class GradedSpace:
    """Ordered basis labels per degree."""

    basis: dict  # degree -> tuple of labels

    def __post_init__(self):
        clean = {}
        for q, labels in self.basis.items():
            labels = tuple(labels)
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate labels in degree {q}")
            if labels:
                clean[q] = labels
        object.__setattr__(self, "basis", clean)

    def degrees(self):
        return sorted(self.basis)

    def dim(self, q: int) -> int:
        return len(self.basis.get(q, ()))

    def labels(self, q: int):
        return self.basis.get(q, ())


def totals_by_degree(dims: dict, t_max: int | None = None) -> dict:
    """Sum a (p, q) -> dim table by total degree p + q, up to t_max."""
    out: dict = {}
    for (p, q), d in dims.items():
        if t_max is None or p + q <= t_max:
            out[p + q] = out.get(p + q, 0) + d
    return dict(sorted(out.items()))


class ChainComplexWindow:
    """Chain complex with differential of degree -1 on a window.

    ``differential[q]`` is the matrix of d : C_q -> C_{q-1} in the given
    bases.  ``complete_below`` / ``complete_above`` declare that the
    complex genuinely vanishes past the window edge, making edge degrees
    reliable.
    """

    def __init__(
        self,
        space: GradedSpace,
        differential: dict | None = None,
        window: tuple[int, int] | None = None,
        complete_below: bool = True,
        complete_above: bool = True,
    ):
        self.space = space
        degrees = space.degrees()
        if window is None:
            window = (degrees[0], degrees[-1]) if degrees else (0, 0)
        self.window = window
        self.complete_below = complete_below
        self.complete_above = complete_above
        self.differential = {}
        differential = differential or {}
        lo, hi = window
        for q in range(lo, hi + 1):
            n_from = space.dim(q)
            n_to = space.dim(q - 1) if q - 1 >= lo else 0
            M = differential.get(q)
            if M is None:
                M = RationalMatrix.zero(n_to, n_from)
            if (M.rows, M.cols) != (n_to, n_from):
                raise ValueError(f"differential at degree {q} has wrong shape")
            self.differential[q] = M
        self._check_dd()
        self._homology_cache: HomologyResult | None = None

    def _check_dd(self):
        lo, hi = self.window
        for q in range(lo + 2, hi + 1):
            prod = self.differential[q - 1].matmul(self.differential[q])
            if not prod.is_zero():
                raise ValueError(f"d ∘ d != 0 from degree {q}")

    def d(self, q: int) -> RationalMatrix:
        return self.differential[q]

    def d_columns(self, q: int) -> dict:
        """label -> sparse column {row: value} of d_q, read in one pass;
        empty outside the window."""
        if q not in self.differential:
            return {}
        return dict(zip(self.space.labels(q), self.differential[q].columns()))

    def dim(self, q: int) -> int:
        return self.space.dim(q)

    def reliable(self, q: int) -> bool:
        lo, hi = self.window
        if q < lo or q > hi:
            return False
        if q == lo and not self.complete_below:
            return False
        if q == hi and not self.complete_above:
            return False
        return True

    def apply_d(self, q: int, v: Sequence) -> Vector:
        return self.differential[q].matvec(v)

    def homology(self) -> "HomologyResult":
        if self._homology_cache is None:
            self._homology_cache = homology(self)
        return self._homology_cache


@dataclass
class DegreeHomology:
    dim: int
    representatives: list  # list of Vectors (cycle chains)
    reliable: bool
    # cycles modulo boundaries with the representatives chosen above
    _quotient: Subquotient = field(repr=False)

    def class_coordinates(self, v: Sequence) -> Vector:
        """Coordinates of the cycle v over the representatives, modulo
        boundaries.  Raises NotACycle when v is not a cycle and
        WindowBoundary when the degree is unreliable."""
        if not self.reliable:
            raise WindowBoundary("homology at this degree is unreliable")
        try:
            return self._quotient.coords(v)
        except NoSolution:
            raise NotACycle("vector not in cycle space") from None


class HomologyResult:
    def __init__(self, complex_: ChainComplexWindow, per_degree: dict):
        self.complex = complex_
        self.per_degree = per_degree

    def degrees(self):
        return sorted(self.per_degree)

    def at(self, q: int) -> DegreeHomology:
        h = self.per_degree.get(q)
        if h is None:
            raise WindowBoundary(f"degree {q} outside computed window")
        if not h.reliable:
            raise WindowBoundary(f"homology at degree {q} is unreliable (window edge)")
        return h

    def dim(self, q: int) -> int:
        return self.at(q).dim

    def dims(self) -> dict:
        return {q: h.dim for q, h in sorted(self.per_degree.items()) if h.reliable}


def homology(C: ChainComplexWindow) -> HomologyResult:
    """Kernel-mod-image homology with explicit representative cycles.

    Each d_q is reduced once, without coordinates: its echelon rows span
    the boundaries of degree q - 1 and count rank d_q.  Only a degree with
    homology reduces d_q again for its sparse kernel; elsewhere the
    boundaries alone give the same quotient, since d o d = 0 is checked at
    construction.  Only the representatives handed out are made dense.
    """
    lo, hi = C.window
    out = {}
    image: list = []  # d_lo is the zero map out of the window
    for q in range(lo, hi + 1):
        n = C.dim(q)
        boundaries = Subquotient(n, (), C.d(q + 1).columns()).rows() if q < hi else []
        # an open lower edge has an unknown differential: no cycles there
        n_cycles = n - len(image) if q > lo or C.complete_below else 0
        cycles = row_reduce(C.d(q)).kernel() if n_cycles > len(boundaries) else []
        quotient = Subquotient(n, cycles, boundaries)
        out[q] = DegreeHomology(
            dim=quotient.dim,
            representatives=[dense(z, n) for z in quotient.representatives],
            reliable=C.reliable(q),
            _quotient=quotient,
        )
        image = boundaries
    return HomologyResult(C, out)


def is_boundary_with_witness(C: ChainComplexWindow, q: int, z: Sequence) -> Vector:
    """Return w with d w = z, or raise NotABoundary.  z must be a cycle."""
    z = vec(z)
    lo, hi = C.window
    if q > lo:
        if not is_zero_vec(C.apply_d(q, z)):
            raise NotACycle("dz != 0")
    if is_zero_vec(z):
        return zero_vec(C.dim(q + 1) if q + 1 <= hi else 0)
    if q + 1 > hi:
        if C.complete_above:
            raise NotABoundary("no chains one degree up")
        raise WindowBoundary("cannot certify boundary at window edge")
    try:
        return solve_particular(C.d(q + 1), z)
    except NoSolution:
        raise NotABoundary("cycle is not a boundary") from None


def complex_from_rule(
    basis: dict, image, complete_below: bool = True, complete_above: bool = True
) -> ChainComplexWindow:
    """The complex on a ``degree -> labels`` basis over its populated
    window, d sending a label of degree q to the ``(label, coefficient)``
    pairs of ``image(q, label)`` in degree q - 1; d o d = 0 is checked on
    construction.  An empty basis gives the zero complex at degree 0."""
    space = GradedSpace(basis)
    degrees = space.degrees()
    if not degrees:
        return ChainComplexWindow(space, {}, (0, 0))
    lo, hi = degrees[0], degrees[-1]
    diff = {}
    for q in range(lo + 1, hi + 1):
        tgt = {l: i for i, l in enumerate(space.labels(q - 1))}
        diff[q] = assemble(space.labels(q), tgt, lambda label: image(q, label))
    return ChainComplexWindow(space, diff, (lo, hi), complete_below, complete_above)


def tensor(C1: ChainComplexWindow, C2: ChainComplexWindow) -> ChainComplexWindow:
    """Tensor product complex with the signed Leibniz differential.

    Basis labels are pairs (l1, l2); d(a (x) b) = da (x) b + (-1)^|a| a (x) db.
    """
    basis: dict = {}
    deg_of: dict = {}
    for q1 in C1.space.degrees():
        for q2 in C2.space.degrees():
            q = q1 + q2
            for l1 in C1.space.labels(q1):
                for l2 in C2.space.labels(q2):
                    basis.setdefault(q, []).append((l1, l2))
                    deg_of[(l1, l2)] = (q1, q2)
    # d of each factor where it lands inside that factor's window
    d1, d2 = (
        {q: C.d_columns(q) for q in range(C.window[0] + 1, C.window[1] + 1)}
        for C in (C1, C2)
    )

    def image(q, pair):
        l1, l2 = pair
        q1, q2 = deg_of[pair]
        # da (x) b
        for r, v in d1.get(q1, {}).get(l1, {}).items():
            yield (C1.space.labels(q1 - 1)[r], l2), v
        # (-1)^{q1} a (x) db
        sign = -1 if q1 % 2 else 1
        for r, v in d2.get(q2, {}).get(l2, {}).items():
            yield (l1, C2.space.labels(q2 - 1)[r]), sign * v

    return complex_from_rule(
        basis,
        image,
        complete_below=C1.complete_below and C2.complete_below,
        complete_above=C1.complete_above and C2.complete_above,
    )
