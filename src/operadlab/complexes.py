"""Graded spaces, chain complexes on a degree window, and homology.

A :class:`ChainComplexWindow` only knows the complex between ``deg_min``
and ``deg_max``.  Degrees at a truncated edge have spurious cycles or
missing boundaries, so homology there is flagged unreliable instead of
being reported as a number.  Past an edge the complex declares complete,
homology is a certified zero; asking for it anywhere else outside the
window, or at an unreliable degree, raises :class:`WindowBoundary`.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

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


class NotABoundary(NoSolution):
    """A cycle that should be a boundary is not one."""


class GradedSpace:
    """Ordered basis labels per degree."""

    def __init__(self, basis: dict):
        self.basis = {}  # degree -> tuple of labels
        for q, labels in basis.items():
            labels = tuple(labels)
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate labels in degree {q}")
            if labels:
                self.basis[q] = labels

    def degrees(self):
        return sorted(self.basis)

    def dim(self, q: int) -> int:
        return len(self.basis.get(q, ()))

    def labels(self, q: int):
        return self.basis.get(q, ())


def bigraded_dims(homs: dict) -> dict:
    """The (p, q) -> dim table of the reliable nonzero entries of a
    q -> HomologyResult map."""
    return {
        (p, q): h.dim
        for q, hom in homs.items()
        for p, h in hom.per_degree.items()
        if h.reliable and h.dim
    }


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


class DegreeHomology(NamedTuple):
    dim: int
    representatives: list  # list of Vectors (cycle chains)
    reliable: bool
    # cycles modulo boundaries; its representatives, sparse, are the ones above
    quotient: Subquotient

    @classmethod
    def zero(cls) -> "DegreeHomology":
        """The certified zero of a degree with no chains."""
        return cls(0, [], True, Subquotient(0, ()))

    def class_coordinates(self, v: Sequence) -> Vector:
        """Coordinates of the cycle v over the representatives, modulo
        boundaries.  Raises NotACycle when v is not a cycle and
        WindowBoundary when the degree is unreliable."""
        if not self.reliable:
            raise WindowBoundary("homology at this degree is unreliable")
        try:
            return self.quotient.coords(v)
        except NoSolution:
            raise NotACycle("vector not in cycle space") from None


class HomologyResult:
    def __init__(self, complex_: ChainComplexWindow, per_degree: dict):
        self.complex = complex_
        self.per_degree = per_degree

    def degrees(self):
        return sorted(self.per_degree)

    def at(self, q: int) -> DegreeHomology:
        """H_q where the window certifies it: the certified zero past an
        edge the complex declares complete, else WindowBoundary outside the
        window or at an unreliable degree."""
        h = self.per_degree.get(q)
        if h is None:
            C = self.complex  # per_degree holds every degree of the window
            if C.complete_below if q < C.window[0] else C.complete_above:
                return DegreeHomology.zero()
            raise WindowBoundary(f"degree {q} outside computed window")
        if not h.reliable:
            raise WindowBoundary(f"homology at degree {q} is unreliable (window edge)")
        return h

    def dim(self, q: int) -> int:
        return self.at(q).dim

    def dims(self) -> dict:
        return {q: h.dim for q, h in sorted(self.per_degree.items()) if h.reliable}


def boundary_echelons(C: ChainComplexWindow) -> dict:
    """q -> the plain echelon of d_{q+1}, whose rows are a basis of the
    boundaries of degree q and count rank d_{q+1}; empty at the top.

    Built from the top degree down with clearing: the echelon of d_{q+1}
    takes only the columns outside the pivot coordinates of the echelon
    one degree up.  Those pivots complete the boundaries of degree q + 1
    to all of C_{q+1}, and d kills the boundaries, so the kept columns
    span the whole image whatever pivot rule the elimination uses.
    """
    lo, hi = C.window
    out = {hi: Subquotient(C.dim(hi), ())}
    for q in range(hi - 1, lo - 1, -1):
        cleared = {lead for lead, _, _ in out[q + 1].pivot_rows()}
        columns = [col for j, col in enumerate(C.d(q + 1).columns()) if j not in cleared]
        out[q] = Subquotient(C.dim(q), (), columns)
    return dict(sorted(out.items()))


def _class_counts(C: ChainComplexWindow, echelons: dict) -> dict:
    """q -> dim C_q - rank d_q - rank d_{q+1} at every degree of the
    window, the ranks read off the rows of ``boundary_echelons``; 0 at an
    open lower edge, whose differential is unknown: no cycles there."""
    lo = C.window[0]
    ranks = {q + 1: len(E.rows()) for q, E in echelons.items()}  # rank d_{q+1}
    return {
        q: C.dim(q) - ranks.get(q, 0) - ranks[q + 1] if q > lo or C.complete_below else 0
        for q in echelons
    }


def homology_dims(C: ChainComplexWindow) -> dict:
    """q -> dim H_q at every reliable degree, zeros included, from the
    ranks of the clearing echelons alone: ``homology(C).dims()`` for a
    caller that reads dimensions only, with no kernel or class built."""
    return {q: k for q, k in _class_counts(C, boundary_echelons(C)).items() if C.reliable(q)}


def homology(C: ChainComplexWindow) -> HomologyResult:
    """Kernel-mod-image homology with explicit representative cycles.

    The boundaries of each degree are the plain echelon that
    :func:`boundary_echelons` builds with clearing, without coordinates;
    at a degree with no class that echelon is the quotient.  A degree q
    with a class reduces d_q again, now with coordinates, for its sparse
    kernel, and extends its echelon by the kernel vectors in order until
    it holds the dim H_q representatives that :func:`homology_dims` counts.
    Only the representatives handed out are made dense.
    """
    echelons = boundary_echelons(C)
    counts = _class_counts(C, echelons)
    out = {}
    for q, quotient in echelons.items():
        n = C.dim(q)
        if counts[q]:
            quotient.extend(row_reduce(C.d(q)).kernel(), stop=counts[q])
        out[q] = DegreeHomology(
            dim=quotient.dim,
            representatives=[dense(z, n) for z in quotient.representatives],
            reliable=C.reliable(q),
            quotient=quotient,
        )
    return HomologyResult(C, out)


def is_boundary_with_witness(C: ChainComplexWindow, q: int, z: Sequence) -> Vector:
    """Return w with d w = z, or raise NotABoundary.  z must be a cycle;
    z = 0 gives w = 0 at any degree."""
    z = vec(z)
    lo, hi = C.window
    if is_zero_vec(z):
        return zero_vec(C.dim(q + 1) if q + 1 <= hi else 0)
    if q > lo and not is_zero_vec(C.apply_d(q, z)):
        raise NotACycle("dz != 0")
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
