"""Circle operation and Gerstenhaber bracket on multiplicative operads.

Elements of O(n)_q carry the shifted degree s = q - n + 1; the bracket is
a graded Lie bracket for s.  The sign of the i-th circle term is

    eps(i, x, y) = (-1)^[(n_y + 1) (q_x + n_x + i)]

and the bracket is {x,y} = x o-bar y - (-1)^{s_x s_y} y o-bar x.  This
convention is pinned by three testable requirements rather than chosen
from a reference: graded antisymmetry, graded Jacobi, and exact
compatibility delta_nu(x) = {nu, x} with the alternating coface sum, on
hosts with both even and odd internal degrees.  The test suite locks it.

Queries on classes reduce sparse ``{position: coefficient}`` maps over a
cell's label index; the one dense vector they make is a result's ``vector``.
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import is_boundary_with_witness
from .cosimplicial import (
    HochschildClass,
    HochschildHomology,
    hochschild_differential,
)
from .instances import (
    MultiplicativeStructure,
    apply_inclusion,
    poisson_inclusion,
    poisson_operad_small,
    sphere_operad,
)
from .operads import (
    AxiomReport,
    OpElement,
    Operad,
    TruncationError,
    chain_to_sparse,
    combine,
)


def shifted_degree(op: Operad, x: OpElement) -> int:
    """s = q - n + 1; the bracket has shifted degree +1."""
    q = op.element_degree(x.arity, x)
    if q is None:
        raise ValueError("shifted degree of the zero element is undefined")
    return q - x.arity + 1


def _circle_parts(x: OpElement, qx: int, y: OpElement, sign: int) -> list:
    """The ``compose_sum`` parts of sign * (x o-bar y), one per slot of x,
    for x of degree qx; x and y are nonzero."""
    nx, ny = x.arity, y.arity
    return [(-sign if (ny + 1) * (qx + nx + i) % 2 else sign, x, i, y) for i in range(1, nx + 1)]


def circle(op: Operad, x: OpElement, y: OpElement) -> OpElement:
    """Sum-over-slots circle operation with the pinned sign table."""
    if x.is_zero() or y.is_zero() or not x.arity:
        return OpElement.zero(x.arity + y.arity - 1)
    return op.compose_sum(_circle_parts(x, op.element_degree(x.arity, x), y, 1))


def bracket(op: Operad, x: OpElement, y: OpElement) -> OpElement:
    if x.is_zero() or y.is_zero():
        return OpElement.zero(x.arity + y.arity - 1)
    qx, qy = op.element_degree(x.arity, x), op.element_degree(y.arity, y)
    sign = -1 if (qx - x.arity + 1) * (qy - y.arity + 1) % 2 else 1  # (-1)^{s_x s_y}
    return op.compose_sum(_circle_parts(x, qx, y, 1) + _circle_parts(y, qy, x, -sign))


# -- exhaustive checks -------------------------------------------------------


def _sign(op: Operad, x: OpElement, y: OpElement) -> int:
    """(-1)^{s_x s_y}; a ValueError for an element without a shifted degree."""
    return (-1) ** ((shifted_degree(op, x) * shifted_degree(op, y)) % 2)


def check_antisymmetry(op: Operad, elems) -> AxiomReport:
    """{x,y} + (-1)^{s_x s_y} {y,x} = 0."""
    report = AxiomReport()
    for x in elems:
        for y in elems:
            sign = _sign(op, x, y)
            report.record("antisymmetry", (x.coeffs, y.coeffs), lambda: (
                bracket(op, x, y) + bracket(op, y, x).scale(sign)
            ))
    return report


def check_jacobi(op: Operad, triples) -> AxiomReport:
    """(-1)^{s_x s_z} {x,{y,z}} + cyclic = 0 on the given triples."""
    report = AxiomReport()
    for x, y, z in triples:
        s1, s2, s3 = _sign(op, x, z), _sign(op, y, x), _sign(op, z, y)
        report.record("jacobi", (x.coeffs, y.coeffs, z.coeffs), lambda: (
            bracket(op, x, bracket(op, y, z)).scale(s1)
            + bracket(op, y, bracket(op, z, x)).scale(s2)
            + bracket(op, z, bracket(op, x, y)).scale(s3)
        ))
    return report


def check_pre_lie(op: Operad, triples) -> AxiomReport:
    """Circle associator graded-symmetric in the last two arguments."""
    report = AxiomReport()

    def associator(x, y, z):
        return circle(op, circle(op, x, y), z) - circle(op, x, circle(op, y, z))

    for x, y, z in triples:
        sign = _sign(op, y, z)
        report.record("pre-lie", (x.coeffs, y.coeffs, z.coeffs), lambda: (
            associator(x, y, z) - associator(x, z, y).scale(sign)
        ))
    return report


def check_delta_compat(M: MultiplicativeStructure, elems) -> AxiomReport:
    """delta_nu(x) = {nu, x} exactly, for every sampled element."""
    report = AxiomReport()
    for x in elems:
        report.record("delta-compat", (x.coeffs,), lambda: (
            hochschild_differential(M, x) - bracket(M.operad, M.mult, x)
        ))
    return report


def check_bracket_derivation(op: Operad, pairs) -> AxiomReport:
    """Whether d{x,y} = {dx,y} + (-1)^{s_x+1} {x,dy} holds.

    The bracket is not expected to be a (anti)derivation for the internal
    differential; this check reports where the property fails instead of
    assuming either outcome.  A pair without shifted degrees is skipped.
    """
    report = AxiomReport()
    d = op.differential

    def residual(x, y):
        try:
            sign = (-1) ** ((shifted_degree(op, x) + 1) % 2)
            rhs = bracket(op, d(x), y) + bracket(op, x, d(y)).scale(sign)
            return d(bracket(op, x, y)) - rhs
        except ValueError as exc:
            raise TruncationError(exc) from exc

    for x, y in pairs:
        report.record("derivation", (x.coeffs, y.coeffs), lambda: residual(x, y))
    return report


# -- bracket on Hochschild classes -------------------------------------------


def bracket_on_classes(
    M: MultiplicativeStructure,
    HH: HochschildHomology,
    c1: HochschildClass,
    c2: HochschildClass,
) -> HochschildClass:
    """Induced bracket of two Hochschild classes (zero-differential host).

    The chain-level bracket of delta-closed normalized representatives is
    delta-closed and normalized; the result is reduced to the canonical
    representatives of its bidegree, read from ``HH.at``, as sparse maps
    (only the result's ``vector`` is dense).  Raises WindowBoundary when the
    window cannot certify that bidegree, NotACycle for a non-cycle, and
    KeyError naming a label outside the cell.
    """
    n = c1.arity + c2.arity - 1
    q = c1.q + c2.q
    hom = HH.at(-n, q)
    z = chain_to_sparse(bracket(M.operad, c1.element, c2.element), HH.complex.index(n, q))
    coords = hom.class_coordinates(z)
    rep = combine((k, c * x) for c, r in zip(coords, hom.quotient.representatives) if c
                  for k, x in r.items())
    return HochschildClass.of(HH.complex, n, q, rep)


def class_is_zero(HH: HochschildHomology, c: HochschildClass) -> bool:
    """Whether c is the zero class, read off its ``element`` through the
    cell's label index (``vector`` and ``element`` are two views of one
    chain); raises as ``bracket_on_classes`` does."""
    hom, index = HH.at(c.p, c.q), HH.complex.index(c.arity, c.q)
    return not any(hom.class_coordinates(chain_to_sparse(c.element, index)))


def is_delta_boundary(HH: HochschildHomology, c: HochschildClass):
    """Witness w with delta(w) = representative, or NotABoundary."""
    C = HH.complex.complex_in_p(c.q)
    return is_boundary_with_witness(C, -c.arity, c.vector)


# -- Poisson inclusion check -------------------------------------------------


class PoissonImageReport(NamedTuple):
    d: int
    nonzero: bool
    matches_sphere: bool

    @property
    def ok(self) -> bool:
        return self.nonzero and self.matches_sphere


def poisson_image_check(d: int, corrupt: bool = False) -> PoissonImageReport:
    """{b,b} in the arity-3 Poisson table maps to the sphere-side {alpha,
    alpha} under the inclusion, and is nonzero.

    ``corrupt`` replaces the image of one iterated-bracket generator so
    the image collapses (negative control).
    """
    P = poisson_operad_small(d)
    S = sphere_operad(d, max_arity=3)
    incl = dict(poisson_inclusion(d))
    if corrupt:
        incl[(3, "J2")] = dict(incl[(3, "J1")])
    b = OpElement.basis(2, "b")
    image = apply_inclusion(incl, bracket(P, b, b))
    return PoissonImageReport(
        d=d,
        nonzero=not image.is_zero(),
        matches_sphere=(image - bracket(S, S.alpha(), S.alpha())).is_zero(),
    )
