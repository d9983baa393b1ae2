"""Degree-count convergence audit for the framed second page.

The second page of the framed semicosimplicial spectral sequence is a
free graded-commutative algebra on a short list of bigraded generators;
the abutment is a free commutative algebra on even-degree generators.
Whenever a total degree carries more second-page classes than the
abutment can absorb, some differential must kill the surplus.
``forced_differentials`` reads one such table, enumerates every candidate
(page, source, target) compatible with the bidegree shift (-r, r-1) and
the permanent-cycle marks, and reports the forced differential when
exactly one candidate survives — or raises ``InconclusiveAudit`` listing
the survivors instead of guessing.
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import totals_by_degree
from .hopf import BidegreeWindow, build_so_hopf, cobar_homology

# the last page on which the audit looks for a forced differential
PAGE_MAX = 10


class AlgebraGenerator(NamedTuple):
    """A multiplicative generator of the second page.

    ``permanent`` marks classes known to survive to the abutment (they
    restrict from a degenerate edge of the diagram of objects); they are
    never proposed as dying classes, differential sources, or targets.
    """

    name: str
    p: int
    q: int
    permanent: bool = False

    @property
    def total(self) -> int:
        return self.p + self.q

    @property
    def square_free(self) -> bool:
        return self.total % 2 == 1


class AuditInput:
    def __init__(self, e2_generators: tuple, abutment_degrees: tuple, t_max: int):
        for g in e2_generators:
            if g.total <= 0 or g.p > 0:
                raise ValueError(f"generator {g.name} has invalid bidegree")
        for t in abutment_degrees:
            if t <= 0 or t % 2:
                raise ValueError("abutment generators must have positive even degree")
        self.e2_generators = e2_generators
        self.abutment_degrees = abutment_degrees  # even total degrees of polynomial generators
        self.t_max = t_max


class _Differential(NamedTuple):
    r: int
    source: tuple  # (p, q)
    target: tuple  # (p, q)
    reason: str


class ForcedDifferential(_Differential):
    # a NamedTuple body may not define __new__, so the check is a subclass's
    __slots__ = ()

    def __new__(cls, r: int, source: tuple, target: tuple, reason: str):
        (sp, sq), (tp, tq) = source, target
        if (tp - sp, tq - sq) != (-r, r - 1):
            raise ValueError("differential shift must be (-r, r-1)")
        return super().__new__(cls, r, source, target, reason)


class InconclusiveAudit(Exception):
    """No candidate differential, or more than one, survives."""

    def __init__(self, candidates):
        self.candidates = list(candidates)
        super().__init__(f"{len(self.candidates)} candidates remain: {self.candidates}")


def _counts(gens, t_max: int) -> dict:
    """Monomials per bidegree (p, q) of the free algebra on ``gens`` with
    t <= t_max: one bidegree convolution per generator, the last first, so
    each position is keyed in at its smallest exponent tuple."""
    table = {(0, 0): 1} if t_max >= 0 else {}  # the unit has degree 0
    for g in reversed(gens):
        new = dict(table)
        for e in range(1, (1 if g.square_free else t_max // g.total) + 1):
            for (p, q), n in table.items():
                if p + q + e * g.total <= t_max:
                    pos = (p + e * g.p, q + e * g.q)
                    new[pos] = new.get(pos, 0) + n
        table = new
    return table


def e2_positions(inp: AuditInput) -> tuple[dict, set]:
    """The free algebra's bigraded dimensions (p, q) -> dim for t <= t_max,
    and the bidegrees where the permanent generators alone count every
    monomial: the whole position survives and is off-limits to the
    enumeration."""
    table = _counts(inp.e2_generators, inp.t_max)
    kept = _counts([g for g in inp.e2_generators if g.permanent], inp.t_max)
    return table, {pos for pos, n in kept.items() if n == table[pos]}


def e2_table(inp: AuditInput) -> dict:
    """Bigraded dimensions (p, q) -> dim of the free algebra, t <= t_max."""
    return e2_positions(inp)[0]


def abutment_dims(inp: AuditInput) -> dict:
    """Total-degree dimensions of the polynomial abutment, t <= t_max."""
    dims = {0: 1}
    for t0 in inp.abutment_degrees:
        new = dict(dims)
        for t in range(t0, inp.t_max + 1):
            new[t] = new.get(t, 0) + new.get(t - t0, 0)
        dims = new
    return {t: d for t, d in dims.items() if t <= inp.t_max}


def e2_total_dims(inp: AuditInput) -> dict:
    return totals_by_degree(e2_table(inp))


def forced_differentials(table: dict, permanent, abutment: dict) -> list[ForcedDifferential]:
    """Forced differentials resolving the lowest-degree surplus of a
    trusted table (p, q) -> dim over the abutment's totals t -> dim.

    A mortal class (nonzero, not in ``permanent``) there is hit from
    (p + r, q - r + 1) or maps onto (p - r, q + r - 1) on page r, and the
    other end must be a mortal table position with p <= 0.  Empty list
    when no total exceeds the abutment's; ``InconclusiveAudit`` unless
    exactly one candidate survives.
    """
    totals = totals_by_degree(table)
    t_star = next((t for t, n in totals.items() if n > abutment.get(t, 0)), None)
    if t_star is None:
        return []
    # in table order, which is the order of the candidates
    mortal = dict.fromkeys(pos for pos, dim in table.items() if dim > 0 and pos not in permanent)
    candidates = []
    for p, q in [pos for pos in mortal if sum(pos) == t_star]:
        for r in range(2, PAGE_MAX + 1):
            for step, how in ((1, "be hit from"), (-1, "map onto")):
                other = (p + step * r, q - step * (r - 1))
                if other[0] <= 0 and other in mortal:
                    # d_r lowers p by r, so the end with the larger p is the source
                    source, target = sorted([other, (p, q)], reverse=True)
                    candidates.append(ForcedDifferential(
                        r, source, target,
                        f"class at {(p, q)} in total degree {t_star} exceeds the "
                        f"abutment and must {how} {other} on page {r}",
                    ))
    if len(candidates) != 1:
        raise InconclusiveAudit(candidates)
    return candidates


def convergence_audit(inp: AuditInput) -> list[ForcedDifferential]:
    """``forced_differentials`` on the table of the posited generators."""
    return forced_differentials(*e2_positions(inp), abutment_dims(inp))


def standard_audit_input(d: int, t_max: int | None = None) -> AuditInput:
    """The framed second page for odd d: polynomial class x in bidegree
    (-2, d-1), its odd self-bracket in (-3, 2d-2), and one loop class of
    bidegree (-1, 4i-1) per full-rotation-group generator; abutment from
    the vector-fixing subgroup."""
    full = build_so_hopf(d, "full")
    sub = build_so_hopf(d, "fixing-subgroup")
    gens = [
        AlgebraGenerator("x", -2, d - 1, permanent=True),
        AlgebraGenerator("{x,x}", -3, 2 * (d - 1)),
    ]
    top = max(deg for _, deg in full.generators)
    for name, deg in full.generators:
        # loop classes restrict to the subgroup edge except the top one,
        # whose degree has no counterpart there
        gens.append(
            AlgebraGenerator(f"loop-{name}", -1, deg, permanent=(deg < top))
        )
    if t_max is None:
        t_max = 4 * (d - 3) + 4
    return AuditInput(
        e2_generators=tuple(gens),
        abutment_degrees=tuple(deg - 1 for _, deg in sub.generators),
        t_max=t_max,
    )


# -- framed tensor-splitting check -------------------------------------------


class TensorCheckReport(NamedTuple):
    d: int
    framed_dims: dict  # (p, q) -> dim, reliable entries in the window
    convolution_dims: dict  # same positions, base (x) loop-classes product
    mismatches: list  # positions where the two disagree
    # nonzero entries below the framed line: 2q < min(d-1, 2b)(-p), with b
    # the lowest rotation-group generator degree
    vanishing_violations: list

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.vanishing_violations


def framed_tensor_check(d: int, n_max: int = 5, q_max: int = 12) -> TensorCheckReport:
    """Bigraded second-page dimensions of the framed object against the
    convolution of the plain object's dimensions with the cobar homology
    of the rotation-group coalgebra, plus the vanishing line of the framed
    page.  Both pages are read by ``hochschild_dims``, from ranks alone.

    The plain page vanishes below 2q = (d-1)(-p), and each loop class
    (-1, b_i), b_i >= b, lies on or above 2q = 2b(-p); so the framed page,
    the plain page tensored with the loop classes, vanishes below
    2q = min(d-1, 2b)(-p).
    """
    from .cosimplicial import hochschild_dims
    from .instances import framed_multiplicative, sphere_multiplicative

    base = hochschild_dims(sphere_multiplicative(d, n_max, q_max), n_max, q_max)
    base = {pos: k for pos, k in base.items() if k}  # a zero cell adds zero-valued keys
    framed = hochschild_dims(framed_multiplicative(d, n_max, q_max), n_max, q_max)
    hopf = build_so_hopf(d, "full")
    cobar_dims = cobar_homology(hopf, BidegreeWindow(p_min=-q_max, q_max=q_max))
    conv: dict = {}
    for (p1, q1), d1 in base.items():
        for (p2, q2), d2 in cobar_dims.items():
            p, q = p1 + p2, q1 + q2
            if p >= -n_max and q <= q_max:
                conv[(p, q)] = conv.get((p, q), 0) + d1 * d2
    positions = sorted((pos for pos in framed if framed[pos] or conv.get(pos)), reverse=True)
    slope = min(d - 1, 2 * min(hopf.gen_degrees))
    return TensorCheckReport(
        d=d,
        framed_dims={pos: framed[pos] for pos in positions if framed[pos]},
        convolution_dims={pos: conv[pos] for pos in positions if pos in conv},
        mismatches=[pos for pos in positions if framed[pos] != conv.get(pos, 0)],
        vanishing_violations=[(p, q) for (p, q), k in framed.items() if k and 2 * q < slope * -p],
    )
