"""Deformation-obstruction pipeline for multiplicative chain operads.

Given a chain operad with an associative degree-0 cycle nu in O(2) and a
cycle g in O(1) of odd degree 4m-1, the pipeline solves

    d h  = nu o2 g + nu o1 g - g o1 nu        (h  in O(2)_{4m})
    d xi = nu o2 nu - nu o1 nu                (xi in O(3)_1)

and forms the obstruction chain

    omega  = omega1 - omega2
    omega1 = nu o2 h - h o1 nu + h o2 nu - nu o1 h
    omega2 = g o1 xi + xi o1 g + xi o2 g + xi o3 g

which is a d-cycle; its class lives in the quotient of H_{4m}(O(3)) by
the bracket-with-nu image of H_{4m}(O(2)).  A nonzero class obstructs
any zero-differential model of the operad; on hosts with zero
differential, h = xi = 0 is admissible and the class vanishes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .complexes import WindowBoundary, is_boundary_with_witness
from .cosimplicial import HochschildComplex, mcclure_smith, zigzag_dr
from .gerstenhaber import bracket
from .instances import (
    MultiplicativeStructure,
    arity_complex,
    element_to_vector,
    vector_to_element,
)
from .linalg import QuotientSpace, kernel_basis
from .operads import OpElement, Operad, chain_to_sparse, chain_to_vector, combine, vector_to_chain


class ObstructionInput:
    """Host operad with its multiplication nu and odd-degree cycle g."""

    def __init__(self, M: MultiplicativeStructure, g: OpElement, m: int):
        op = M.operad  # nu is a cycle already, by MultiplicativeStructure
        if not g.is_zero():
            if not op.differential(g).is_zero():
                raise ValueError("g must be a cycle")
            q = op.element_degree(1, g)
            if q != 4 * m - 1:
                raise ValueError(f"g must sit in degree {4 * m - 1}, got {q}")
        self.M = M
        self.g = g
        self.m = m

    @property
    def operad(self) -> Operad:
        return self.M.operad

    @property
    def nu(self) -> OpElement:
        return self.M.mult

    @cached_property  # every omega on this input reads the same three values
    def h_rhs(self) -> OpElement:
        """nu o2 g + nu o1 g - g o1 nu, which d h must equal."""
        nu, g = self.nu, self.g
        return self.operad.compose_sum([(1, nu, 2, g), (1, nu, 1, g), (-1, g, 1, nu)])

    @cached_property
    def associator(self) -> OpElement:
        """nu o2 nu - nu o1 nu, which d xi must equal."""
        nu = self.nu
        return self.operad.compose_sum([(1, nu, 2, nu), (-1, nu, 1, nu)])

    @cached_property
    def _target(self):
        """(H_{4m}(O(3)), its quotient by {nu,-} H_{4m}(O(2)) (the chain map
        {nu,-} acts on classes), the label index of O(3)_{4m}), or None when
        O(3) has no class in degree 4m.  Both degrees are read with ``at``, so
        a WindowBoundary (the window cannot certify degree 4m) is raised on every call."""
        op, q = self.operad, 4 * self.m
        hom3 = arity_complex(op, 3).homology().at(q)
        if hom3.dim == 0:
            return None
        index = {l: k for k, l in enumerate(op.arity_degree_basis(3, q))}
        span = []
        for rep in arity_complex(op, 2).homology().at(q).representatives:
            img = bracket(op, self.nu, vector_to_element(op, 2, q, rep))
            span.append(hom3.class_coordinates(chain_to_sparse(img, index)))
        return hom3, QuotientSpace(hom3.dim, span), index


class ObstructionResult(NamedTuple):
    h: OpElement
    xi: OpElement
    omega: OpElement
    class_coords: list  # coordinates in the quotient
    quotient_dim: int
    nonzero: bool


def _solve_primitive(op: Operad, n: int, q: int, rhs: OpElement) -> OpElement:
    """One x in O(n)_q with d x = rhs (rhs a cycle in degree q-1); a
    NoSolution (NotACycle or NotABoundary) if none."""
    b = element_to_vector(op, rhs, q - 1)
    return vector_to_element(op, n, q, is_boundary_with_witness(arity_complex(op, n), q - 1, b))


def _cycle_basis(op: Operad, n: int, q: int) -> list[OpElement]:
    """Basis of the d-cycles in O(n)_q as elements."""
    C = arity_complex(op, n)
    if C.dim(q) == 0:
        return []
    return [vector_to_element(op, n, q, v) for v in kernel_basis(C.d(q))]


def find_h(inp: ObstructionInput) -> OpElement:
    """Solve d h = nu o2 g + nu o1 g - g o1 nu; NoSolution is a
    precondition violation (the bracket of g and nu is not trivialized)."""
    return _solve_primitive(inp.operad, 2, 4 * inp.m, inp.h_rhs)


def find_xi(inp: ObstructionInput) -> OpElement:
    """Solve d xi = nu o2 nu - nu o1 nu; zero when nu is strictly
    associative."""
    return _solve_primitive(inp.operad, 3, 1, inp.associator)


def omega_chain(inp: ObstructionInput, h: OpElement, xi: OpElement) -> OpElement:
    """omega = omega1 - omega2, one sum of its eight composites."""
    nu, g = inp.nu, inp.g
    return inp.operad.compose_sum([
        (1, nu, 2, h), (-1, h, 1, nu), (1, h, 2, nu), (-1, nu, 1, h),
        (-1, g, 1, xi), (-1, xi, 1, g), (-1, xi, 2, g), (-1, xi, 3, g),
    ])


def _quotient_reduce(inp: ObstructionInput, z: OpElement):
    """Coordinates of a d-cycle z in H_{4m}(O(3)) / {nu,-} H_{4m}(O(2)).

    Returns (coords, quotient_dim).
    """
    target = inp._target
    if target is None:
        return [], 0
    hom3, Q, index = target
    coords = Q.reduce(hom3.class_coordinates(chain_to_sparse(z, index)))
    return coords, len(Q.representatives)


def omega(inp: ObstructionInput, h: OpElement, xi: OpElement) -> ObstructionResult:
    """Build omega from the given witnesses and locate its class."""
    op = inp.operad
    if op.has_differential():
        if op.differential(h) != inp.h_rhs:
            raise ValueError("h does not trivialize the bracket of g with nu")
        if op.differential(xi) != inp.associator:
            raise ValueError("xi does not trivialize the associator of nu")
    w = omega_chain(inp, h, xi)
    if op.has_differential() and not op.differential(w).is_zero():
        raise ValueError("omega is not a cycle: witnesses violate their equations")
    coords, qdim = _quotient_reduce(inp, w)
    return ObstructionResult(
        h=h,
        xi=xi,
        omega=w,
        class_coords=list(coords),
        quotient_dim=qdim,
        nonzero=any(c != 0 for c in coords),
    )


def run_pipeline(inp: ObstructionInput) -> ObstructionResult:
    return omega(inp, find_h(inp), find_xi(inp))


# -- choice independence ------------------------------------------------------


class ChoiceReport(NamedTuple):
    trials: int
    h_cycle_dim: int
    xi_cycle_dim: int
    h1_vanishes: bool  # hypothesis H_1(O(3)) = 0 for xi-independence
    h_classes_equal: bool
    xi_classes_equal: bool | None  # None when not asserted (hypothesis fails)
    baseline: ObstructionResult | None = None

    @property
    def ok(self) -> bool:
        if not self.h_classes_equal:
            return False
        if self.h1_vanishes and self.xi_classes_equal is False:
            return False
        return True


def _random_combination(cycles, rng) -> OpElement | None:
    if not cycles:
        return None
    ks = [rng.randint(-3, 3) for _ in cycles]
    terms = ((l, k * c) for k, z in zip(ks, cycles) for l, c in z.coeffs)
    out = OpElement.make(cycles[0].arity, combine(terms))
    return None if out.is_zero() else out


def choice_independence(
    inp: ObstructionInput, trials: int = 10, rng=None
) -> ChoiceReport:
    """Re-run the pipeline with h and xi perturbed by random cycles.

    The class must not move under h -> h + cycle.  Independence of xi is
    only asserted when H_1(O(3)) is a certified zero; otherwise the report
    flags the failed hypothesis and leaves ``xi_classes_equal`` None.
    """
    rng = rng or random.Random(0)
    op = inp.operad
    h0, xi0 = find_h(inp), find_xi(inp)
    base = omega(inp, h0, xi0)
    h_cycles = _cycle_basis(op, 2, 4 * inp.m)
    xi_cycles = _cycle_basis(op, 3, 1)
    try:
        h1_vanishes = arity_complex(op, 3).homology().at(1).dim == 0
    except WindowBoundary:
        h1_vanishes = False

    h_equal = True
    xi_equal = True
    for _ in range(trials):
        zh = _random_combination(h_cycles, rng)
        if zh is not None:
            r = omega(inp, h0 + zh, xi0)
            if r.class_coords != base.class_coords:
                h_equal = False
        zx = _random_combination(xi_cycles, rng)
        if zx is not None:
            r = omega(inp, h0, xi0 + zx)
            if r.class_coords != base.class_coords:
                xi_equal = False
    return ChoiceReport(
        trials=trials,
        h_cycle_dim=len(h_cycles),
        xi_cycle_dim=len(xi_cycles),
        h1_vanishes=h1_vanishes,
        h_classes_equal=h_equal,
        xi_classes_equal=xi_equal if h1_vanishes else None,
        baseline=base,
    )


def g_dependence_experiment(
    inp: ObstructionInput, trials: int = 5, rng=None
) -> list[bool]:
    """Vary g by a d-boundary and report, per trial, whether the class
    moved.  Purely observational: nothing is asserted either way, since
    dependence of the class on the cycle g (not just its class) is an
    open question for this pipeline.
    """
    rng = rng or random.Random(1)
    op = inp.operad
    base = run_pipeline(inp)
    q = 4 * inp.m - 1
    C = arity_complex(op, 1)
    moved = []
    for _ in range(trials):
        if C.dim(q + 1):
            v = [Fraction(rng.randint(-2, 2)) for _ in range(C.dim(q + 1))]
            db = vector_to_element(op, 1, q, C.apply_d(q + 1, v))
        else:
            db = OpElement.zero(1)
        inp2 = ObstructionInput(inp.M, inp.g + db, inp.m)
        res = run_pipeline(inp2)
        moved.append(res.class_coords != base.class_coords)
    return moved


# -- comparison with the spectral-sequence differential -----------------------


class D2Report(NamedTuple):
    equal: bool


def compare_with_d2(inp: ObstructionInput, result: ObstructionResult | None = None) -> D2Report:
    """Check that the page-2 differential on the class of g, computed by
    the explicit zig-zag through the double complex, agrees with the
    obstruction class in the quotient.

    Requires xi = 0 (so the obstruction chain is exactly the zig-zag
    endpoint's candidate); LiftFailure propagates when a lift leaves the
    computed window.
    """
    if result is None:
        result = run_pipeline(inp)
    if not result.xi.is_zero():
        raise ValueError("comparison requires a strictly associative nu (xi = 0)")
    q = 4 * inp.m - 1
    H = HochschildComplex(mcclure_smith(inp.M, n_max=3), q_max=4 * inp.m + 1)
    z = chain_to_vector(inp.g, H.labels(1, q))
    d2_vec, _lifts = zigzag_dr(H, 1, q, z, 2)
    d2_coords, _ = _quotient_reduce(inp, vector_to_chain(3, H.labels(3, q + 1), d2_vec))
    return D2Report(list(d2_coords) == list(result.class_coords))


# -- formality baseline -------------------------------------------------------


def formality_baseline(M: MultiplicativeStructure, m: int = 2) -> ObstructionResult:
    """Zero-differential host: h = xi = 0 is admissible and the class is
    zero.  The quotient machinery still runs for real (the target space
    may be nonzero).  omega lives in O(3), so a host truncated below
    arity 3 raises WindowBoundary."""
    if M.operad.has_differential():
        raise ValueError("baseline applies to zero-differential hosts")
    if M.operad.max_arity < 3:
        raise WindowBoundary(f"omega lies in arity 3, beyond the arity cap {M.operad.max_arity}")
    inp = ObstructionInput(M, OpElement.zero(1), m)
    return omega(inp, OpElement.zero(2), OpElement.zero(3))
