"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import random
import time
from fractions import Fraction

import pytest

from conftest import random_complex
from operadlab.audit import convergence_audit, framed_tensor_check, standard_audit_input
from operadlab.complexes import NotABoundary, tensor
from operadlab.cosimplicial import (
    HochschildComplex,
    einfty_vs_total,
    hochschild_homology,
    mcclure_smith,
)
from operadlab.gerstenhaber import (
    bracket,
    bracket_on_classes,
    check_antisymmetry,
    check_delta_compat,
    check_jacobi,
    class_is_zero,
    is_delta_boundary,
    poisson_image_check,
    shifted_degree,
)
from operadlab.hopf import BidegreeWindow, build_so_hopf, cobar_homology
from operadlab.instances import (
    framed_multiplicative,
    poisson_multiplicative,
    poisson_operad_small,
    sphere_multiplicative,
    witness_generator,
    witness_multiplicative,
    witness_operad,
)
from operadlab.obstruction import (
    ObstructionInput,
    choice_independence,
    compare_with_d2,
    formality_baseline,
    run_pipeline,
)
from operadlab.operads import (
    OpElement,
    check_d_squared,
    check_leibniz,
    check_operad_axioms,
)


def report(num: int, title: str, ok: bool):
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {title}")
    assert ok, f"acceptance criterion {num} failed: {title}"


def free_commutative_bigraded(gens, t_max):
    """Monomial counting for a free graded-commutative algebra on
    bigraded generators; odd-total-degree generators are square-free."""

    def rec(i, budget):
        if i == len(gens):
            yield (0, 0)
            return
        p0, q0 = gens[i]
        t0 = p0 + q0
        e_max = 1 if t0 % 2 else budget // t0
        for e in range(e_max + 1):
            for (p, q) in rec(i + 1, budget - e * t0):
                yield (p + e * p0, q + e * q0)

    out: dict = {}
    for (p, q) in rec(0, t_max):
        if p + q <= t_max:
            out[(p, q)] = out.get((p, q), 0) + 1
    return out


def test_criterion_1_cobar_homology():
    t0 = time.time()
    ok = True
    for d in (5, 7):
        m = (d - 1) // 2
        gens = [(-1, 4 * i - 1) for i in range(1, m + 1)]
        expected = free_commutative_bigraded(gens, 12)
        kmax = 12 // 2 + 1
        dims = cobar_homology(
            build_so_hopf(d, "full"), BidegreeWindow(-kmax, 12 + kmax)
        )
        got = {pos: v for pos, v in dims.items() if sum(pos) <= 12}
        ok = ok and got == expected
    elapsed = time.time() - t0
    report(1, f"cobar homology d=5,7 free on [beta_i], t<=12 ({elapsed:.1f}s)",
           ok and elapsed < 5)


def test_criterion_2_sphere_hochschild():
    t0 = time.time()
    M = sphere_multiplicative(5, 8, 16)
    HH = hochschild_homology(M, 8, 16)
    window = {
        pos: v for pos, v in HH.dims.items() if pos[0] >= -5 and pos[1] <= 16
    }
    expected = {
        pos: v
        for pos, v in free_commutative_bigraded([(-2, 4), (-3, 8)], 30).items()
        if pos[0] >= -5 and pos[1] <= 16 and v
    }
    totals: dict = {}
    for (p, q), v in window.items():
        totals[p + q] = totals.get(p + q, 0) + v
    expected_totals: dict = {}
    for (p, q), v in expected.items():
        expected_totals[p + q] = expected_totals.get(p + q, 0) + v
    ok = (
        window == expected
        and totals == expected_totals
        and window.get((-2, 4)) == 1
        and window.get((-3, 8)) == 1
    )
    elapsed = time.time() - t0
    report(2, f"sphere Hochschild d=5 window p>=-5 q<=16 = Q[x](x){{x,x}} "
              f"({elapsed:.1f}s)", ok and elapsed < 60)


def test_criterion_3_gerstenhaber_suite():
    from operadlab.instances import sphere_operad

    S = sphere_operad(5, max_arity=4)
    elems = [
        OpElement.basis(n, l)
        for n in (1, 2, 3, 4)
        for q, labs in sorted(S.basis_by_degree(n).items())
        for l in labs
    ]
    anti_ok = True
    for x in elems:
        for y in elems:
            if x.arity + y.arity - 1 > 4:
                continue
            sx, sy = shifted_degree(S, x), shifted_degree(S, y)
            lhs = bracket(S, x, y) + bracket(S, y, x).scale((-1) ** ((sx * sy) % 2))
            anti_ok = anti_ok and lhs.is_zero()
    triples = [
        (x, y, z)
        for x in elems
        for y in elems
        for z in elems
        if x.arity + y.arity + z.arity - 2 <= 4
    ]
    jac = check_jacobi(S, triples)
    M5 = sphere_multiplicative(5, 5)
    compat = check_delta_compat(
        M5,
        [
            OpElement.basis(n, l)
            for n in (1, 2, 3, 4)
            for q, labs in sorted(M5.operad.basis_by_degree(n).items())
            for l in labs
        ],
    )
    Mw = sphere_multiplicative(5, 5, 12)
    HH = hochschild_homology(Mw, 5, 12)
    ca = HH.classes_at(-2, 4)[0]
    cc = bracket_on_classes(Mw, HH, ca, ca)
    closed_nonboundary = not class_is_zero(HH, cc)
    try:
        is_delta_boundary(HH, cc)
        closed_nonboundary = False
    except NotABoundary:
        pass
    poisson_ok = poisson_image_check(5).ok and poisson_image_check(7).ok
    ok = (
        anti_ok
        and jac.ok
        and jac.checked > 100
        and compat.ok
        and compat.checked > 50
        and closed_nonboundary
        and poisson_ok
    )
    report(3, "Gerstenhaber suite: antisymmetry, Jacobi, coboundary "
              "compatibility, {a,a} class, Poisson image", ok)


def test_criterion_4_framed_splitting():
    rep = framed_tensor_check(5, 5, 12)
    ok = rep.ok and len(rep.framed_dims) >= 10
    report(4, "framed second page = base (x) loop-class convolution, "
              "with the vanishing line", ok)


def test_criterion_5_convergence_audit():
    ok = True
    for d, m in ((5, 2), (7, 3)):
        forced = convergence_audit(standard_audit_input(d))
        ok = ok and len(forced) == 1
        f = forced[0]
        ok = ok and (f.r, f.source, f.target) == (
            2, (-1, 4 * m - 1), (-3, 4 * m)
        )
    report(5, "convergence audit d=5,7: unique forced page-2 differential "
              "(-1,4m-1) -> (-3,4m)", ok)


def test_criterion_6_obstruction_pipeline():
    t0 = time.time()
    ok = True
    for m in (2, 3):
        M = witness_multiplicative(m)
        inp = ObstructionInput(M, witness_generator(M.operad, "g"), m)
        res = run_pipeline(inp)
        ok = ok and M.operad.differential(res.omega).is_zero()
        ok = ok and res.nonzero
        ok = ok and compare_with_d2(inp, res).equal
    Mp = witness_multiplicative(2, padded=True)
    inp = ObstructionInput(Mp, witness_generator(Mp.operad, "g"), 2)
    rep = choice_independence(inp, trials=10, rng=random.Random(6))
    ok = ok and rep.ok and rep.h_cycle_dim >= 1 and rep.xi_cycle_dim >= 1
    elapsed = time.time() - t0
    report(6, f"obstruction pipeline m=2,3: cycle, nonzero class, page-2 "
              f"agreement, 10-trial independence ({elapsed:.1f}s)",
           ok and elapsed < 10)


def test_criterion_7_formality_baseline():
    ok = True
    for M in (
        sphere_multiplicative(5, 3, 9),
        framed_multiplicative(5, 3, 9),
        poisson_multiplicative(5),
    ):
        res = formality_baseline(M, 2)
        ok = ok and not res.nonzero
    report(7, "formality baseline: h = xi = 0 gives zero class on every "
              "zero-differential instance", ok)


def test_criterion_8_structural_suite():
    from operadlab.instances import sphere_operad

    ok = True
    instances = [
        sphere_multiplicative(5, 4),
        sphere_multiplicative(7, 3),
        framed_multiplicative(5, 3, 8),
        poisson_multiplicative(5),
        poisson_multiplicative(7),
        witness_multiplicative(2),
        witness_multiplicative(2, padded=True),
        witness_multiplicative(3),
    ]
    for M in instances:
        ok = ok and check_operad_axioms(M.operad, samples=300).ok
        if M.operad.has_differential():
            ok = ok and check_d_squared(M.operad).ok
            ok = ok and check_leibniz(M.operad).ok
    # cosimplicial identities
    for M in (sphere_multiplicative(5, 4, 8), witness_multiplicative(2)):
        X = mcclure_smith(M, min(4, M.operad.max_arity))
        ok = ok and X.check_coface_identities(q_max=8) == []
        ok = ok and X.check_cofaces_chain_maps() == []
        if X.codegeneracy is not None:
            ok = ok and X.check_codegeneracy_identities(q_max=8) == []
    # stable page vs total homology on chain instances
    for M in (witness_multiplicative(2), witness_multiplicative(2, padded=True)):
        H = HochschildComplex(mcclure_smith(M), q_max=10)
        rows = einfty_vs_total(H)
        ok = ok and bool(rows) and all(s == t for _, s, t in rows)
    # randomized small complexes: homology oracle and Kunneth
    rng = random.Random(99)
    count = 0
    for _ in range(110):
        C, expected = random_complex(rng, max_deg=3)
        H = C.homology()
        ok = ok and {q: H.per_degree[q].dim for q in expected} == expected
        count += 1
    for _ in range(20):
        A, ha = random_complex(rng, max_deg=2)
        B, hb = random_complex(rng, max_deg=2)
        HT = tensor(A, B).homology()
        for t in range(0, 5):
            conv = sum(ha.get(i, 0) * hb.get(t - i, 0) for i in range(t + 1))
            got = HT.per_degree[t].dim if t in HT.per_degree else 0
            ok = ok and got == conv
    report(8, f"structural suite on {len(instances)} instances and "
              f"{count}+ randomized complexes", ok and count >= 100)
