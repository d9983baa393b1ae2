"""The obstruction pipeline: witnesses, quotient class, independence."""

import random
import sys
from fractions import Fraction

import pytest

from operadlab import obstruction
from operadlab.complexes import WindowBoundary
from operadlab.cosimplicial import HochschildComplex, mcclure_smith, ss_pages
from operadlab.instances import (
    MultiplicativeStructure,
    arity_complex,
    element_to_vector,
    framed_multiplicative,
    homology_operad,
    poisson_multiplicative,
    sphere_multiplicative,
    witness_generator,
    witness_multiplicative,
)
from operadlab.linalg import NoSolution
from operadlab.obstruction import (
    ObstructionInput,
    choice_independence,
    compare_with_d2,
    find_h,
    find_xi,
    formality_baseline,
    g_dependence_experiment,
    omega,
    run_pipeline,
)
from operadlab.gerstenhaber import bracket, circle
from operadlab.hopf import BidegreeWindow, CobarComplex, build_so_hopf
from operadlab.operads import FreeChainOperad, OpElement, Operad, parse_free_operad


def witness_input(m=2, **kw):
    M = witness_multiplicative(m, **kw)
    return ObstructionInput(M, witness_generator(M.operad, "g"), m)


class TestFindWitnesses:
    @pytest.mark.parametrize("m", [2, 3])
    def test_h_is_the_generator(self, m):
        inp = witness_input(m)
        h = find_h(inp)
        assert dict(h.coeffs) == {("h", (), ()): Fraction(1)}

    def test_xi_zero_for_strictly_associative(self):
        assert find_xi(witness_input(2)).is_zero()

    def test_no_solution_without_a_primitive(self):
        op = parse_free_operad(
            "nu:2:0\ng:1:7\n", associative="nu", max_arity=3, degree_cap=18
        )
        M = MultiplicativeStructure(op, witness_generator(op, "nu"), name="no-h")
        with pytest.raises(NoSolution):
            find_h(ObstructionInput(M, witness_generator(op, "g"), 2))

    def test_synthetic_nonassociative_xi(self):
        op = parse_free_operad(
            "nu:2:0\nc:3:1\nd c = nu o2 nu - nu o1 nu\n",
            max_arity=3,
            degree_cap=8,
        )
        M = MultiplicativeStructure(op, witness_generator(op, "nu"), name="synthetic")
        xi = find_xi(ObstructionInput(M, OpElement.zero(1), 2))
        assert dict(xi.coeffs) == {("c", (), (), ()): Fraction(1)}


class TestPipeline:
    @pytest.mark.parametrize("m", [2, 3])
    def test_class_nonzero_with_cycle_omega(self, m):
        inp = witness_input(m)
        res = run_pipeline(inp)
        op = inp.operad
        assert op.differential(res.omega).is_zero()
        assert res.nonzero and res.quotient_dim == 1
        assert len(res.omega.coeffs) == 4

    def test_broken_witness_equations_rejected(self):
        inp = witness_input(2)
        with pytest.raises(ValueError):
            omega(inp, OpElement.zero(2), OpElement.zero(3))  # dh != rhs

    @pytest.mark.parametrize("m", [2, 3])
    def test_zigzag_page_two_agrees(self, m):
        inp = witness_input(m)
        rep = compare_with_d2(inp)
        assert rep.equal

    def test_pages_and_pipeline_share_one_vertical_differential(self, monkeypatch):
        """A witness host has no codegeneracies, so each Hochschild column
        is the host's arity complex: the pages, the pipeline and the page-2
        comparison read one d per arity, not copies of it."""
        inp = witness_input(3, padded=True)
        op = inp.operad
        H = HochschildComplex(mcclure_smith(inp.M, 3), q_max=26)
        ss_pages(H, 4)
        compared, zigzag_dr = [], obstruction.zigzag_dr

        def recording_zigzag(H2, *args):
            compared.append(H2)
            return zigzag_dr(H2, *args)

        monkeypatch.setattr(obstruction, "zigzag_dr", recording_zigzag)
        assert compare_with_d2(inp).equal
        for K in (H, *compared):
            assert K.positions()
            for n, q in K.positions():
                assert K.d_mat(n, q) is arity_complex(op, n).d(q), (n, q)
        assert len(compared) == 1 and compared[0] is not H


def _counting(f, calls, caller=None):
    """f, recording its arguments in calls whenever the calling function's
    name is caller (or always, when caller is None)."""

    def wrapped(*args):
        if caller is None or sys._getframe(1).f_code.co_name == caller:
            calls.append(args)
        return f(*args)

    return wrapped


class TestSolveOnceQueryMany:
    def test_cli_path_builds_each_target_label_and_key_once(self, monkeypatch):
        """The obstruction command's path on padded-witness m=3: the
        pipeline, the page-2 comparison and ten choice trials build the
        target quotient once, expand each label's differential once and
        graft each composition key once."""
        brackets, quotients, asked, expansions, keys, grafts = [], [], [], [], [], []
        monkeypatch.setattr(obstruction, "bracket", _counting(obstruction.bracket, brackets))
        monkeypatch.setattr(
            obstruction, "QuotientSpace", _counting(obstruction.QuotientSpace, quotients)
        )
        free = FreeChainOperad
        diff_basis, compose_basis = free.diff_basis, free.compose_basis

        def compose(op, m, xl, i, n, yl):
            out = compose_basis(op, m, xl, i, n, yl)
            keys.append((xl, i, yl))  # a key past the cap raises before this
            return out

        monkeypatch.setattr(free, "diff_basis", _counting(diff_basis, asked))
        monkeypatch.setattr(free, "compose_basis", compose)
        monkeypatch.setattr(free, "_leibniz", _counting(free._leibniz, expansions, "diff_basis"))
        monkeypatch.setattr(free, "_graft", _counting(free._graft, grafts, "compose_basis"))
        inp = witness_input(3, padded=True)  # a new host: every cache starts empty

        res = run_pipeline(inp)
        assert compare_with_d2(inp, res).equal
        assert choice_independence(inp, trials=10, rng=random.Random(0)).ok

        assert len(brackets) == 1 and len(quotients) == 1
        labels = list(dict.fromkeys(label for _, _, label in asked))
        assert len(asked) > len(labels) == len(expansions)
        assert [label for _, label, _ in expansions] == labels
        assert len(keys) > len(set(keys)) == len(grafts)
        assert [(xl, i, yl) for _, xl, i, yl in grafts] == list(dict.fromkeys(keys))

    def test_uncertified_target_raises_on_every_query(self):
        """With the degree cap at 4m, the O(3) window cannot certify degree
        4m: every omega raises WindowBoundary, none is answered from a cache."""
        op = parse_free_operad(
            "nu:2:0\ng:1:7\nh:2:8\nd h = nu o2 g + nu o1 g - g o1 nu\n",
            associative="nu", max_arity=3, degree_cap=8,
        )
        M = MultiplicativeStructure(op, witness_generator(op, "nu"), name="capped")
        inp = ObstructionInput(M, witness_generator(op, "g"), 2)
        h, xi = find_h(inp), find_xi(inp)
        for _ in range(2):
            with pytest.raises(WindowBoundary):
                omega(inp, h, xi)


def _omega_reference(inp, h, xi):
    """omega = omega1 - omega2 composite by composite, summed with element
    arithmetic: the reference for omega_chain."""
    op, nu, g = inp.operad, inp.nu, inp.g
    omega1 = (
        op.compose(nu, 2, h)
        - op.compose(h, 1, nu)
        + op.compose(h, 2, nu)
        - op.compose(nu, 1, h)
    )
    omega2 = (
        op.compose(g, 1, xi)
        + op.compose(xi, 1, g)
        + op.compose(xi, 2, g)
        + op.compose(xi, 3, g)
    )
    return omega1 - omega2


def test_omega_chain_is_the_chained_expression():
    """On padded-witness m=3, omega_chain equals the reference on the
    pipeline's h and xi and on ten seeded perturbations by rational
    combinations of cycles, five of h and five of xi."""
    inp = witness_input(3, padded=True)
    res = run_pipeline(inp)
    op, rng = inp.operad, random.Random(32)
    witnesses = [(res.h, res.xi)]
    for k in range(10):
        cycles = obstruction._cycle_basis(op, *((2, 12) if k % 2 else (3, 1)))
        z = OpElement.zero(cycles[0].arity)
        for c in cycles:
            z = z + c.scale(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3))))
        witnesses.append((res.h + z, res.xi) if k % 2 else (res.h, res.xi + z))
    for h, xi in witnesses:
        w = obstruction.omega_chain(inp, h, xi)
        assert w == _omega_reference(inp, h, xi) and not w.is_zero()


def test_each_signed_sum_is_made_once(monkeypatch):
    """circle, bracket, h_rhs, associator and omega_chain each make one
    compose_sum call, and omega_chain one element; no delta_mat of sphere
    d=5, n <= 8, q <= 16 or framed d=5, n <= 6, q <= 16 calls combine, since
    assemble alone sums the host's delta terms."""
    sums, made, combined = [], [], []
    monkeypatch.setattr(Operad, "compose_sum", _counting(Operad.compose_sum, sums))
    make = OpElement.make
    monkeypatch.setattr(OpElement, "make", classmethod(lambda cls, *a: made.append(a) or make(*a)))

    def counts(f, *args):
        sums.clear()
        made.clear()
        f(*args)
        return len(sums), len(made)

    inp = witness_input(3, padded=True)
    h, xi = find_h(inp), find_xi(inp)
    assert counts(obstruction.omega_chain, inp, h, xi) == (1, 1)
    fresh = witness_input(3, padded=True)  # h_rhs and associator are built once per input
    assert counts(lambda: fresh.h_rhs)[0] == counts(lambda: fresh.associator)[0] == 1
    S = sphere_multiplicative(5, 4).operad
    assert counts(circle, S, S.alpha(), S.alpha())[0] == 1
    assert counts(bracket, S, S.alpha(), S.alpha())[0] == 1

    _count_combine(monkeypatch, combined)
    for build, n_max in ((sphere_multiplicative, 8), (framed_multiplicative, 6)):
        H = HochschildComplex(mcclure_smith(build(5, n_max, 16), n_max), 16)
        combined.clear()
        assert sum(H.delta_mat(n, q).cols for n, q in H.positions()) > 500
        assert combined == [], build


def _count_combine(monkeypatch, calls):
    """Record in calls every combine call, through each operadlab module
    that binds combine."""
    combine = sys.modules["operadlab.operads"].combine
    for name, module in list(sys.modules.items()):
        if name.startswith("operadlab") and getattr(module, "combine", None) is combine:
            monkeypatch.setattr(module, "combine", _counting(combine, calls))


def test_derived_label_maps_hand_out_raw_terms(monkeypatch):
    """Each signed sum is summed once: a compose_sum of k parts (so compose,
    circle and bracket) makes one combine call, delta_on_label(n, -) one
    for all n + 2 cofaces, differential_word none (assemble sums a cobar
    column), and one omega query on padded-witness m=3 four: the two
    witness checks, omega and its cycle check.  One bracket reads each
    element's degree once."""
    combined, degrees = [], []
    inp = witness_input(3, padded=True)
    h, xi = find_h(inp), find_xi(inp)
    omega(inp, h, xi)  # builds h_rhs, associator and the target once per input
    _count_combine(monkeypatch, combined)
    element_degree = Operad.element_degree
    monkeypatch.setattr(
        Operad, "element_degree", lambda *a: degrees.append(a) or element_degree(*a)
    )

    def combines(f, *args):
        combined.clear()
        f(*args)
        return len(combined)

    S = sphere_multiplicative(5, 4).operad
    a, ab = S.alpha(), S.compose(S.alpha(), 1, S.alpha())
    assert combines(S.compose, a, 2, a) == 1
    assert combines(S.compose_sum, [(1, a, 1, a), (-1, a, 2, a), (1, a, 1, a)]) == 1
    for x, y in ((a, a), (a, ab), (ab, a)):
        assert combines(circle, S, x, y) == combines(bracket, S, x, y) == 1
        degrees.clear()
        bracket(S, x, y)
        assert len(degrees) == 2
    assert combines(omega, inp, h, xi) == 4

    for M in (sphere_multiplicative(5, 4, 8), witness_multiplicative(2)):
        X = mcclure_smith(M, 3)
        labels = [(n, l) for n in range(3) for q, ls in X.host.basis_by_degree(n).items()
                  if q <= 8 for l in ls]
        assert labels and all(combines(X.delta_on_label, n, l) == 1 for n, l in labels)
    cb = CobarComplex(build_so_hopf(5, "full"), BidegreeWindow(-4, 14))
    words = [w for ws in cb._words_by_bidegree.values() for w in ws]
    assert sum(combines(cb.differential_word, w) for w in words) == 0
    assert any(cb.differential_word(w) for w in words)


class TestChoiceIndependence:
    def test_padded_variant_ten_trials(self):
        inp = witness_input(2, padded=True)
        rep = choice_independence(inp, trials=10, rng=random.Random(11))
        assert rep.h_cycle_dim >= 1 and rep.xi_cycle_dim >= 1
        assert rep.h1_vanishes
        assert rep.h_classes_equal and rep.xi_classes_equal
        assert rep.ok and rep.baseline.nonzero

    def test_unpadded_has_single_choice(self):
        rep = choice_independence(witness_input(2), trials=3)
        assert rep.h_cycle_dim == 0 and rep.xi_cycle_dim == 0 and rep.ok

    def test_broken_h1_hypothesis_flagged(self):
        rep = choice_independence(witness_input(2, break_h1=True), trials=5)
        assert not rep.h1_vanishes
        assert rep.xi_classes_equal is None  # not asserted
        assert rep.h_classes_equal  # h-independence still holds

    def test_g_dependence_is_observational(self):
        moved = g_dependence_experiment(witness_input(2), trials=3)
        assert isinstance(moved, list) and len(moved) == 3


class TestFormalityBaseline:
    @pytest.mark.parametrize(
        "factory,m",
        [
            (lambda: sphere_multiplicative(5, 3, 9), 2),
            (lambda: framed_multiplicative(5, 3, 9), 2),
            (lambda: poisson_multiplicative(5), 2),
            (lambda: sphere_multiplicative(7, 3, 13), 3),
            (lambda: poisson_multiplicative(7), 3),
        ],
    )
    def test_zero_class_with_nontrivial_target(self, factory, m):
        res = formality_baseline(factory(), m)
        assert not res.nonzero
        assert res.quotient_dim > 0  # the quotient machinery really ran

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("padded", [False, True], ids=["plain", "padded"])
    def test_formal_model_against_the_chain_operad(self, m, padded):
        """The contrast in miniature: with the class of nu as multiplication
        the homology operad, a formal model, has a zero class, while the
        chain operad itself has a nonzero class in a quotient of the same
        dimension."""
        M = witness_multiplicative(m, padded=padded)
        op = M.operad
        H0 = arity_complex(op, 2).homology().at(0)
        coords = H0.class_coordinates(element_to_vector(op, M.mult, 0))
        nu = OpElement.make(2, {("H", 2, 0, k): c for k, c in enumerate(coords) if c})
        formal = formality_baseline(MultiplicativeStructure(homology_operad(op), nu), m)
        chain = run_pipeline(witness_input(m, padded=padded))
        assert not formal.nonzero and chain.nonzero
        assert formal.quotient_dim == chain.quotient_dim == (4 if padded else 1)

    def test_rejects_differential_hosts(self):
        with pytest.raises(ValueError):
            formality_baseline(witness_multiplicative(2), 2)


class TestInputValidation:
    def test_wrong_degree_g_rejected(self):
        M = witness_multiplicative(2)
        with pytest.raises(ValueError, match="g must sit in degree 7"):
            ObstructionInput(M, witness_generator(M.operad, "nu"), 2)
