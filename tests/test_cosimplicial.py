"""Semicosimplicial objects, double complexes, spectral sequences."""

import random
from collections import Counter
from fractions import Fraction
from math import inf

import pytest
from conftest import reference_homology, reference_pages, reference_vanishes

from operadlab.cosimplicial import (
    HochschildComplex,
    LiftFailure,
    SemicosimplicialChainComplex,
    SpectralSequence,
    einfty_vs_total,
    hochschild_differential,
    hochschild_dims,
    hochschild_homology,
    mcclure_smith,
    ss_pages,
    total_complex,
    zigzag_dr,
)
from operadlab import complexes, cosimplicial, linalg
from operadlab.hopf import build_so_hopf
from operadlab.instances import (
    FramedOperad,
    MultiplicativeStructure,
    SphereOperad,
    arity_complex,
    framed_multiplicative,
    poisson_multiplicative,
    poisson_operad_small,
    sphere_multiplicative,
    sphere_operad,
    witness_generator,
    witness_multiplicative,
    witness_operad,
)
from operadlab.linalg import RationalMatrix, Subquotient, assemble, dense, rank
from operadlab.obstruction import ObstructionInput, compare_with_d2, run_pipeline
from operadlab.operads import ArityOverflow, OpElement, Operad, combine, parse_free_operad


@pytest.fixture(scope="module")
def sphere5():
    return sphere_multiplicative(5, 5, 12)


@pytest.fixture(scope="module")
def witness2():
    return witness_multiplicative(2)


class TestSemicosimplicialIdentities:
    def test_sphere_object(self, sphere5):
        X = mcclure_smith(sphere5, n_max=4)
        assert X.check_coface_identities(q_max=8) == []
        assert X.check_codegeneracy_identities(q_max=8) == []
        assert X.check_cofaces_chain_maps() == []

    def test_witness_object(self, witness2):
        X = mcclure_smith(witness2)
        assert X.check_coface_identities() == []
        assert X.check_cofaces_chain_maps() == []

    def test_coboundary_squares_to_zero(self, sphere5):
        H = HochschildComplex(mcclure_smith(sphere5, 4), q_max=8)
        for q in range(0, 9):
            C = H.complex_in_p(q)
            C.homology()  # constructor and homology assert d^2 = 0


def test_a_point_that_is_not_one_label_is_refused():
    """The point is one basis label with coefficient 1: twice the sphere's
    point breaks s^j d^j = id, so it is no cosimplicial structure, and
    MultiplicativeStructure refuses it, as it refuses the zero point."""
    M = sphere_multiplicative(5, 4, 8)
    for point in (M.point.scale(2), M.point.scale(0)):
        with pytest.raises(ValueError, match="point"):
            MultiplicativeStructure(M.operad, M.mult, point)
    X = mcclure_smith(M, 4)

    def doubled(n, i, label):
        return {l: 2 * c for l, c in X.codegeneracy(n, i, label).items()}

    twice = SemicosimplicialChainComplex(M.operad, 4, X.coface, doubled)
    assert X.check_codegeneracy_identities(q_max=8) == []
    assert twice.check_codegeneracy_identities(q_max=8)


def test_a_multiplication_of_the_wrong_arity_or_degree_is_refused():
    """The multiplication is an arity-2 element of degree 0: the sphere's
    alpha (degree d - 1) and an arity-3 element are refused when built."""
    M = sphere_multiplicative(5, 4, 8)
    with pytest.raises(ValueError, match="multiplication must have arity 2"):
        MultiplicativeStructure(M.operad, OpElement.basis(3, ()))
    with pytest.raises(ValueError, match="multiplication must have degree 0"):
        MultiplicativeStructure(M.operad, M.operad.alpha())


@pytest.mark.parametrize(
    "build",
    [
        lambda: sphere_multiplicative(5, 4, 8),
        lambda: framed_multiplicative(5, 4, 8),
        lambda: poisson_multiplicative(5),
        lambda: witness_multiplicative(2),
    ],
    ids=["sphere", "framed", "poisson", "witness"],
)
def test_label_maps_equal_composition_of_elements(build):
    """Cofaces, summed, and codegeneracies computed per label equal the
    element compositions they stand for, with int coefficients on every
    raw coface term, on every label with n <= 3, q <= 8; a
    result past the arity cap raises ArityOverflow on both paths."""
    M = build()
    op, mult, point = M.operad, M.mult, M.point
    X = mcclure_smith(M, min(3, op.max_arity))
    assert (X.codegeneracy is None) == (point is None)

    def labels(n):
        return [l for q, ls in op.basis_by_degree(n).items() if q <= 8 for l in ls]

    def faces(n, i, x):
        if i == 0:
            return op.compose(mult, 2, x)
        if i == n + 1:
            return op.compose(mult, 1, x)
        return op.compose(x, i, mult)

    checked = 0
    for n in range(min(3, op.max_arity) + 1):
        for label in labels(n):
            x = OpElement.basis(n, label)
            for i in range(n + 2):
                if n + 1 > op.max_arity:
                    with pytest.raises(ArityOverflow):
                        X.coface(n, i, label)
                    with pytest.raises(ArityOverflow):
                        faces(n, i, x)
                    continue
                got = X.coface(n, i, label)
                assert combine(got) == faces(n, i, x).as_dict()
                assert all(type(c) is int for _, c in got)
                checked += 1
            if point is not None and n >= 1:
                for i in range(n):
                    got = X.codegeneracy(n - 1, i, label)
                    assert got == op.compose(x, i + 1, point).as_dict()
                    assert all(type(c) is int for c in got.values())
                    checked += 1
    assert checked
    top = op.max_arity
    for label in labels(top)[:5]:
        with pytest.raises(ArityOverflow):
            X.coface(top, 1, label)
        with pytest.raises(ArityOverflow):
            faces(top, 1, OpElement.basis(top, label))


@pytest.mark.parametrize("build", [sphere_multiplicative, framed_multiplicative])
def test_certified_zero_columns_are_empty_in_a_larger_window(build):
    """Every position a small window certifies as zero, from its stored
    range or from the host's answer past it, has no normalized labels when
    a larger window computes it; and past the small window the host's
    answer is exact, so it certifies every such empty position, the
    coverage line 2q < 4n of normalized labels among them."""
    small = HochschildComplex(mcclure_smith(build(5, 3, 8), 3), q_max=8)
    large = HochschildComplex(mcclure_smith(build(5, 5, 12), 5), q_max=12)
    zeros = [(n, q) for n in range(6) for q in range(13) if small.vanishes(n, q)]
    assert [pos for pos in zeros if large.dim(*pos)] == []
    past = {(n, q) for n, q in zeros if n > 3 or q > 8}
    assert past == {
        (n, q) for n in range(6) for q in range(13) if (n > 3 or q > 8) and not large.dim(n, q)
    }
    assert {(n, q) for n in (4, 5) for q in range(13) if 2 * q < 4 * n} < past
    assert any(large.dim(n, q) for n in (4, 5) for q in range(13))


def _framed_fixing(d, n_max, cap):
    """The framed host on the fixing subgroup's Hopf algebra."""
    op = FramedOperad(sphere_operad(d, n_max, cap), build_so_hopf(d, "fixing-subgroup"))
    return MultiplicativeStructure(op, op.mu(), OpElement.basis(0, ((), ())))


@pytest.mark.parametrize(
    "build,d,n_max,q_max",
    [(sphere_multiplicative, 5, 8, 16),
     (lambda d, n_max, q_max: sphere_multiplicative(d, n_max, q_max + 8), 5, 7, 12),
     (sphere_multiplicative, 7, 6, 18),
     (sphere_multiplicative, 9, 5, 24),
     (lambda d, n_max, q_max: sphere_multiplicative(d, n_max), 7, 5, 12),
     (framed_multiplicative, 5, 6, 16),
     (framed_multiplicative, 7, 5, 14),
     (framed_multiplicative, 9, 6, 19),
     (framed_multiplicative, 7, 4, 13),
     (framed_multiplicative, 11, 8, 25),
     (_framed_fixing, 7, 5, 14),
     (lambda d, n_max, q_max: framed_multiplicative(d, n_max), 5, 3, 42)],
    ids=["sphere-d5", "sphere-d5-cap-past-q", "sphere-d7", "sphere-d9", "sphere-d7-uncapped",
         "framed-d5", "framed-d7", "framed-d9", "framed-d7-certificate",
         "framed-d11-certificate", "framed-d7-fixing-subgroup", "framed-d5-uncapped"],
)
def test_normalized_basis_is_the_codegeneracy_filter(build, d, n_max, q_max):
    """The host's normalized map is the generic filter over the whole
    basis at every degree up to the cap, label for label and in order:
    it proposes no label the filter drops and leaves out the degrees the
    filter empties; asked for degrees up to q_max it builds no other.  The
    stored columns are that map up to q_max, and the host's emptiness
    answer, which reads no label, is exactly the filter's at every degree
    up to the cap (up to the raw basis's top degree when uncapped).

    The framed host's map is declared exact and stored unconfirmed, so this
    comparison is what checks its covering rule.  It covers the framed
    certificate windows n <= d - 3, q <= 3d - 8 up to d = 11 (61,249 raw
    labels); d = 13 is left out, as its raw map has 997,514 labels and the
    filter alone takes about 6 s."""
    assert _filter_checked(mcclure_smith(build(d, n_max, q_max), n_max), q_max) > n_max


def _generic_filter(X, n: int) -> dict:
    """degree -> the labels of the raw arity-n basis that every
    codegeneracy kills, in basis order, and no degree without labels."""
    return {
        q: kept for q, labels in sorted(X.host.basis_by_degree(n).items())
        if (kept := tuple(l for l in labels if X.is_normal_label(n, l)))
    }


def _filter_checked(X, q_max: int) -> int:
    """Asserts the comparisons of the test above at every arity of X and
    returns the number of degrees compared."""
    H = HochschildComplex(X, q_max)
    op = X.host
    checked = 0
    for n in range(X.n_max + 1):
        basis = op.basis_by_degree(n)
        generic = _generic_filter(X, n)
        top = max(basis, default=0) if op.degree_cap is None else op.degree_cap
        assert op.normalized_basis(n, top) == generic, n
        window = {q: labels for q, labels in generic.items() if q <= q_max}
        assert op.normalized_basis(n, q_max) == window, n
        stored = {q: H.labels(n, q) for q in range(q_max + 1) if H.labels(n, q)}
        assert stored == window, n
        assert [q for q in range(top + 1) if op.column_vanishes(n, q) == (q in generic)] == [], n
        checked += len(generic)
    return checked


class _BareSlotsTakeTheEmptyMonomial(FramedOperad):
    """A mutated covering rule, still declared exact: a slot that no pair
    reaches may carry the empty monomial, which the point kills."""

    def normalized_basis(self, n: int, top: int) -> dict:
        return self._labels(n, top, normal=False)


class _OneVertexMayStayBare(SphereOperad):
    """A mutated sphere covering rule, declared exact: a pair-set may leave
    one vertex bare, which the point kills."""
    normalized_exact = True

    def normalized_basis(self, n: int, top: int) -> dict:
        return {
            q: kept for q, labels in self.basis_by_degree(n).items()
            if q <= top and (kept := tuple(
                l for l in labels if n - len({v for p in l for v in p}) <= 1
            ))
        }


def _assert_the_oracle_refuses(op, point, n_max: int, q_max: int) -> None:
    """The oracle comparison refuses the mutant host at arity 1, the first
    with a vertex to leave bare, and the columns stored from it,
    unconfirmed, hold every label of the generic filter and some that it
    drops."""
    X = mcclure_smith(MultiplicativeStructure(op, op.mu(), point), n_max)
    assert op.normalized_exact
    with pytest.raises(AssertionError, match=r"^1\b"):
        _filter_checked(X, q_max)
    H = HochschildComplex(X, q_max)
    extra = 0
    for n in range(n_max + 1):
        window = {q: ls for q, ls in _generic_filter(X, n).items() if q <= q_max}
        stored = {q: H.labels(n, q) for q in range(q_max + 1) if H.labels(n, q)}
        assert all(set(window.get(q, ())) <= set(ls) for q, ls in stored.items()), n
        extra += sum(map(len, stored.values())) - sum(map(len, window.values()))
    assert extra > 0


def test_a_mutated_covering_rule_fails_the_oracle():
    good = framed_multiplicative(5, 4, 12)
    op = _BareSlotsTakeTheEmptyMonomial(good.operad.base, good.operad.hopf)
    _assert_the_oracle_refuses(op, good.point, 4, 12)


def test_a_mutated_sphere_covering_rule_fails_the_oracle():
    """The sphere host's covering rule is still confirmed label by label,
    so this mutant is declared exact to reach the stored columns
    unconfirmed, as a framed one would."""
    _assert_the_oracle_refuses(_OneVertexMayStayBare(5, 4, 12), OpElement.basis(0, ()), 4, 12)


@pytest.mark.parametrize(
    "build,n_max,q_max",
    [(lambda: sphere_multiplicative(5, 6, 24), 6, 4),
     (lambda: sphere_multiplicative(7, 5, 30), 5, 6),
     (lambda: framed_multiplicative(5, 4, 16), 4, 8),
     (lambda: framed_multiplicative(7, 4, 20), 4, 9)],
    ids=["sphere-d5", "sphere-d7", "framed-d5", "framed-d7"],
)
def test_vanishing_past_q_max_is_sound(build, n_max, q_max):
    """Every position (n, q) with n <= n_max and q <= cap that a window
    certifies as zero, in the stored range or by the host's answer past
    it, has no label left by the generic filter over the host's basis;
    some of them have raw labels."""
    M = build()
    X = mcclure_smith(M, n_max)
    H = HochschildComplex(X, q_max)
    checked = 0
    for n in range(n_max + 1):
        basis = X.host.basis_by_degree(n)
        for q in range(M.operad.degree_cap + 1):
            if H.vanishes(n, q):
                assert not any(X.is_normal_label(n, l) for l in basis.get(q, ())), (n, q)
                checked += q in basis
    assert checked


@pytest.mark.parametrize(
    "op",
    [sphere_operad(5, 7, 16), sphere_operad(7, 6, 18), sphere_operad(5, 5)],
    ids=["sphere-d5", "sphere-d7", "sphere-d5-uncapped"],
)
def test_degrees_are_the_populated_degrees_of_the_basis(op):
    """The sphere's lattice of degrees, computed without labels, is the
    set of degrees where its basis has labels, one arity past the cap
    included."""
    for n in range(op.max_arity + 2):
        assert op.degrees(n) == sorted(q for q, ls in op.basis_by_degree(n).items() if ls), n


@pytest.mark.parametrize(
    "build,n_max,q_max",
    [(lambda: sphere_multiplicative(5, 6, 16), 6, 16),
     (lambda: framed_multiplicative(5, 5, 14), 5, 14)],
    ids=["sphere-d5", "framed-d5"],
)
def test_normalized_path_never_lists_the_raw_basis(build, n_max, q_max):
    """With the host's own basis_by_degree refused (a framed host's base
    stays callable), the normalized columns, their homology, four pages
    and the vanishing grid are those of an unrefused run."""

    def run(M):
        HH = hochschild_homology(M, n_max, q_max)
        H = HH.complex
        grid = [(n, q) for n in range(-1, n_max + 3) for q in range(-1, q_max + 9)]
        return (
            {pos: H.labels(*pos) for pos in H.positions()},
            HH.dims,
            ss_pages(H, 4),
            [pos for pos in grid if H.vanishes(*pos)],
        )

    def refuse(n):
        raise AssertionError(f"the raw basis of arity {n} was listed")

    M = build()
    M.operad.basis_by_degree = refuse
    got, want = run(M), run(build())
    assert got == want
    assert got[1] and any(page.differentials for page in got[2])


def _certification_windows(build, d, n_top, uncapped_top):
    """Windows n_max <= n_top, q_max in 0..3(d-1) step 2, cap q_max,
    q_max + (d-1), q_max + 2(d-1), or none when n_max <= uncapped_top."""
    for n_max in range(1, n_top + 1):
        for q_max in range(0, 3 * (d - 1) + 1, 2):
            caps = [q_max, q_max + d - 1, q_max + 2 * (d - 1)]
            for cap in caps + [None] * (n_max <= uncapped_top):
                yield build(d, n_max, cap), n_max, q_max, cap


@pytest.mark.parametrize(
    "build,d,n_top,uncapped_top",
    [(sphere_multiplicative, 5, 6, 5), (sphere_multiplicative, 7, 6, 5),
     (framed_multiplicative, 5, 4, 3), (framed_multiplicative, 7, 4, 3)],
    ids=["sphere-d5", "sphere-d7", "framed-d5", "framed-d7"],
)
def test_host_answer_certifies_no_fewer_cells_than_the_map_and_line_rule(
    build, d, n_top, uncapped_top
):
    """Against ``reference_vanishes``, the rule of a degree map to the cap
    and a coverage line past it: over cells n in -1..n_max+2 and q up to
    the cap (or q_max + 3(d-1)) plus d, the normalized columns certify
    every cell it does, and more in every window; the raw columns certify
    the same cells wherever cap = q_max.  Raw columns past q_max under a
    larger cap, which no command builds, are refused instead."""
    gained = 0
    for M, n_max, q_max, cap in _certification_windows(build, d, n_top, uncapped_top):
        top = (q_max + 3 * (d - 1) if cap is None else cap) + d
        grid = [(n, q) for n in range(-1, n_max + 3) for q in range(-1, top + 1)]
        for S in (M, MultiplicativeStructure(M.operad, M.mult)):
            H = HochschildComplex(mcclure_smith(S, n_max), q_max)
            got = {pos for pos in grid if H.vanishes(*pos)}
            ref = {pos for pos in grid if reference_vanishes(H, *pos)}
            if H.normalized:
                assert ref < got, (n_max, q_max, cap)
                gained += len(got - ref)
            elif cap == q_max:
                assert got == ref, (n_max, q_max, cap)
    assert gained


@pytest.mark.parametrize(
    "build,d,n_max,q_max",
    [(sphere_multiplicative, 5, 7, 16),
     (sphere_multiplicative, 7, 6, 18),
     (framed_multiplicative, 5, 5, 14),
     (framed_multiplicative, 7, 5, 14),
     (_framed_fixing, 7, 5, 14)],
    ids=["sphere-d5", "sphere-d7", "framed-d5", "framed-d7", "framed-d7-fixing-subgroup"],
)
def test_normal_delta_is_the_alternating_coface_sum(build, d, n_max, q_max, monkeypatch):
    """The host's delta, which builds only the terms covering every vertex,
    summed, equals the alternating coface sum on every kept label, so the
    dropped terms cancel; and each delta_mat, which sums the host's terms
    in assemble alone, is the matrix of the generic rule.
    The host's delta never reads compose_pairsets, the kernel of the coface
    sum, so the two sides share no composition routine."""
    X = mcclure_smith(build(d, n_max, q_max), n_max)
    H = HochschildComplex(X, q_max)
    assert H.normalized and X.normal_delta is not None
    sphere = getattr(X.host, "base", X.host)
    columns = [(n, q) for n, q in H.positions() if n < n_max]

    def refuse(*args):
        raise AssertionError("the host's delta read compose_pairsets")

    with monkeypatch.context() as m:
        m.setattr(sphere, "compose_pairsets", refuse)
        fast = {
            (n, q): ([X.normal_delta(n, l) for l in H.labels(n, q)], H.delta_mat(n, q))
            for n, q in columns
        }
    for n, q in columns:
        deltas, mat = fast[(n, q)]
        for label, delta in zip(H.labels(n, q), deltas):
            assert combine(delta) == X.delta_on_label(n, label), (n, label)
        target = {l: k for k, l in enumerate(H.labels(n + 1, q))}
        generic = assemble(H.labels(n, q), target, lambda l: X.delta_on_label(n, l).items())
        assert mat == generic, (n, q)


def test_framed_delta_does_not_depend_on_the_label_order():
    """The framed delta keeps only the last base label's vertex splits, so
    its terms must not depend on the order labels come in: on a fresh host,
    every kept label of framed d=5 (n <= 6, q <= 16) in seeded random
    order, then each base label at two arities back to back, sums to
    delta_on_label."""
    X = mcclure_smith(framed_multiplicative(5, 6, 16), 6)
    H = HochschildComplex(X, 16)
    labels = [(n, l) for n, q in H.positions() if n < 6 for l in H.labels(n, q)]
    random.Random(5201).shuffle(labels)
    by_base: dict = {}
    for n, l in labels:
        by_base.setdefault(l[0], {}).setdefault(n, l)
    pairs = [((n, at[n]), (n + 1, at[n + 1])) for at in by_base.values() for n in at if n + 1 in at]
    assert len(labels) > 800 and len(pairs) > 40
    for n, label in labels + [x for pair in pairs for x in pair]:
        assert combine(X.normal_delta(n, label)) == X.delta_on_label(n, label), (n, label)


def test_label_index_is_built_on_first_use(monkeypatch):
    """hochschild_dims reads ranks alone and builds no label -> row index;
    index(n, q) builds each cell's map once, the labels in stored order,
    and the empty map off the stored cells."""
    made = []
    init = HochschildComplex.__init__
    monkeypatch.setattr(HochschildComplex, "__init__", lambda H, *a: made.append(H) or init(H, *a))
    assert any(hochschild_dims(framed_multiplicative(5, 5, 14), 5, 14).values())
    (H,) = made
    assert H._index == {}
    for n, q in H.positions():
        assert H.index(n, q) == {l: k for k, l in enumerate(H.labels(n, q))}
        assert H.index(n, q) is H.index(n, q)
    assert H.index(H.n_max + 1, 0) == H.index(0, H.q_max + 1) == {}


def test_hochschild_homology_builds_every_label_index():
    """The class queries read the label index of their cells, so
    hochschild_homology hands them a complex with every cell's built."""
    H = hochschild_homology(sphere_multiplicative(5, 4, 8), 4, 8).complex
    assert H.positions() and sorted(H._index) == H.positions()
    for n, q in H.positions():
        assert H._index[n, q] == {l: k for k, l in enumerate(H.labels(n, q))}


@pytest.mark.parametrize("d", [5, 7])
def test_the_inclusion_of_the_sphere_into_the_framed_host_is_a_chain_map(d):
    """Attaching empty Hopf words, l -> (l, ((),) * n), commutes with the
    hosts' deltas on every normalized sphere label of arity n <= 5, with
    no degree cap: the framed terms of (l, empty words) are the sphere
    terms of l with empty words attached, unsummed and in order."""
    sphere, framed = SphereOperad(d, 5), framed_multiplicative(d, 5).operad
    seen = 0
    for n in range(6):
        for labels in sphere.normalized_basis(n, inf).values():
            for l in labels:
                want = [((t, ((),) * (n + 1)), c) for t, c in sphere.normal_delta(n, l)]
                assert framed.normal_delta(n, (l, ((),) * n)) == want, (n, l)
                seen += 1
    assert seen == 815


@pytest.mark.parametrize(
    "build,n_max,stored,confirmed,splits",
    [(sphere_multiplicative, 8, 970, 970, 1_362), (framed_multiplicative, 6, 1_557, 0, 1_104)],
    ids=["sphere-d5", "framed-d5"],
)
def test_work_counts_of_the_normalized_columns(
    build, n_max, stored, confirmed, splits, monkeypatch
):
    """At d=5, q <= 16: the codegeneracies confirm each label the sphere
    proposes through the host's compose_basis, never the bilinear
    compose_terms, and none of the labels of the framed host, whose map is
    exact; and each host's delta splits a vertex only at the slots that
    carry two or more pair ends and generators, the framed host once per
    run of labels sharing a base label."""
    composed, asked, split_calls = [], [], []
    monkeypatch.setattr(Operad, "compose_terms", lambda *args: composed.append(args))
    normal = SemicosimplicialChainComplex.is_normal_label
    monkeypatch.setattr(
        SemicosimplicialChainComplex, "is_normal_label",
        lambda X, n, label: asked.append(label) or normal(X, n, label),
    )
    M = build(5, n_max, 16)
    H = HochschildComplex(mcclure_smith(M, n_max), 16)
    assert (len(composed), len(asked)) == (0, confirmed)
    assert sum(H.dim(*pos) for pos in H.positions()) == stored
    sphere = getattr(M.operad, "base", M.operad)
    split = sphere.split_vertex
    monkeypatch.setattr(sphere, "split_vertex", lambda *a: split_calls.append(a) or split(*a))
    for n, q in H.positions():
        H.delta_mat(n, q)
    assert len(split_calls) == splits


def _generic_delta_calls(H) -> int:
    """delta_on_label calls made by every delta_mat of H, failing if the
    host's rule runs instead."""
    calls = []
    generic = H.X.delta_on_label
    H.X.delta_on_label = lambda n, l: calls.append(n) or generic(n, l)

    def refuse(n, label):
        raise AssertionError("the host's delta ran")

    H.X.normal_delta = refuse
    for n, q in H.positions():
        H.delta_mat(n, q)
    return len(calls)


def test_generic_delta_where_the_host_rule_does_not_apply():
    """Unnormalized columns (a structure without a point) and the witness
    host take the alternating coface sum; so does a multiplication other
    than mu()."""
    sphere = sphere_multiplicative(5, 4, 8)
    scaled = MultiplicativeStructure(sphere.operad, sphere.mult.scale(2), sphere.point)
    assert mcclure_smith(scaled).normal_delta is None
    assert mcclure_smith(witness_multiplicative(2)).normal_delta is None
    pointless = MultiplicativeStructure(sphere.operad, sphere.mult)
    unnormalized = HochschildComplex(mcclure_smith(pointless, 4), 8)
    assert not unnormalized.normalized and _generic_delta_calls(unnormalized) > 0
    assert _generic_delta_calls(HochschildComplex(mcclure_smith(witness_multiplicative(2)), 10)) > 0


def _sphere_homology():
    hochschild_homology(sphere_multiplicative(5, 6, 16), 6, 16)


def _witness_pages():
    H = HochschildComplex(mcclure_smith(witness_multiplicative(3, padded=True)), 26)
    ss_pages(H, 6)
    einfty_vs_total(H, 6)


def _witness_d2():
    M = witness_multiplicative(3, padded=True)
    inp = ObstructionInput(M, witness_generator(M.operad, "g"), 3)
    assert compare_with_d2(inp, run_pipeline(inp)).equal


@pytest.mark.parametrize(
    "run", [_sphere_homology, _witness_pages, _witness_d2],
    ids=["sphere-homology", "witness-pages-and-einfty", "witness-d2"],
)
def test_each_delta_label_is_asked_for_once(run, monkeypatch):
    """Why nothing caches delta: homology per q, the pages with the
    E_infinity oracle (one Tot, built once) and the page-2 zig-zag each
    ask the delta rule for every (n, label) at most once."""
    asked = Counter()
    delta_terms = HochschildComplex.delta_terms
    monkeypatch.setattr(
        HochschildComplex, "delta_terms",
        lambda H, n, label: asked.update([(n, label)]) or delta_terms(H, n, label),
    )
    run()
    assert asked and set(asked.values()) == {1}


@pytest.mark.parametrize(
    "op",
    [sphere_operad(5, 5), sphere_operad(5, 7, 16),
     framed_multiplicative(5, 5, 14).operad, poisson_operad_small(5), witness_operad(2)],
    ids=["sphere", "sphere-capped", "framed", "poisson-table", "witness-free"],
)
def test_no_column_map_names_an_empty_degree(op):
    """Every degree a host's column map names holds a label, so a complex
    built on it has its populated window."""
    for n in range(op.max_arity + 2):
        maps = [op.basis_by_degree(n)] + [op.normalized_basis(n, top) for top in (0, 9, 16, 99)]
        assert all(labels for m in maps for labels in m.values()), n


def test_a_row_with_empty_top_columns_keeps_its_window():
    """At d = 5, q = 12 columns 0..2 are empty, column 3 holds the one
    label with all three pairs and column 5 does not vanish: the row over
    p still spans (-n_max, 0), and only its open lower edge is unreliable."""
    H = HochschildComplex(mcclure_smith(sphere_multiplicative(5, 4, 12)), 12)
    assert [H.dim(n, 12) for n in range(5)] == [0, 0, 0, 1, 16]
    assert not H.vanishes(5, 12)
    C = H.complex_in_p(12)
    assert C.window == (-4, 0) and not C.complete_below
    assert {p: h.reliable for p, h in C.homology().per_degree.items()} == {
        -4: False, -3: True, -2: True, -1: True, 0: True}
    assert C.homology().at(0).dim == 0


class _LeakySphere(SphereOperad):
    """A sphere host whose delta also emits one split term that leaves a
    vertex uncovered: ((1, 2),) splits at vertex 1 into ((1, 3),)."""

    def normal_delta(self, n, label):
        extra = [(self.split_vertex(label, 1)[0], 1)] if label == ((1, 2),) else []
        return super().normal_delta(n, label) + extra


def test_a_host_delta_leaving_the_normalized_columns_is_refused():
    """assemble's target check is what keeps a host's delta inside the
    normalized columns: the rows and Tot both refuse the leaked term."""
    op = _LeakySphere(5, 4, 12)
    M = MultiplicativeStructure(op, op.mu(), point=OpElement.basis(0, ()))
    assert mcclure_smith(M).normal_delta == op.normal_delta
    with pytest.raises(ValueError, match=r"leaves the target basis at \(\(1, 3\),\)"):
        hochschild_homology(M, 4, 12)
    with pytest.raises(ValueError, match=r"leaves the target basis at \(3, 4, \(\(1, 3\),\)\)"):
        ss_pages(HochschildComplex(mcclure_smith(M), 12), 3)


def test_the_witness_pages_are_built_and_checked_once(monkeypatch):
    """ss_pages and then einfty_vs_total at the same r_max hand out one
    list of pages: the pages, and the page-recursion rank check on them,
    are built once."""
    built = []
    build = SpectralSequence._build_pages
    monkeypatch.setattr(
        SpectralSequence, "_build_pages", lambda ss, r_max: built.append(r_max) or build(ss, r_max)
    )
    ranks = Counter()
    monkeypatch.setattr(cosimplicial, "rank", lambda m: ranks.update(["rank"]) or rank(m))
    H = HochschildComplex(mcclure_smith(witness_multiplicative(3, padded=True)), 26)
    pages = ss_pages(H, 6)
    checked = ranks["rank"]
    assert einfty_vs_total(H, 6)
    assert built == [6] and ranks["rank"] == checked > 0
    assert H.spectral_sequence().pages(6) is pages


def _raw_vanishes(H, n, q):
    """Independent oracle: the vanishing rule read off the host's raw
    arity complexes.  The stored range; past it, a raw column of a host
    with arity-0 labels is refused before its raw window is read; then
    each column's populated raw window under the generic codegeneracy
    filter; then the host's answer past that window."""
    if H.dim(n, q):
        return False
    if n < 0 or q < 0 or (n <= H.n_max and q <= H.q_max):
        return True
    if not H.normalized and arity_complex(H.X.host, 0).space.degrees():
        return False
    if n <= H.n_max:
        C = arity_complex(H.X.host, n)
        lo, hi = C.window
        if lo <= q <= hi:
            return not any(H.X.is_normal_label(n, l) for l in C.space.labels(q))
    return H.X.host.column_vanishes(n, q)


@pytest.mark.parametrize("normalized", [True, False], ids=["normalized", "raw"])
@pytest.mark.parametrize(
    "build,n_max,q_max",
    [(lambda: sphere_multiplicative(5, 5, 12), 5, 12),
     (lambda: sphere_multiplicative(5, 5, 16), 5, 12),
     (lambda: framed_multiplicative(5, 4, 8), 4, 8),
     (lambda: framed_multiplicative(7, 3, 12), 3, 12),
     (lambda: poisson_multiplicative(5), 3, 4),
     (lambda: witness_multiplicative(2), 3, 10),
     (lambda: witness_multiplicative(3, padded=True), 3, 13)],
    ids=["sphere-d5", "sphere-d5-cap-past-q", "framed-d5", "framed-d7",
         "poisson", "witness", "padded-witness"],
)
def test_columns_agree_with_the_raw_arity_complexes(build, n_max, q_max, normalized):
    """Every stored column, its vertical differential and the vanishing
    rule equal what the host's raw arity complexes give: labels by the
    generic codegeneracy filter over the raw basis, d as the raw d_q
    restricted to the kept labels.  The raw case drops the structure's
    point, which leaves the columns unnormalized."""
    M = build()
    if not normalized:
        M = MultiplicativeStructure(M.operad, M.mult)
    H = HochschildComplex(mcclure_smith(M, n_max), q_max)
    assert H.normalized == (M.point is not None)
    X, op = H.X, H.X.host
    stored = set()
    for n in range(n_max + 1):
        C = arity_complex(op, n)
        for q in C.space.degrees():
            if q > q_max:
                continue
            kept = tuple(
                l for l in C.space.labels(q) if not H.normalized or X.is_normal_label(n, l)
            )
            assert H.labels(n, q) == kept, (n, q)
            if not kept:
                continue
            stored.add((n, q))
            kept_at = {l: k for k, l in enumerate(kept)}
            rows = {l: r for r, l in enumerate(H.labels(n, q - 1))}
            raw_src, raw_tgt = C.space.labels(q), C.space.labels(q - 1)
            entries = {
                (rows[raw_tgt[r]], kept_at[raw_src[c]]): v
                for (r, c), v in C.d(q).entries.items() if raw_src[c] in kept_at
            }
            assert H.d_mat(n, q) == RationalMatrix(len(rows), len(kept), entries), (n, q)
    assert set(H.positions()) == stored
    grid = [(n, q) for n in range(-2, n_max + 4) for q in range(-2, 30)]
    assert [pos for pos in grid if H.vanishes(*pos) != _raw_vanishes(H, *pos)] == []


def test_raw_oracle_refuses_a_host_with_a_point_before_its_raw_window():
    """Without its point the sphere's raw column 5 is empty in degree 14,
    inside its raw window 0..16, yet past q_max = 12 nothing certifies it:
    the complex and the oracle both refuse the raw columns of a host with
    arity-0 labels there.  With the point both certify the cell."""
    M = sphere_multiplicative(5, 5, 16)
    C = arity_complex(M.operad, 5)
    assert C.window[0] <= 14 <= C.window[1] and C.dim(14) == 0
    raw = HochschildComplex(mcclure_smith(MultiplicativeStructure(M.operad, M.mult), 5), 12)
    assert not raw.vanishes(5, 14) and not _raw_vanishes(raw, 5, 14)
    normalized = HochschildComplex(mcclure_smith(M, 5), 12)
    assert normalized.vanishes(5, 14) and _raw_vanishes(normalized, 5, 14)


@pytest.mark.parametrize("cap", [12, 24, None])
def test_columns_build_no_label_past_q_max(cap, monkeypatch):
    """A window builds only the labels it stores, whatever the host's cap:
    70 at sphere d=5, n <= 6, q <= 12, where maps built to the cap held
    6,325 labels at cap 24 and 28,264 uncapped."""
    built = []
    normalized = SphereOperad.normalized_basis
    monkeypatch.setattr(
        SphereOperad, "normalized_basis",
        lambda op, n, top: built.append(m := normalized(op, n, top)) or m,
    )
    H = HochschildComplex(mcclure_smith(sphere_multiplicative(5, 6, cap), 6), 12)
    stored = sum(H.dim(*pos) for pos in H.positions())
    assert sum(len(labels) for m in built for labels in m.values()) == stored == 70


@pytest.mark.parametrize(
    "build,n_max,q_max,cells",
    [(lambda: sphere_multiplicative(5, 3, 8), 3, 8, [(-3, 0), (-3, 4)]),
     (lambda: sphere_multiplicative(5, 5, 12), 5, 12, [(-5, 0), (-5, 4), (-5, 8)]),
     (lambda: framed_multiplicative(5, 4, 8), 4, 8,
      [(-4, 3), (-4, 4), (-4, 6), (-4, 7), (-4, 8)])],
    ids=["sphere-d5-n3", "sphere-d5-n5", "framed-d5"],
)
def test_raw_columns_of_a_host_with_a_point_are_certified_inside_the_window(
    build, n_max, q_max, cells
):
    """Without its point a sphere or framed structure has raw columns,
    which the coverage line past n_max does not bound: the edge cells are
    not reported and ``at`` refuses them, while the structure with its
    point certifies them."""
    M = build()
    raw = hochschild_homology(MultiplicativeStructure(M.operad, M.mult), n_max, q_max)
    normalized = hochschild_homology(M, n_max, q_max)
    assert [cell for cell in cells if cell in raw.dims] == []
    for p, q in cells:
        with pytest.raises(complexes.WindowBoundary):
            raw.at(p, q)
        normalized.at(p, q)


def test_column_complexes_are_built_on_first_use():
    """A column's vertical differential is assembled on the first d_mat
    call for that column; homology of a zero-differential host reads none."""
    H = hochschild_homology(sphere_multiplicative(5, 5, 12), 5, 12).complex
    assert H._columns == {}
    assert H.d_mat(3, 8).is_zero() and list(H._columns) == [3]


def test_differential_that_does_not_square_to_zero_is_refused():
    """A host whose d does not square to zero stops the computation with
    ValueError instead of giving pages."""
    op = parse_free_operad(
        "nu:2:0\na:1:1\nb:1:2\nc:1:3\nd c = b\nd b = a",
        associative="nu",
        degree_cap=6,
    )
    M = MultiplicativeStructure(op, witness_generator(op, "nu"))
    with pytest.raises(ValueError, match="d ∘ d != 0"):
        ss_pages(HochschildComplex(mcclure_smith(M), q_max=6), 3)


@pytest.mark.parametrize(
    "op,top", [(witness_operad(2), 18), (poisson_operad_small(5), 8)], ids=["free", "table"]
)
def test_truncated_host_vanishes_past_its_caps(op, top):
    """A truncated host is the object itself: its columns vanish above the
    arity cap, above the degree cap (free) or top degree (table), and
    below them exactly where its basis has no label."""
    grid = [(n, q) for n in range(6) for q in range(top + 3)]
    zeros = {pos for pos in grid if op.column_vanishes(*pos)}
    assert zeros == {(n, q) for n, q in grid if n > 3 or q > top or not op.dim(n, q)}
    assert {(n, q) for n, q in grid if n > 3 or q > top} < zeros


class TestHochschildHomology:
    def test_sphere_bigraded_dims(self, sphere5):
        HH = hochschild_homology(sphere5, 5, 12)
        # (-5, 12) sits on the window edge and is reported only with a
        # wider arity window; reliable entries stop at arity 4 here
        assert HH.dims == {
            (0, 0): 1,
            (-2, 4): 1,
            (-3, 8): 1,
            (-4, 8): 1,
        }

    def test_at_answers_inside_the_window_and_raises_outside(self, sphere5):
        """``HH.at`` is the certified zero at a q where no column has labels
        (the sphere has chains only in degrees 4k), the row's homology where
        one does, and WindowBoundary outside 0 <= -p <= n_max, q <= q_max
        and at the unreliable entry (-5, 12)."""
        HH = hochschild_homology(sphere5, 5, 12)
        assert 1 not in HH.homs and 4 in HH.homs
        for p in (0, -2, -5):
            h = HH.at(p, 1)
            assert (h.dim, h.reliable) == (0, True) and h.class_coordinates([]) == []
        assert HH.at(-2, 4) is HH.homs[4].at(-2) and HH.at(-2, 4).dim == 1
        assert not HH.homs[12].per_degree[-5].reliable
        for p, q in [(1, 0), (1, 1), (-6, 8), (-6, 1), (-2, 13), (-2, 16), (-5, 12)]:
            with pytest.raises(complexes.WindowBoundary):
                HH.at(p, q)

    def test_classes_are_coboundary_closed(self, sphere5):
        HH = hochschild_homology(sphere5, 5, 12)
        for c in HH.classes:
            assert hochschild_differential(sphere5, c.element).is_zero()

    @pytest.mark.parametrize(
        "make,n_max,q_max,complete",
        [
            (lambda: sphere_multiplicative(5, 8, 16), 8, 16, 5),
            (lambda: framed_multiplicative(5, 6, 16), 6, 16, 12),
        ],
        ids=["sphere", "framed"],
    )
    def test_euler_characteristic_of_complete_rows(self, make, n_max, q_max, complete):
        """On a q-row whose p-degrees are all reliable, sum (-1)^p dim H
        equals sum (-1)^n dim C(n, q): an oracle that needs no elimination."""
        HH = hochschild_homology(make(), n_max, q_max)
        rows = 0
        for q, hom in HH.homs.items():
            if not all(h.reliable for h in hom.per_degree.values()):
                continue
            rows += 1
            chi = sum((-1) ** n * HH.complex.dim(n, q) for n in range(n_max + 1))
            assert sum((-1) ** p * h.dim for p, h in hom.per_degree.items()) == chi, q
        assert rows == complete

    @pytest.mark.parametrize(
        "make,n_max,q_max",
        [
            (lambda: sphere_multiplicative(5, 8, 16), 8, 16),
            (lambda: framed_multiplicative(5, 6, 16), 6, 16),
            (lambda: framed_multiplicative(7, 4, 13), 4, 13),
        ],
        ids=["sphere-d5", "framed-d5", "framed-d7"],
    )
    def test_dims_are_the_reliable_cells_of_the_homology(self, make, n_max, q_max):
        """``hochschild_dims`` holds every reliable cell of ``homs``, zeros
        included, and its nonzero cells are ``HH.dims``; framed d = 9, 11
        and 13 are compared in ``TestComputedSecondPage``."""
        HH = hochschild_homology(make(), n_max, q_max)
        reliable = {
            (p, q) for q, hom in HH.homs.items()
            for p, h in hom.per_degree.items() if h.reliable
        }
        dims = hochschild_dims(make(), n_max, q_max)
        assert dims == {pos: HH.dims.get(pos, 0) for pos in reliable}
        assert 0 in dims.values()

    @pytest.mark.parametrize("reader", [hochschild_homology, hochschild_dims])
    def test_a_host_with_a_differential_is_refused(self, reader):
        with pytest.raises(ValueError, match="zero-differential host"):
            reader(witness_multiplicative(2), 3, 8)

    def test_normalized_vs_unnormalized_agree(self):
        """Dold-Kan: the normalized columns (the structure with its point)
        and the raw ones (without it) have the same homology.  Compared
        both ways on every cell with -p < n_max, the interior, which no
        truncation touches; the edge column n_max is left out, since past
        it the host's vanishing line speaks for normalized columns only."""
        M = sphere_multiplicative(5, 4, 8)
        a = hochschild_homology(M, 4, 8)
        b = hochschild_homology(MultiplicativeStructure(M.operad, M.mult), 4, 8)
        assert a.complex.normalized and not b.complex.normalized
        interior = [(p, q) for p in range(-3, 1) for q in range(9)]
        assert [a.at(*pq).dim for pq in interior] == [b.at(*pq).dim for pq in interior]
        assert {(0, 0), (-2, 4), (-3, 8)} <= {pq for pq in interior if a.at(*pq).dim}


class TestSpectralSequence:
    def test_witness_pages_and_forced_differential(self, witness2):
        H = HochschildComplex(mcclure_smith(witness2), q_max=10)
        pages = ss_pages(H, 4)
        by_r = {p.r: p for p in pages}
        assert by_r[2].dim(-3, 8) == 1
        assert by_r[2].dim(-1, 7) == 1
        assert by_r[3].dim(-3, 8) == 0
        assert by_r[3].dim(-1, 7) == 0
        # the forced d_2 is the one pair of length 2: its source to its image
        assert by_r[2].differentials[(-1, 7)] == RationalMatrix(1, 1, {(0, 0): 1})
        pairing = H.spectral_sequence()._pairing()
        assert sorted(pos for pos, cell in pairing.items() for e in cell if e[2] == 2) == [
            (1, 7), (3, 8)
        ]

    def test_einfty_matches_total_homology(self, witness2):
        for M in (witness2, witness_multiplicative(2, padded=True)):
            H = HochschildComplex(mcclure_smith(M), q_max=10)
            rows = einfty_vs_total(H)
            assert rows, "no reliable total degrees compared"
            for t, stable, total in rows:
                assert stable == total, f"degree {t}: {stable} != {total}"

    def test_einfty_on_zero_differential_host(self, sphere5):
        H = HochschildComplex(mcclure_smith(sphere5, 4), q_max=8)
        for t, stable, total in einfty_vs_total(H):
            assert stable == total

    @pytest.mark.parametrize(
        "make,n_max,q_max,r_max",
        [
            (lambda: witness_multiplicative(3, padded=True), 3, 26, 6),
            (lambda: witness_multiplicative(2, break_h1=True), None, 10, None),
            (lambda: sphere_multiplicative(5, 6, 16), 6, 16, None),
            (lambda: framed_multiplicative(7, 5, 14), 5, 14, None),
        ],
        ids=["padded-witness", "h1-broken", "sphere", "framed"],
    )
    def test_einfty_counts_ranks_and_matches_total_homology(
        self, make, n_max, q_max, r_max, monkeypatch
    ):
        """The E_infinity rows equal those read off the total complex's
        homology, computed the plain way by ``reference_homology`` (raw
        columns, full kernels), which shares no echelon with the check; the
        check itself counts dim Tot_t - rank D(t) - rank D(t + 1), so once
        the pages are cached it computes no homology and no coordinate
        echelon."""
        H = HochschildComplex(mcclure_smith(make(), n_max), q_max=q_max)
        ss_pages(H, 2)  # the pairing, cached
        calls = []
        with monkeypatch.context() as m:
            for module, name in ((linalg, "row_reduce"), (complexes, "row_reduce"),
                                 (complexes, "homology")):
                f = getattr(module, name)
                m.setattr(module, name, lambda *a, f=f, name=name: calls.append(name) or f(*a))
            rows = einfty_vs_total(H, r_max)
        assert calls == []
        # the oracle: total homology, with representatives and coordinates
        ss = H.spectral_sequence()
        last = ss.pages(H.n_max + 2 if r_max is None else max(r_max, H.n_max + 1))[-1]
        tot = ss.total_complex()
        homology = reference_homology(tot)
        want = []
        for t in tot.space.degrees():
            ent = [e for (p, q), e in last.entries.items() if p + q == t]
            if tot.reliable(t) and all(e.reliable for e in ent):
                want.append((t, sum(e.dim for e in ent), homology[t].dim))
        assert rows == want and rows
        assert all(stable == total for _, stable, total in rows)

    @pytest.mark.parametrize(
        "make,n_max,q_max,r_max",
        [
            (lambda: witness_multiplicative(2), None, 10, 4),
            (lambda: witness_multiplicative(3, padded=True), 3, 26, 6),
            (lambda: sphere_multiplicative(5, 5, 12), 5, 12, 4),
            (lambda: framed_multiplicative(5, 4, 10), 4, 10, 4),
        ],
        ids=["witness", "padded-witness", "sphere", "framed"],
    )
    def test_pages_match_the_dense_oracle(self, make, n_max, q_max, r_max):
        """Every entry's dim and reliability equals the dense per-page
        computation; its representatives have an invertible coordinate
        matrix C on the oracle's quotient, and under those changes of basis
        every d_r equals the oracle's: C_target d_r = d_r(oracle) C_source."""
        M = make()
        H = HochschildComplex(mcclure_smith(M, n_max), q_max=q_max)
        pages = ss_pages(H, r_max)
        want = reference_pages(HochschildComplex(mcclure_smith(M, n_max), q_max=q_max), r_max)
        assert [p.r for p in pages] == [p.r for p in want] == list(range(1, r_max + 1))
        for got, ref in zip(pages, want):
            assert got.entries.keys() == ref.entries.keys()
            change = {}
            for pq, e in got.entries.items():
                f, quo = ref.entries[pq], ref.quotients[pq]
                assert (e.dim, e.reliable) == (f.dim, f.reliable), (got.r, pq)
                C = RationalMatrix.from_columns([quo.coords(x) for x in e.representatives], f.dim)
                assert (C.rows, C.cols) == (e.dim, e.dim) and rank(C) == e.dim, (got.r, pq)
                change[pq] = C
            assert got.differentials.keys() == ref.differentials.keys(), got.r
            for (p, q), d_r in got.differentials.items():
                C_tgt = change[(p - got.r, q + got.r - 1)]
                assert C_tgt.matmul(d_r) == ref.differentials[(p, q)].matmul(change[(p, q)])

    @pytest.mark.parametrize(
        "make,n_max,q_max",
        [
            (lambda: witness_multiplicative(3, padded=True), 3, 26),
            (lambda: sphere_multiplicative(5, 5, 12), 5, 12),
        ],
        ids=["padded-witness", "sphere"],
    )
    def test_pages_past_the_arity_window_repeat_without_new_work(
        self, make, n_max, q_max, monkeypatch
    ):
        """Every d_r with r > n_max leaves the columns, so each page past
        n_max + 1 equals page n_max + 1 and carries no differential.  All
        pages are read off one filtered reduction per total degree, however
        many are asked for."""
        filtered = []
        init = Subquotient.__init__

        def counting(self, *args, **kwargs):
            filtered.append(kwargs.get("block") is not None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Subquotient, "__init__", counting)
        M = make()

        def run(r_max):
            filtered.clear()
            H = HochschildComplex(mcclure_smith(M, n_max), q_max=q_max)
            pages = ss_pages(H, r_max)
            degrees = len(H.spectral_sequence().total_complex().space.degrees())
            assert sum(filtered) == degrees
            assert ss_pages(H, 2) == pages[:2] and einfty_vs_total(H)
            assert sum(filtered) == degrees
            return pages

        short, pages = run(n_max + 2), run(40)
        stable = short[n_max]
        assert stable.r == n_max + 1 and pages[: n_max + 2] == short
        for page in pages[n_max + 1:]:
            assert page.differentials == {}
            assert page.entries == stable.entries, page.r

    @pytest.mark.parametrize(
        "make,n_max,q_max",
        [
            (lambda: sphere_multiplicative(5, 6, 16), 6, 16),
            (lambda: framed_multiplicative(7, 5, 14), 5, 14),
        ],
        ids=["sphere-d5", "framed-d7"],
    )
    def test_zero_differential_hosts_pair_in_length_one(self, make, n_max, q_max):
        """With d = 0, D = +-delta moves every column up by exactly one, so
        every pair of the filtered reduction has length 1: every d_r with
        r >= 2 is zero and E_2 is E_infinity, with no special case.  (The
        witness host's forced d_2 is a pair of length 2.)"""
        M = make()
        assert not M.operad.has_differential()
        H = HochschildComplex(mcclure_smith(M, n_max), q_max=q_max)
        ss = H.spectral_sequence()
        lengths = Counter(e[2] for cell in ss._pairing().values() for e in cell)
        assert set(lengths) == {1, inf} and lengths[1] > 0
        pages = ss.pages(n_max + 1)
        assert any(not m.is_zero() for m in pages[0].differentials.values())
        assert all(m.is_zero() for page in pages[1:] for m in page.differentials.values())
        classes = [{pq: e.representatives for pq, e in page.entries.items()} for page in pages]
        assert all(later == classes[1] for later in classes[2:])

    @pytest.mark.parametrize(
        "make,n_max,q_max,flips",
        [
            (lambda: witness_multiplicative(3, padded=True), 3, 26, False),
            (lambda: sphere_multiplicative(5, 6, 12), 6, 12, False),
            (lambda: sphere_multiplicative(5, 5, 12), 5, 12, True),
            (lambda: witness_multiplicative(3, padded=True), 2, 26, True),
            (lambda: sphere_multiplicative(5, 3, 16), 3, 16, True),
        ],
        ids=["padded-witness", "sphere-n6", "sphere", "padded-witness-n2", "sphere-n3"],
    )
    def test_page_flags_carried_across_pages_equal_entry_reliable(
        self, make, n_max, q_max, flips
    ):
        """Each page extends the previous page's flag by one d_r check; the
        result is ``entry_reliable`` at every entry of pages 1..40.  In the
        narrower windows some flag turns false at a later page: at sphere
        n <= 5, q <= 12, E_1(-5, 12) is certified, since the sphere has no
        odd degree, but d_1 leaves it for (-6, 12), which is not empty."""
        H = HochschildComplex(mcclure_smith(make(), n_max), q_max=q_max)
        ss = H.spectral_sequence()
        flags = {
            (page.r, pq): e.reliable for page in ss.pages(40) for pq, e in page.entries.items()
        }
        assert flags == {(r, pq): ss.entry_reliable(*pq, r) for r, pq in flags}
        turned = {pq for (r, pq), ok in flags.items() if flags[(1, pq)] != ok}
        assert bool(turned) == flips

    def test_zigzag_reproduces_coboundary_of_primitive(self, witness2):
        op = witness2.operad
        H = HochschildComplex(mcclure_smith(witness2), q_max=9)
        labels = H.labels(1, 7)
        g = witness_generator(op, "g")
        z = [Fraction(0)] * len(labels)
        for l, c in g.coeffs:
            z[labels.index(l)] += c
        result, lifts = zigzag_dr(H, 1, 7, z, 2)
        got = OpElement.make(
            3, {l: c for l, c in zip(H.labels(3, 8), result) if c != 0}
        )
        nu = witness_generator(op, "nu")
        h = witness_generator(op, "h")
        want = (
            op.compose(nu, 2, h)
            - op.compose(h, 1, nu)
            + op.compose(h, 2, nu)
            - op.compose(nu, 1, h)
        )
        assert (got - want).is_zero()
        assert lifts  # at least one vertical lift was performed

    @pytest.mark.parametrize(
        "n_max,q_max,r,message",
        [(2, 9, 2, "final delta leaves the arity window"),
         (3, 7, 2, "lift degree leaves the chain-degree window"),
         (3, 9, 3, "delta-image not a vertical boundary at column 3"),
         (2, 9, 3, "lift column leaves the arity window")],
    )
    def test_zigzag_stops_where_a_lift_leaves_the_window(self, witness2, n_max, q_max, r, message):
        H = HochschildComplex(mcclure_smith(witness2, n_max), q_max)
        labels = H.labels(1, 7)
        z = dense({labels.index(l): c for l, c in witness_generator(witness2.operad, "g").coeffs},
                  len(labels))
        with pytest.raises(LiftFailure, match=message):
            zigzag_dr(H, 1, 7, z, r)

    def test_zigzag_refuses_a_wrong_length_or_a_non_cycle(self, witness2):
        H = HochschildComplex(mcclure_smith(witness2), 9)
        with pytest.raises(ValueError, match="vector length mismatch"):
            zigzag_dr(H, 1, 7, [1] * (H.dim(1, 7) + 1), 2)
        assert H.labels(2, 8) == (("h", (), ()),)  # d h = nu o2 g + nu o1 g - g o1 nu
        with pytest.raises(ValueError, match="z is not a vertical cycle"):
            zigzag_dr(H, 2, 8, [1], 2)


class TestTotalComplex:
    def test_total_dims_count_labels(self, witness2):
        H = HochschildComplex(mcclure_smith(witness2), q_max=10)
        T = total_complex(H)
        for t in T.space.degrees():
            assert T.dim(t) == sum(
                H.dim(n, q) for (n, q) in H.positions() if q - n == t
            )
