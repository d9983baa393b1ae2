"""Semicosimplicial objects, double complexes, spectral sequences."""

from fractions import Fraction

import pytest
from conftest import reference_pages

from operadlab.cosimplicial import (
    HochschildComplex,
    SpectralSequence,
    einfty_vs_total,
    hochschild_differential,
    hochschild_homology,
    mcclure_smith,
    ss_pages,
    total_complex,
    zigzag_dr,
)
from operadlab.hopf import build_so_hopf
from operadlab.instances import (
    FramedOperad,
    MultiplicativeStructure,
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
from operadlab.linalg import RationalMatrix, Subquotient, assemble, dense
from operadlab.operads import ArityOverflow, OpElement, Operad, parse_free_operad


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
    """Cofaces and codegeneracies computed per label equal the element
    compositions they stand for, on every label with n <= 3, q <= 8; a
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
                assert got == faces(n, i, x).as_dict()
                assert all(type(c) is Fraction for c in got.values())
                checked += 1
            if point is not None and n >= 1:
                for i in range(n):
                    got = X.codegeneracy(n - 1, i, label)
                    assert got == op.compose(x, i + 1, point).as_dict()
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
    range or from the host's vanishing line past it, has no normalized
    labels when a larger window computes it."""
    small = HochschildComplex(mcclure_smith(build(5, 3, 8), 3), q_max=8)
    large = HochschildComplex(mcclure_smith(build(5, 5, 12), 5), q_max=12)
    zeros = [(n, q) for n in range(6) for q in range(13) if small.vanishes(n, q)]
    assert [pos for pos in zeros if large.dim(*pos)] == []
    # past the small window the certified zeros are the line 2q < 4n
    past = {(n, q) for n, q in zeros if n > 3 or q > 8}
    assert past == {(n, q) for n in (4, 5) for q in range(13) if 2 * q < 4 * n}
    assert any(large.dim(n, q) for n in (4, 5) for q in range(13))


def _framed_fixing(d, n_max, cap):
    """The framed host on the fixing subgroup's Hopf algebra."""
    op = FramedOperad(sphere_operad(d, n_max, cap), build_so_hopf(d, "fixing-subgroup"), cap)
    return MultiplicativeStructure(op, op.mu(), OpElement.basis(0, ((), ())))


@pytest.mark.parametrize(
    "build,d,n_max,q_max",
    [(sphere_multiplicative, 5, 8, 16),
     (framed_multiplicative, 5, 6, 16),
     (framed_multiplicative, 7, 5, 14),
     (framed_multiplicative, 9, 6, 19),
     (_framed_fixing, 7, 5, 14),
     (lambda d, n_max, q_max: framed_multiplicative(d, n_max), 5, 3, 42)],
    ids=["sphere-d5", "framed-d5", "framed-d7", "framed-d9",
         "framed-d7-fixing-subgroup", "framed-d5-uncapped"],
)
def test_normalized_basis_is_the_codegeneracy_filter(build, d, n_max, q_max):
    """The host's normalized labels, confirmed by the codegeneracies, are
    the generic filter over the whole basis, label for label and in
    order; and the host proposes no label the filter drops."""
    X = mcclure_smith(build(d, n_max, q_max), n_max)
    op = X.host
    checked = 0
    for n in range(n_max + 1):
        for q in sorted(op.basis_by_degree(n)):
            if q > q_max:
                continue
            kept = [l for l in Operad.normalized_basis(op, n, q) if X.is_normal_label(n, l)]
            hook = op.normalized_basis(n, q)
            assert [l for l in hook if X.is_normal_label(n, l)] == kept, (n, q)
            assert len(hook) == len(kept), (n, q)
            checked += bool(kept)
    assert checked > n_max


@pytest.mark.parametrize(
    "op",
    [sphere_operad(5, 7, 16),
     sphere_operad(7, 6, 18),
     sphere_operad(5, 5),
     framed_multiplicative(5, 4, 16).operad,
     FramedOperad(sphere_operad(5, 3), build_so_hopf(5)),
     framed_multiplicative(7, 4, 14).operad,
     FramedOperad(sphere_operad(7, 3), build_so_hopf(7)),
     _framed_fixing(7, 4, 14).operad,
     FramedOperad(sphere_operad(7, 3), build_so_hopf(7, "fixing-subgroup")),
     poisson_operad_small(5),
     witness_operad(2),
     witness_operad(3, padded=True)],
    ids=["sphere-d5", "sphere-d7", "sphere-d5-uncapped", "framed-d5", "framed-d5-uncapped",
         "framed-d7", "framed-d7-uncapped", "framed-d7-fixing-subgroup",
         "framed-d7-fixing-subgroup-uncapped", "poisson", "witness", "padded-witness"],
)
def test_degrees_are_the_populated_degrees_of_the_basis(op):
    """The host's degrees, computed without labels on the sphere and
    framed hosts, are the degrees where its basis has labels, one arity
    past the cap included."""
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


@pytest.mark.parametrize(
    "build,d,n_max,q_max",
    [(sphere_multiplicative, 5, 7, 16),
     (sphere_multiplicative, 7, 6, 18),
     (framed_multiplicative, 5, 5, 14),
     (framed_multiplicative, 7, 5, 14)],
    ids=["sphere-d5", "sphere-d7", "framed-d5", "framed-d7"],
)
def test_normal_delta_is_the_alternating_coface_sum(build, d, n_max, q_max):
    """The host's delta, which builds only the terms covering every vertex,
    equals the alternating coface sum on every kept label, so the dropped
    terms cancel; and each delta_mat is the matrix of the generic rule."""
    X = mcclure_smith(build(d, n_max, q_max), n_max)
    H = HochschildComplex(X, q_max)
    assert H.normalized and X.normal_delta is not None
    for n, q in H.positions():
        if n == n_max:
            continue
        for label in H.labels(n, q):
            assert X.normal_delta(n, label) == X.delta_on_label(n, label), (n, label)
        target = {l: k for k, l in enumerate(H.labels(n + 1, q))}
        generic = assemble(H.labels(n, q), target, lambda l: X.delta_on_label(n, l).items())
        assert H.delta_mat(n, q) == generic, (n, q)


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
    """Unnormalized columns and the witness host (no point) take the
    alternating coface sum; so does a multiplication other than mu()."""
    sphere = sphere_multiplicative(5, 4, 8)
    scaled = MultiplicativeStructure(sphere.operad, sphere.mult.scale(2), sphere.point)
    assert mcclure_smith(scaled).normal_delta is None
    assert mcclure_smith(witness_multiplicative(2)).normal_delta is None
    unnormalized = HochschildComplex(mcclure_smith(sphere, 4), 8, normalized=False)
    assert _generic_delta_calls(unnormalized) > 0
    assert _generic_delta_calls(HochschildComplex(mcclure_smith(witness_multiplicative(2)), 10)) > 0


def _raw_vanishes(H, n, q):
    """Independent oracle: the vanishing rule read off the host's raw
    arity complexes (stored range, then each raw column's populated
    window, then the host's line past it)."""
    if H.dim(n, q):
        return False
    if 0 <= n <= H.n_max:
        if 0 <= q <= H.q_max:
            return True
        C = arity_complex(H.X.host, n)
        lo, hi = C.window
        if lo <= q <= hi:
            return C.dim(q) == 0
    if n < 0 or q < 0:
        return True
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
    restricted to the kept labels."""
    H = HochschildComplex(mcclure_smith(build(), n_max), q_max, normalized=normalized)
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
    arity cap and above the degree cap (free) or top degree (table)."""
    grid = [(n, q) for n in range(6) for q in range(top + 3)]
    zeros = {pos for pos in grid if op.column_vanishes(*pos)}
    assert zeros == {(n, q) for n, q in grid if n > 3 or q > top}
    assert all(op.dim(n, q) == 0 for n, q in zeros)


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

    def test_classes_are_coboundary_closed(self, sphere5):
        HH = hochschild_homology(sphere5, 5, 12)
        for c in HH.classes:
            assert hochschild_differential(sphere5, c.element).is_zero()

    @pytest.mark.parametrize(
        "make,n_max,q_max,complete",
        [
            (lambda: sphere_multiplicative(5, 8, 16), 8, 16, 5),
            (lambda: framed_multiplicative(5, 6, 16), 6, 16, 11),
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

    def test_normalized_vs_unnormalized_agree(self):
        M = sphere_multiplicative(5, 3, 8)
        a = hochschild_homology(M, 3, 8, normalized=True)
        b = hochschild_homology(M, 3, 8, normalized=False)
        shared = set(a.dims) & set(b.dims)
        assert a.dims == {k: v for k, v in b.dims.items() if k in a.dims}
        assert (0, 0) in shared and (-2, 4) in a.dims and (-2, 4) in b.dims


class TestSpectralSequence:
    def test_witness_pages_and_forced_differential(self, witness2):
        H = HochschildComplex(mcclure_smith(witness2), q_max=10)
        pages = ss_pages(H, 4)
        by_r = {p.r: p for p in pages}
        assert by_r[2].dim(-3, 8) == 1
        assert by_r[2].dim(-1, 7) == 1
        assert by_r[3].dim(-3, 8) == 0
        assert by_r[3].dim(-1, 7) == 0

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
            (lambda: witness_multiplicative(2), None, 10, 4),
            (lambda: witness_multiplicative(3, padded=True), 3, 26, 6),
            (lambda: sphere_multiplicative(5, 5, 12), 5, 12, 4),
            (lambda: framed_multiplicative(5, 4, 10), 4, 10, 4),
        ],
        ids=["witness", "padded-witness", "sphere", "framed"],
    )
    def test_pages_match_the_dense_oracle(self, make, n_max, q_max, r_max):
        """Every entry (dim, representatives, reliability) and every d_r
        matrix equals the dense per-page computation."""
        M = make()
        H = HochschildComplex(mcclure_smith(M, n_max), q_max=q_max)
        pages, tot_dim = ss_pages(H, r_max), H.spectral_sequence().tot_dim
        want = reference_pages(HochschildComplex(mcclure_smith(M, n_max), q_max=q_max), r_max)
        assert [p.r for p in pages] == [p.r for p in want] == list(range(1, r_max + 1))
        for got, ref in zip(pages, want):
            assert got.entries.keys() == ref.entries.keys()
            for pq, e in got.entries.items():
                f = ref.entries[pq]
                reps = [dense(x, tot_dim(sum(pq))) for x in e.representatives]
                assert (e.dim, reps, e.reliable) == (
                    f.dim, f.representatives, f.reliable
                ), (got.r, pq)
            assert got.differentials == ref.differentials, got.r

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
        n_max + 1 equals page n_max + 1 and carries no differential; those
        pages build no quotient of their own."""
        built = []
        init = Subquotient.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Subquotient, "__init__", counting)
        M = make()

        def run(r_max):
            built.clear()
            H = HochschildComplex(mcclure_smith(M, n_max), q_max=q_max)
            return ss_pages(H, r_max), len(built)

        short, n_short = run(n_max + 2)
        pages, n_long = run(40)
        assert n_long <= n_short
        stable = short[n_max]
        assert stable.r == n_max + 1 and pages[: n_max + 2] == short
        for page in pages[n_max + 1:]:
            assert page.differentials == {}
            assert page.entries == stable.entries, page.r

    @pytest.mark.parametrize(
        "make,n_max,q_max,flips",
        [
            (lambda: witness_multiplicative(3, padded=True), 3, 26, False),
            (lambda: sphere_multiplicative(5, 5, 12), 5, 12, False),
            (lambda: witness_multiplicative(3, padded=True), 2, 26, True),
            (lambda: sphere_multiplicative(5, 3, 16), 3, 16, True),
        ],
        ids=["padded-witness", "sphere", "padded-witness-n2", "sphere-n3"],
    )
    def test_page_flags_carried_across_pages_equal_entry_reliable(
        self, make, n_max, q_max, flips
    ):
        """Each page extends the previous page's flag by one d_r check; the
        result is ``entry_reliable`` at every entry of pages 1..40.  In the
        narrower windows some flag turns false at a later page."""
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


class TestTotalComplex:
    def test_total_dims_count_labels(self, witness2):
        H = HochschildComplex(mcclure_smith(witness2), q_max=10)
        T = total_complex(H)
        for t in T.space.degrees():
            assert T.dim(t) == sum(
                H.dim(n, q) for (n, q) in H.positions() if q - n == t
            )
