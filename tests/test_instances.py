"""Concrete operads: sphere pair-classes, Poisson table, framed, witness."""

import itertools
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from conftest import reference_framed_compose

from operadlab.cosimplicial import hochschild_homology, mcclure_smith
from operadlab.gerstenhaber import bracket
from operadlab.hopf import build_so_hopf
from operadlab.instances import (
    FramedOperad,
    apply_inclusion,
    arity_complex,
    element_to_vector,
    framed_multiplicative,
    homology_operad,
    poisson_inclusion,
    poisson_multiplicative,
    poisson_operad_small,
    sphere_multiplicative,
    sphere_operad,
    vector_to_element,
    witness_generator,
    witness_multiplicative,
    witness_operad,
)
from operadlab.operads import (
    OpElement,
    TruncationError,
    check_d_squared,
    check_leibniz,
    check_operad_axioms,
)


class TestSphereComposition:
    def setup_method(self):
        self.S = sphere_operad(5, max_arity=4)
        self.mu = self.S.mu()
        self.alpha = self.S.alpha()

    def test_point_class_compositions(self):
        got = self.S.compose(self.mu, 1, self.mu)
        assert dict(got.coeffs) == {(): Fraction(1)}

    def test_alpha_after_mu_distributes_diagonally(self):
        # inserting the multiplication into slot 1 doubles that point
        got = self.S.compose(self.alpha, 1, self.mu)
        assert dict(got.coeffs) == {
            ((1, 3),): Fraction(1),
            ((2, 3),): Fraction(1),
        }
        got = self.S.compose(self.alpha, 2, self.mu)
        assert dict(got.coeffs) == {
            ((1, 2),): Fraction(1),
            ((1, 3),): Fraction(1),
        }

    def test_mu_after_alpha_relabels(self):
        assert dict(self.S.compose(self.mu, 1, self.alpha).coeffs) == {
            ((1, 2),): Fraction(1)
        }
        assert dict(self.S.compose(self.mu, 2, self.alpha).coeffs) == {
            ((2, 3),): Fraction(1)
        }

    def test_alpha_after_alpha(self):
        got = self.S.compose(self.alpha, 1, self.alpha)
        assert dict(got.coeffs) == {
            ((1, 2), (1, 3)): Fraction(1),
            ((1, 2), (2, 3)): Fraction(1),
        }

    def test_point_insertion_drops_points(self):
        point = OpElement.basis(0, ())
        got = self.S.compose(self.alpha, 1, point)
        assert got.arity == 1 and got.is_zero()  # the pair collapses
        got = self.S.compose(self.mu, 1, point)
        assert dict(got.coeffs) == {(): Fraction(1)}

    def test_axioms(self):
        assert check_operad_axioms(self.S, samples=500).ok

    def test_composition_is_the_collapse_preimage(self):
        """x o_i y, from the definition: the pair-sets R of arity m + n - 1
        whose pairs inside the block i..i+n-1 are y's, shifted, and whose
        other pairs the collapse of the block onto i maps one-to-one onto
        x's pairs.  Every R is sorted into its (inside, image) bucket once;
        each composite must be its bucket, each pair-set once.
        All labels with m + n - 1 <= 5 and n <= 3, every slot."""
        S = sphere_operad(5, max_arity=6)

        def labels(n):
            return [l for ls in S.basis_by_degree(n).values() for l in ls]

        calls = spread = 0
        for n in range(4):
            ys = labels(n)
            for m in range(1, 7 - n):
                r = m + n - 1
                pairs = list(itertools.combinations(range(1, r + 1), 2))
                subsets = [R for k in range(len(pairs) + 1)
                           for R in itertools.combinations(pairs, k)]
                for i in range(1, m + 1):
                    block = range(i, i + n)

                    def collapse(k):
                        return k if k < i else i if k in block else k - n + 1

                    buckets: dict = {}
                    for R in subsets:
                        inside = tuple(p for p in R if p[0] in block and p[1] in block)
                        image = sorted((collapse(a), collapse(b)) for a, b in R
                                       if (a, b) not in inside)
                        if len(set(image)) == len(image):
                            buckets.setdefault((inside, tuple(image)), []).append(R)
                    for xl in labels(m):
                        for yl in ys:
                            shifted = tuple((a + i - 1, b + i - 1) for a, b in yl)
                            want = buckets.get((shifted, xl), [])
                            got = S.compose_pairsets(m, xl, i, n, yl)
                            assert sorted(got) == want, (m, xl, i, n, yl)
                            calls += 1
                            spread += len(want) > 1
        assert calls > 200_000 and spread > 600

    def test_vertex_split_is_the_composite_with_mu(self):
        """split_vertex(label, i) is compose_pairsets(n, label, i, 2, ()),
        list for list and in product order, for every raw label of arity
        <= 6 and every slot, those with no pair and one pair at i among them."""
        S = sphere_operad(5, max_arity=6)
        pairs_at = Counter()
        for n in range(1, 7):
            for labels in S.basis_by_degree(n).values():
                for label in labels:
                    for i in range(1, n + 1):
                        got = S.split_vertex(label, i)
                        assert got == S.compose_pairsets(n, label, i, 2, ()), (n, label, i)
                        pairs_at[sum(i in p for p in label)] += 1
        assert sorted(pairs_at) == [0, 1, 2, 3, 4, 5]
        assert pairs_at[0] > 1_000 and pairs_at[1] > 1_000

    def test_normalized_label_counts(self):
        """Inclusion-exclusion over the vertices left bare: the pair-sets of
        k pairs covering all n vertices number
        sum_j (-1)^j C(n, j) C(C(n - j, 2), k), for n <= 10, k <= 5 and
        the perfect matchings of 12 vertices.  Each map is built only up to
        the degree it counts, below the host's cap."""
        S = sphere_operad(5, max_arity=12, degree_cap=24)
        columns = {n: S.normalized_basis(n, 20) for n in range(11)}
        columns[12] = S.normalized_basis(12, 24)
        assert max(q for n in range(11) for q in columns[n]) == 20
        for n, k in [*itertools.product(range(11), range(6)), (12, 6)]:
            expected = sum(
                (-1) ** j * comb(n, j) * comb(comb(n - j, 2), k) for j in range(n + 1)
            )
            assert len(columns[n].get(4 * k, ())) == expected, (n, k)


class TestPoisson:
    def test_inclusion_commutes_with_composition(self):
        for d in (5, 7):
            P = poisson_operad_small(d)
            S = sphere_operad(d, max_arity=3)
            incl = poisson_inclusion(d)
            assert all(type(c) is int for t in incl.values() for c in t.values())
            checked = 0
            for n in (1, 2):
                for qx, xs in sorted(P.basis_by_degree(n).items()):
                    for x in xs:
                        for m in (1, 2):
                            if n + m - 1 > 3:
                                continue
                            for qy, ys in sorted(P.basis_by_degree(m).items()):
                                for y in ys:
                                    for i in range(1, n + 1):
                                        ex = OpElement.basis(n, x)
                                        ey = OpElement.basis(m, y)
                                        lhs = apply_inclusion(
                                            incl, P.compose(ex, i, ey)
                                        )
                                        rhs = S.compose(
                                            apply_inclusion(incl, ex),
                                            i,
                                            apply_inclusion(incl, ey),
                                        )
                                        assert (lhs - rhs).is_zero()
                                        checked += 1
            assert checked >= 15


class TestFramed:
    def test_axioms_and_multiplication(self):
        M = framed_multiplicative(5, 3, 8)
        assert check_operad_axioms(M.operad, samples=300).ok
        op = M.operad
        assert (op.compose(M.mult, 1, M.mult) - op.compose(M.mult, 2, M.mult)).is_zero()

    def test_dimension_is_base_times_labels(self):
        M = framed_multiplicative(5, 2, 8)
        op = M.operad
        # arity 1: base is one point class; framed adds the coalgebra
        by_deg = op.basis_by_degree(1)
        # 1, b1, b2; the top product b1 b2 exceeds the degree cap
        assert sorted(by_deg) == [0, 3, 7]
        assert sum(len(v) for v in by_deg.values()) == 3

    @pytest.mark.parametrize(
        "build",
        [lambda: framed_multiplicative(5, 4, 16).operad,
         lambda: FramedOperad(sphere_operad(7, 4, 12), build_so_hopf(7, "fixing-subgroup"))],
        ids=["framed-d5", "framed-d7-fixing-subgroup"],
    )
    def test_compose_matches_the_per_split_formula(self, build):
        """Every composite x o_i y with x in arity <= 3 and y in arity 0..3
        (under the arity cap) equals the per-split formula, with int
        coefficients; a caller mutating a returned dict leaves the next
        call unchanged.  Arity 3 puts slot i through a three-way diagonal."""
        op = build()

        def labels(n):
            return [l for ls in op.basis_by_degree(n).values() for l in ls]

        calls = nonempty = hopf_y = three_way = 0
        for m in (1, 2, 3):
            for xl in labels(m):
                for i in range(1, m + 1):
                    for n in range(min(3, op.max_arity + 1 - m) + 1):
                        for yl in labels(n):
                            got = op.compose_basis(m, xl, i, n, yl)
                            want = reference_framed_compose(op, m, xl, i, n, yl)
                            assert got == want, (m, xl, i, n, yl)
                            assert all(type(c) is int for c in got.values())
                            calls += 1
                            nonempty += bool(got)
                            hopf_y += bool(got) and any(yl[1])
                            three_way += bool(got) and n == 3 and len(xl[1][i - 1]) > 1
                            if got:
                                got.clear()
                                assert op.compose_basis(m, xl, i, n, yl) == want
        assert calls > 5_000 and nonempty > 1_000 and hopf_y > 100 and three_way > 10

    def test_a_composite_past_the_cap_is_computed(self):
        """Like its sphere base, the framed host is a window into the
        untruncated operad: x in O(2)_4 composed with y in O(3)_8 under
        cap 8 is the base composite with bare Hopf words, not zero, and
        so is their bracket."""
        F = framed_multiplicative(5, 4, 8).operad
        S = sphere_multiplicative(5, 4, 8).operad
        fx, fy = F.basis_by_degree(2)[4][0], F.basis_by_degree(3)[8][0]
        sx, sy = S.basis_by_degree(2)[4][0], S.basis_by_degree(3)[8][0]
        assert (fx[0], fy[0]) == (sx, sy)
        bare = ((),) * 4
        want = {(bl, bare): c for bl, c in S.compose_basis(2, sx, 1, 3, sy).items()}
        assert len(want) == 3
        assert F.compose_basis(2, fx, 1, 3, fy) == want
        x, y = OpElement.basis(2, fx), OpElement.basis(3, fy)
        sphere = bracket(S, OpElement.basis(2, sx), OpElement.basis(3, sy))
        assert len(bracket(F, x, y).coeffs) == len(sphere.coeffs) == 4

    def test_each_slot_split_is_computed_once(self, monkeypatch):
        """The framed page at d=9 (n <= 6, q <= 19) pushes each slot
        monomial through each n-fold diagonal once: the split is cached per
        slot monomial and inserted words, not per whole word.  The fourth
        generator (degree 15) fits the cap only in a label with no pair, on
        a slot that delta skips, so it alone is never split in two.  The
        framed columns are stored unconfirmed, so no codegeneracy pushes a
        monomial into the point (n = 0): every split is in two."""
        M = framed_multiplicative(9, 6, 19)
        hopf = M.operad.hopf
        coproduct = hopf.iterated_coproduct
        calls = []

        def counted(mon, n):
            calls.append((mon, n))
            return coproduct(mon, n)

        monkeypatch.setattr(hopf, "iterated_coproduct", counted)
        hochschild_homology(M, 6, 19)
        assert len(calls) == len(set(calls)) == 8
        assert {n for _, n in calls} == {2}

    @pytest.mark.parametrize(
        "d,n_max,cap", [(5, 4, 16), (7, 4, 20), (9, 4, 19), (5, 3, None)],
        ids=["d5", "d7", "d9", "d5-uncapped"],
    )
    def test_words_are_the_capped_product(self, d, n_max, cap):
        """The cap-pruned words give the labels of the full word product
        filtered by the cap: the same tuples in the same order, degree by
        degree, with the degrees in ascending order."""
        op = FramedOperad(sphere_operad(d, n_max, cap), build_so_hopf(d))
        deg = op.hopf.degree
        for n in range(n_max + 1):
            want: dict = {}
            for qb, base_labels in op.base.basis_by_degree(n).items():
                for word in itertools.product(op.hopf.monomials, repeat=n):
                    q = qb + sum(deg(w) for w in word)
                    if cap is None or q <= cap:
                        want.setdefault(q, []).extend((bl, word) for bl in base_labels)
            want = {q: tuple(sorted(want[q])) for q in sorted(want)}
            assert list(op.basis_by_degree(n).items()) == list(want.items()), n


class TestWitness:
    def test_differential_structure(self):
        for m in (2, 3):
            op = witness_operad(m)
            g = witness_generator(op, "g")
            h = witness_generator(op, "h")
            nu = witness_generator(op, "nu")
            assert op.differential(g).is_zero()
            dh = op.differential(h)
            want = (
                op.compose(nu, 2, g) + op.compose(nu, 1, g) - op.compose(g, 1, nu)
            )
            assert (dh - want).is_zero()
            assert check_d_squared(op).ok and check_leibniz(op).ok

    def test_a_witness_structure_is_padded_or_h1_broken_not_both(self):
        with pytest.raises(ValueError, match="not both"):
            witness_multiplicative(2, padded=True, break_h1=True)

    def test_padded_variants(self):
        padded = witness_operad(2, padded=True)
        broken = witness_operad(2, break_h1=True)
        for op in (padded, broken):
            assert check_d_squared(op).ok and check_leibniz(op).ok
        # the padding keeps H_1 of the arity-3 part zero; breaking drops it
        h1 = arity_complex(padded, 3).homology().per_degree[1]
        assert h1.reliable and h1.dim == 0
        h1b = arity_complex(broken, 3).homology().per_degree[1]
        assert h1b.reliable and h1b.dim == 1


class TestVectorBridge:
    def test_roundtrip(self):
        op = witness_operad(2)
        h = witness_generator(op, "h")
        v = element_to_vector(op, h, 8)
        back = vector_to_element(op, 2, 8, v)
        assert (back - h).is_zero()


class TestHomologyOperad:
    def test_witness_homology_operad(self):
        op = witness_operad(2)
        H = homology_operad(op)
        assert not H.has_differential()
        assert check_operad_axioms(H, samples=300).ok
        # g survives in arity 1 degree 7; h is not a cycle
        assert len(H.arity_degree_basis(1, 7)) == 1
        assert len(H.arity_degree_basis(2, 8)) == 0


@pytest.mark.parametrize(
    "build",
    [
        lambda: sphere_multiplicative(5, 4),
        lambda: framed_multiplicative(5, 4, 12),
        lambda: witness_multiplicative(2),
        lambda: witness_multiplicative(3, padded=True),
        lambda: poisson_multiplicative(5),
    ],
    ids=["sphere-d5", "framed-d5", "witness-m2", "padded-witness-m3", "poisson-d5"],
)
def test_hosts_hand_out_int_structure_constants(build):
    """A built-in host's structure constants are plain ints: every
    ``compose_basis`` with x in arity <= 3 under the cap (on the Poisson
    host, every entry of its table), ``diff_basis`` on every label, and
    below the arity cap every raw ``(label, coefficient)`` term of
    ``normal_delta`` on the normalized labels, before any sum, and the
    coboundary ``delta_on_label`` on every label."""
    M = build()
    op = M.operad
    X = mcclure_smith(M)

    def labels(n):
        return [l for ls in op.basis_by_degree(n).values() for l in ls]

    def ints(terms) -> bool:
        terms = list(terms)
        assert all(type(c) is int for _, c in terms), terms
        return bool(terms)

    composites = deltas = 0
    for m in range(1, 4):
        for n in range(op.max_arity + 2 - m):
            for xl, yl in itertools.product(labels(m), labels(n)):
                for i in range(1, m + 1):
                    try:
                        composites += ints(op.compose_basis(m, xl, i, n, yl).items())
                    except TruncationError:
                        pass
    for n in range(op.max_arity):
        for label in labels(n):
            deltas += ints(X.delta_on_label(n, label).items())
        if op.normal_delta is not None:
            top = max(op.basis_by_degree(n), default=0)
            for labels_q in op.normalized_basis(n, top).values():
                for label in labels_q:
                    deltas += ints(op.normal_delta(n, label))
    diffs = sum(ints(op.diff_basis(n, label).items())
                for n in range(op.max_arity + 1) for label in labels(n))
    assert composites > 20 and deltas and bool(diffs) == op.has_differential()

