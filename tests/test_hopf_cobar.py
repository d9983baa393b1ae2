"""Exterior Hopf coalgebras of rotation groups and their cobar homology."""

import itertools
from fractions import Fraction

import pytest
from conftest import COBAR_GRID

from operadlab import complexes
from operadlab.cosimplicial import hochschild_dims
from operadlab.hopf import (
    BidegreeWindow,
    CobarComplex,
    PrimitiveExteriorHopf,
    build_so_hopf,
    cobar_homology,
    cobar_homology_total_dims,
)
from operadlab.instances import framed_multiplicative
from operadlab.operads import combine


def free_commutative_bigraded(gens, t_max):
    """Monomial-count oracle: dims of the free graded-commutative algebra
    on bigraded generators (square-free when total degree is odd)."""

    def rec(i, budget):
        if i == len(gens):
            yield (0, 0)
            return
        (p0, q0) = gens[i]
        e_max = 1 if (p0 + q0) % 2 else budget // (p0 + q0)
        for e in range(e_max + 1):
            for (p, q) in rec(i + 1, budget - e * (p0 + q0)):
                yield (p + e * p0, q + e * q0)

    out: dict = {}
    for (p, q) in rec(0, t_max):
        if p + q <= t_max:
            out[(p, q)] = out.get((p, q), 0) + 1
    return out


class TestHopfStructure:
    def test_generator_degrees(self):
        assert build_so_hopf(5, "full").gen_degrees == [3, 7]
        assert build_so_hopf(7, "full").gen_degrees == [3, 7, 11]
        assert build_so_hopf(5, "fixing-subgroup").gen_degrees == [3, 3]
        assert build_so_hopf(7, "fixing-subgroup").gen_degrees == [3, 7, 5]

    def test_coproduct_counital_and_coassociative(self):
        H = build_so_hopf(7, "full")
        for mon in H.monomials:
            cop = H.coproduct(mon)
            # counit: the (unit, mon) and (mon, unit) components are 1
            assert cop.get(((), mon)) == 1
            assert cop.get((mon, ())) == 1
            # coassociativity on two-sided iterations
            left: dict = {}
            right: dict = {}
            for (a, b), c in cop.items():
                for (a1, a2), c2 in H.coproduct(a).items():
                    left[(a1, a2, b)] = left.get((a1, a2, b), Fraction(0)) + c * c2
                for (b1, b2), c2 in H.coproduct(b).items():
                    right[(a, b1, b2)] = right.get((a, b1, b2), Fraction(0)) + c * c2
            assert {k: v for k, v in left.items() if v} == {
                k: v for k, v in right.items() if v
            }

    def test_even_degree_generator_rejected(self):
        with pytest.raises(ValueError):
            PrimitiveExteriorHopf([("bad", 2)])


def _times(H, x: dict, y: dict) -> dict:
    """Product of two combinations of monomials."""
    out: dict = {}
    for a, ca in x.items():
        for b, cb in y.items():
            res = H.product(a, b)
            if res is not None:
                out[res[1]] = out.get(res[1], 0) + ca * cb * res[0]
    return {k: v for k, v in out.items() if v}


def _repeated_coproduct(H, mon, n: int) -> dict:
    """The n-fold diagonal by splitting the last factor again and again;
    n = 0 is the counit."""
    if n == 0:
        return {(): Fraction(1)} if not mon else {}
    table: dict = {(mon,): Fraction(1)}
    for _ in range(n - 1):
        new: dict = {}
        for word, c in table.items():
            for (l, r), c2 in H.coproduct(word[-1]).items():
                key = word[:-1] + (l, r)
                new[key] = new.get(key, 0) + c * c2
        table = new
    return {k: v for k, v in table.items() if v}


@pytest.mark.parametrize("variant", ["full", "fixing-subgroup"])
@pytest.mark.parametrize("d", [5, 7, 9])
class TestHopfLaws:
    """The laws that fix an exterior Hopf algebra on primitive odd
    generators, independent of how its signs are computed."""

    def test_product_associative_and_graded_commutative(self, d, variant):
        H = build_so_hopf(d, variant)
        for a, b in itertools.product(H.monomials, repeat=2):
            ab, ba = _times(H, {a: 1}, {b: 1}), _times(H, {b: 1}, {a: 1})
            sign = (-1) ** (H.degree(a) * H.degree(b))
            assert ba == {k: sign * v for k, v in ab.items()}
            for c in H.monomials:
                assert _times(H, ab, {c: 1}) == _times(H, {a: 1}, _times(H, {b: 1}, {c: 1}))

    def test_generators_in_increasing_order_multiply_with_plus_one(self, d, variant):
        H = build_so_hopf(d, variant)
        for a, b in itertools.product(H.monomials, repeat=2):
            if not a or not b or a[-1] < b[0]:
                assert H.product(a, b) == (1, a + b)

    def test_coproduct_is_an_algebra_map(self, d, variant):
        H = build_so_hopf(d, variant)
        for g in range(len(H.generators)):
            assert H.coproduct((g,)) == {((g,), ()): 1, ((), (g,)): 1}
        for a, b in itertools.product(H.monomials, repeat=2):
            res = H.product(a, b)
            lhs = {} if res is None else {
                k: res[0] * v for k, v in H.coproduct(res[1]).items()
            }
            rhs: dict = {}
            for (a1, a2), ca in H.coproduct(a).items():
                for (b1, b2), cb in H.coproduct(b).items():
                    sign = (-1) ** (H.degree(a2) * H.degree(b1))
                    for l, cl in _times(H, {a1: 1}, {b1: 1}).items():
                        for r, cr in _times(H, {a2: 1}, {b2: 1}).items():
                            rhs[(l, r)] = rhs.get((l, r), 0) + sign * ca * cb * cl * cr
            assert lhs == {k: v for k, v in rhs.items() if v}

    def test_iterated_coproduct_is_repeated_splitting(self, d, variant):
        H = build_so_hopf(d, variant)
        for mon in H.monomials:
            for n in range(5):
                assert H.iterated_coproduct(mon, n) == _repeated_coproduct(H, mon, n)


    def test_signs_are_ints(self, d, variant):
        """The diagonals and the product hand out plain int signs."""
        H = build_so_hopf(d, variant)
        for a in H.monomials:
            for n in range(4):
                assert all(type(c) is int for c in H.iterated_coproduct(a, n).values())
            for b in H.monomials:
                res = H.product(a, b)
                assert res is None or type(res[0]) is int


class TestCobarComplex:
    def test_differential_squares_to_zero(self):
        """d o d = 0 on every word, and d hands out raw terms with int
        coefficients, summed here before they are composed."""
        cb = CobarComplex(build_so_hopf(5, "full"), BidegreeWindow(-4, 14))
        nonzero = 0
        for (p, q), words in cb._words_by_bidegree.items():
            for w in words:
                raw = cb.differential_word(w)
                assert all(type(c) is int for _, c in raw), w
                dw = combine(raw)
                nonzero += bool(dw)
                dd: dict = {}
                for w1, c1 in dw.items():
                    for w2, c2 in combine(cb.differential_word(w1)).items():
                        dd[w2] = dd.get(w2, Fraction(0)) + c1 * c2
                assert all(v == 0 for v in dd.values())
        assert nonzero

    @pytest.mark.parametrize("variant", ["full", "fixing-subgroup"])
    @pytest.mark.parametrize("d", [5, 7, 9])
    def test_words_are_the_product_enumeration(self, d, variant):
        H, window = build_so_hopf(d, variant), BidegreeWindow(-4, 18)
        letters = [m for m in H.monomials if m]
        want: dict = {}
        for k in range(-window.p_min + 1):
            for word in itertools.product(letters, repeat=k):
                q = sum(H.degree(m) for m in word)
                if q <= window.q_max:
                    want.setdefault((-k, q), []).append(word)
        cb = CobarComplex(H, window)
        for p in range(window.p_min, 1):
            for q in range(window.q_max + 1):
                assert cb.basis(p, q) == sorted(want.get((p, q), [])), (p, q)

    def test_word_bigrading(self):
        cb = CobarComplex(build_so_hopf(5, "full"), BidegreeWindow(-3, 10))
        for (p, q), words in cb._words_by_bidegree.items():
            for w in words:
                assert len(w) == -p
                assert sum(cb.hopf.degree(m) for m in w) == q


class TestWords:
    @pytest.mark.parametrize("d,n_max,q_max", [(5, 6, 16), (7, 4, 13)], ids=["d5", "d7"])
    def test_words_are_the_product_words_that_fit(self, d, n_max, q_max, monkeypatch):
        """For every (n, room, bare) that the framed certificate window asks
        for, raw and normalized, the degree-sorted words are, as a set
        without repeats, the itertools.product words that fit the room
        with every bare slot nonempty."""
        asked = set()
        words = PrimitiveExteriorHopf.words

        def spy(self, n, room, bare):
            asked.add((n, room, tuple(bare)))
            return words(self, n, room, bare)

        monkeypatch.setattr(PrimitiveExteriorHopf, "words", spy)
        M = framed_multiplicative(d, n_max, q_max)
        hochschild_dims(M, n_max, q_max)
        for n in range(n_max + 1):
            M.operad.basis_by_degree(n)
        monkeypatch.undo()
        assert any(bare for _, _, bare in asked) and any(not bare for _, _, bare in asked)
        H = build_so_hopf(d)
        for n, room, bare in sorted(asked):
            got = H.words(n, room, bare)
            want = set()
            for word in itertools.product(H.monomials, repeat=n):
                q = sum(H.degree(m) for m in word)
                if q <= room and all(word[k - 1] for k in bare):
                    want.add((word, q))
            assert len(got) == len(set(got)) and set(got) == want, (n, room, bare)


class TestCobarHomology:
    @pytest.mark.parametrize("d", [5, 7])
    def test_bigraded_dims_are_free_commutative(self, d):
        m = (d - 1) // 2
        gens = [(-1, 4 * i - 1) for i in range(1, m + 1)]
        expected = free_commutative_bigraded(gens, 12)
        kmax = 12 // 2 + 1
        dims = cobar_homology(
            build_so_hopf(d, "full"), BidegreeWindow(-kmax, 12 + kmax)
        )
        got = {pos: v for pos, v in dims.items() if sum(pos) <= 12}
        assert got == expected

    def test_dims_are_the_reliable_nonzero_cells_of_the_rows(self, monkeypatch):
        """On every window of the grid, open lower edges included, the table
        is the reliable nonzero cells of each fixed-q row's ``homology``, and
        reading it builds no class: ``homology`` and ``row_reduce`` raise."""
        windows = [
            (build_so_hopf(d, variant), BidegreeWindow(p_min, q_max))
            for d, variant, p_min, q_max in COBAR_GRID
        ]
        want = []
        for hopf, window in windows:
            cb = CobarComplex(hopf, window)
            want.append({
                (p, q): h.dim
                for q in cb.degrees()
                for p, h in cb.complex_at_q(q).homology().per_degree.items()
                if h.reliable and h.dim
            })

        def forbidden(*args):
            raise AssertionError("a dims-only readout built classes")

        monkeypatch.setattr(complexes, "homology", forbidden)
        monkeypatch.setattr(complexes, "row_reduce", forbidden)
        assert [cobar_homology(hopf, window) for hopf, window in windows] == want

    def test_total_dims_d5(self):
        # polynomial algebra on degrees 2 and 6
        assert cobar_homology_total_dims(build_so_hopf(5, "full"), 12) == {
            0: 1, 2: 1, 4: 1, 6: 2, 8: 2, 10: 2, 12: 3,
        }

    def test_fixing_subgroup_d5_is_two_polynomial_generators(self):
        dims = cobar_homology_total_dims(build_so_hopf(5, "fixing-subgroup"), 8)
        assert dims == {0: 1, 2: 2, 4: 3, 6: 4, 8: 5}

    @pytest.mark.parametrize("variant", ["full", "fixing-subgroup"])
    def test_total_dims_d7_are_polynomial(self, variant):
        # letters with three generators (b1 b2 e at q=15) enter the window,
        # so the Koszul sign of each split's left factor matters
        hopf = build_so_hopf(7, variant)
        gens = [(-1, deg) for deg in hopf.gen_degrees]
        expected: dict = {}
        for (p, q), dim in free_commutative_bigraded(gens, 16).items():
            expected[p + q] = expected.get(p + q, 0) + dim
        assert cobar_homology_total_dims(hopf, 16) == expected

    def test_total_dims_refuse_a_degree_one_generator(self):
        """A degree-1 letter adds nothing to p + q, so no total bounds the
        word length: refused with a reason, not a ZeroDivisionError."""
        hopf = PrimitiveExteriorHopf([("a", 1), ("b", 3)])
        with pytest.raises(ValueError, match="degree-1 generator"):
            cobar_homology_total_dims(hopf, 4)
