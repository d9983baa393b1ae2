"""Exterior Hopf algebras on primitive odd generators, their cobar
complexes, and cobar homology as dimensions read off the ranks alone.

The model covers the rational homology of the rotation groups: the full
group in odd dimension d = 2m+1 is exterior on generators of degree
4i-1 (i = 1..m); the subgroup fixing a vector is exterior on the first
m-1 of those together with one extra generator of degree 2m-1.  All
generators are primitive for the diagonal, which pins the whole
coalgebra structure.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass

from .complexes import ChainComplexWindow, complex_from_rule, homology_dims, totals_by_degree

# A monomial is a sorted tuple of generator indices (square-free).
Monomial = tuple


def koszul_sign(seq) -> int:
    """(-1) to the number of inversions of ``seq``.

    For odd symbols listed with the keys of their target places, this is
    the Koszul sign of moving them into sorted order: every sign of the
    exterior Hopf structure and of the framing is one such count.
    """
    inversions = sum(a > b for a, b in itertools.combinations(seq, 2))
    return -1 if inversions % 2 else 1


class PrimitiveExteriorHopf:
    """Exterior algebra on named primitive generators of odd degree; its
    2^m monomials are built on first use, so reading generators is O(m)."""

    def __init__(self, generators: list[tuple[str, int]]):
        for name, deg in generators:
            if deg % 2 == 0 or deg <= 0:
                raise ValueError(f"generator {name} must have positive odd degree")
        if len({n for n, _ in generators}) != len(generators):
            raise ValueError("duplicate generator names")
        self.generators = list(generators)
        self.gen_degrees = [d for _, d in generators]

    @functools.cached_property
    def _degree(self) -> dict:  # monomial -> degree, by size then lexicographically
        m = len(self.generators)
        return {mon: sum(self.gen_degrees[i] for i in mon)
                for k in range(m + 1) for mon in itertools.combinations(range(m), k)}

    @property
    def monomials(self) -> list[Monomial]:
        return list(self._degree)

    @property
    def unit(self) -> Monomial:
        return ()

    def degree(self, mon: Monomial) -> int:
        return self._degree[mon]

    def product(self, a: Monomial, b: Monomial) -> tuple[int, Monomial] | None:
        """(sign, a*b), or None when a generator repeats."""
        if set(a) & set(b):
            return None
        return koszul_sign(a + b), tuple(sorted(a + b))

    def coproduct(self, mon: Monomial) -> dict:
        """Full diagonal: dict (left, right) -> coefficient."""
        return self.iterated_coproduct(mon, 2)

    def reduced_coproduct(self, mon: Monomial) -> dict:
        return {
            (l, r): c
            for (l, r), c in self.coproduct(mon).items()
            if l and r
        }

    def iterated_coproduct(self, mon: Monomial, n: int) -> dict:
        """n-fold diagonal: dict (mon_1, ..., mon_n) -> coefficient.

        Primitive generators give one term per assignment of mon's
        generators to the n factors, signed by the Koszul sign of that
        assignment.  n = 0 gives the counit (empty tuple key), n = 1 the
        identity.
        """
        return {
            tuple(tuple(g for g, a in zip(mon, factors) if a == j) for j in range(n)):
            koszul_sign(factors)
            for factors in itertools.product(range(n), repeat=len(mon))
        }

    @functools.cached_property
    def _by_degree(self) -> tuple:  # the (monomial, degree) pairs sorted by degree; the degrees
        mons = sorted(self._degree.items(), key=lambda mq: mq[1])
        return mons, [q for _, q in mons]

    def words(self, n: int, room, bare) -> list:
        """(word, degree) for the n-slot words of monomials of degree at
        most room.  A slot in ``bare`` takes only nonempty monomials, and
        each partial word keeps room for the bare slots after it: it takes
        the prefix of the degree-sorted monomials that fits."""
        mons, degs = self._by_degree
        words = [((), 0)] if room >= 0 else []
        for k in range(1, n + 1):  # a bare slot skips the unit, the one monomial of degree 0
            left = room - min(self.gen_degrees) * sum(b > k for b in bare)
            words = [(w + (m,), qw + qm) for w, qw in words
                     for m, qm in mons[int(k in bare):bisect.bisect_right(degs, left - qw)]]
        return words


def build_so_hopf(d: int, variant: str = "full") -> PrimitiveExteriorHopf:
    """Rational homology of the rotation group in odd dimension d >= 5.

    ``full``: generators b_1..b_m of degrees 4i-1, m = (d-1)/2.
    ``fixing-subgroup``: the subgroup fixing a vector; generators
    b_1..b_{m-1} plus e of degree 2m-1.
    """
    if d % 2 == 0 or d < 5:
        raise ValueError("d must be odd and at least 5")
    m = (d - 1) // 2
    if variant == "full":
        gens = [(f"b{i}", 4 * i - 1) for i in range(1, m + 1)]
    elif variant == "fixing-subgroup":
        gens = [(f"b{i}", 4 * i - 1) for i in range(1, m)] + [("e", 2 * m - 1)]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return PrimitiveExteriorHopf(gens)


# -- cobar complex -----------------------------------------------------------

# A word is a tuple of nonempty monomials; bidegree (p, q) with
# p = -len(word), q = sum of monomial degrees.  The differential applies the
# reduced diagonal in each slot and has bidegree (-1, 0).


@dataclass(frozen=True)
class BidegreeWindow:
    p_min: int  # most negative cosimplicial degree (inclusive)
    q_max: int  # largest internal degree (inclusive)


class CobarComplex:
    """Tensor words in the reduced coalgebra with the cobar differential."""

    def __init__(self, hopf: PrimitiveExteriorHopf, window: BidegreeWindow):
        self.hopf = hopf
        self.window = window
        self.min_letter_degree = min(hopf.gen_degrees)
        self._words_by_bidegree: dict = {}
        self._enumerate_words()

    def _enumerate_words(self):
        q_max = self.window.q_max
        for k in range(min(-self.window.p_min, q_max // self.min_letter_degree) + 1):
            for word, q in self.hopf.words(k, q_max, range(1, k + 1)):
                self._words_by_bidegree.setdefault((-k, q), []).append(word)
        for key in self._words_by_bidegree:
            self._words_by_bidegree[key].sort()

    def degrees(self) -> list:  # the internal degrees q that hold words
        return sorted({q for (_, q) in self._words_by_bidegree})

    def basis(self, p: int, q: int) -> list:
        return self._words_by_bidegree.get((p, q), [])

    def differential_word(self, word) -> list:
        """Cobar differential of a single word as its unsummed ``(word,
        coefficient)`` terms, which ``complex_at_q`` hands to ``assemble``.

        Slot j of the word is replaced by each split l (x) r of its reduced
        diagonal with the sign (-1)^{(sum of degrees of slots < j) + j + |l|}
        (slots counted from zero); |l| is the Koszul sign of the left
        factor.  The convention is validated by the d^2 = 0 suite.
        """
        terms = []
        for j, letter in enumerate(word):
            presum = sum(self.hopf.degree(m) for m in word[:j])
            for (l, r), c in self.hopf.reduced_coproduct(letter).items():
                sign = -1 if (presum + j + self.hopf.degree(l)) % 2 else 1
                terms.append((word[:j] + (l, r) + word[j + 1 :], sign * c))
        return terms

    def complex_at_q(self, q: int) -> ChainComplexWindow:
        """The cobar complex at fixed internal degree q, graded by p.

        Word length is bounded by q, so the complex is complete in p
        whenever the window allows all lengths up to q / (minimum letter
        degree); otherwise the low-p edge is flagged: d also exits the
        lowest kept p, and that map is zero only when no longer words exist.
        """
        return complex_from_rule(
            {p: words for (p, qq), words in self._words_by_bidegree.items() if qq == q},
            lambda p, word: self.differential_word(word),
            complete_below=-self.window.p_min >= q // self.min_letter_degree,
        )


def cobar_homology(hopf: PrimitiveExteriorHopf, window: BidegreeWindow) -> dict:
    """Bigraded cobar homology as (p, q) -> dim at every reliable bidegree
    with a class, each fixed-q complex read off the ranks alone by
    ``homology_dims``: no class or representative is built.  A cell at an
    open lower edge of p is unreliable and left out."""
    cb = CobarComplex(hopf, window)
    rows = ((q, homology_dims(cb.complex_at_q(q))) for q in cb.degrees())
    return {(p, q): k for q, dims in rows for p, k in dims.items() if k}


def cobar_homology_total_dims(hopf: PrimitiveExteriorHopf, total_max: int) -> dict:
    """Cobar homology by total degree p + q <= total_max: the totals of
    ``cobar_homology`` on a window holding every word of those degrees.  A
    total with no class is left out, where ``abutment_dims`` holds a 0.
    Refused for a degree-1 generator, whose letters bound no word length."""
    mind = min(hopf.gen_degrees)
    if mind == 1:
        raise ValueError("a degree-1 generator leaves the word length unbounded by total degree")
    # a word of length k has q >= mind * k, so t = q - k >= (mind - 1) k
    kmax = total_max // (mind - 1) + 1
    window = BidegreeWindow(p_min=-kmax, q_max=total_max + kmax)
    return totals_by_degree(cobar_homology(hopf, window), total_max)
