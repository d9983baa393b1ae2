"""``homology``'s classes against the smallest-index class route as oracle.

``homology`` seeds each degree's boundaries from the lowest-row reduction
of ``homology_dims`` and reads the relations of d_q only until the
quotient is full.  The oracle eliminates by another pivot rule and in code
of its own: the smallest-index echelons of
``conftest.smallest_index_echelons``, extended at a degree with a class
by the whole kernel of ``row_reduce(d_q)``.  The two routes share only
spans and column order; representatives and class coordinates must still
agree exactly: on every row of sphere d=5 n <= 8 q <= 16 and framed d=5
n <= 6 q <= 16, on the witness and padded-witness arity and total
complexes, and on the random complexes of ``test_rank_oracle`` (60, as
they are and rescaled to non-integral entries, each with either edge
open).
"""

import random
from itertools import islice

import pytest
from conftest import smallest_index_echelons
from test_rank_oracle import hochschild_rows, random_cases

from operadlab import complexes
from operadlab.complexes import (
    ChainComplexWindow,
    _class_counts,
    homology,
)
from operadlab.cosimplicial import HochschildComplex, mcclure_smith
from operadlab.instances import (
    arity_complex,
    framed_multiplicative,
    sphere_multiplicative,
    witness_multiplicative,
    witness_operad,
)
from operadlab.linalg import NoSolution, Subquotient, _div, dense, rank, row_reduce


def smallest_index_quotients(C: ChainComplexWindow) -> dict:
    """q -> the quotient of the smallest-index route: the echelon of
    ``smallest_index_echelons``, extended at a degree with a class by the
    kernel of d_q, read whole, until it holds dim H_q representatives."""
    echelons = smallest_index_echelons(C)
    counts = _class_counts(C, {q: len(E.rows()) for q, E in echelons.items()})
    for q, E in echelons.items():
        if counts[q]:
            E.extend(row_reduce(C.d(q)).kernel(), stop=counts[q])
    return echelons


def assert_echelon(quotient: Subquotient) -> None:
    """Each pivot row is 1 at its pivot and 0 at every earlier row's."""
    leads: set = set()
    for lead, row, _ in quotient.pivot_rows():
        assert row[lead] == 1 and not leads & row.keys()
        leads.add(lead)


def _combination(rng: random.Random, vectors) -> dict:
    out: dict = {}
    for v in vectors:
        c = rng.randint(-2, 2)
        for i, x in v.items():
            out[i] = out.get(i, 0) + c * x
    return {i: x for i, x in out.items() if x}


def _coords(quotient: Subquotient, v: dict) -> dict | None:
    try:
        return quotient.sparse_coords(v)
    except NoSolution:
        return None


def assert_classes_match_the_oracle(C: ChainComplexWindow, rng: random.Random) -> None:
    """Equal sparse and dense representatives at every degree, the
    echelon invariant on every quotient, and equal class coordinates of
    each representative, of random cycles plus boundaries (found at every
    reliable degree) and of random vectors (NoSolution on both sides off
    the cycles, and at an unreliable degree off the quotient)."""
    H, oracle = homology(C), smallest_index_quotients(C)
    assert H.degrees() == sorted(oracle)
    hi = C.window[1]
    for q, E in oracle.items():
        h, n = H.per_degree[q], C.dim(q)
        assert h.quotient.representatives == E.representatives
        assert h.representatives == [dense(z, n) for z in E.representatives]
        assert_echelon(h.quotient)
        # the first few relations of d_q are cycles; add a boundary
        relations = list(islice(row_reduce(C.d(q)).relations(), 6))
        cycles = []
        for _ in range(3):
            z = _combination(rng, relations + list(E.representatives))
            if q < hi:
                x = {j: rng.randint(-2, 2) for j in range(C.dim(q + 1))}
                z = _combination(rng, [z, C.d(q + 1).apply(x)])
            cycles.append(z)
        for z in list(E.representatives) + cycles:
            want = _coords(E, z)
            assert _coords(h.quotient, z) == want
            assert want is not None or not C.reliable(q)
        v = {i: rng.randint(-2, 2) for i in range(n)}
        assert _coords(h.quotient, v) == _coords(E, v)


def witness_rows() -> list:
    rows = []
    for m, padded in ((2, False), (2, True), (3, True)):
        op = witness_operad(m, padded=padded)
        rows += [arity_complex(op, n) for n in range(op.max_arity + 1)]
    for M, q_max in ((witness_multiplicative(2), 10),
                     (witness_multiplicative(3, padded=True), 26)):
        rows.append(HochschildComplex(mcclure_smith(M), q_max).spectral_sequence().total_complex())
    return rows


WINDOWS = {
    "sphere-d5": lambda: hochschild_rows(sphere_multiplicative(5, 8, 16), 8, 16),
    "framed-d5": lambda: hochschild_rows(framed_multiplicative(5, 6, 16), 6, 16),
    "witness": witness_rows,
    "random": random_cases,
}


@pytest.mark.parametrize("window", list(WINDOWS))
def test_classes_equal_the_smallest_index_route(window):
    rng = random.Random(4903)
    rows = WINDOWS[window]()
    for C in rows:
        assert_classes_match_the_oracle(C, rng)
    assert any(h.dim for C in rows for h in homology(C).per_degree.values())


def _increasing_lows(ambient_dim, lows):
    sq = Subquotient(ambient_dim, ())
    for low in sorted(lows):
        p, rest = lows[low]
        sq._rank[low] = len(sq._rows)
        sq._rows.append((low, {**{r: _div(x, p) for r, x in rest.items()}, low: 1}, {}))
    return sq


def _undivided_lows(ambient_dim, lows):
    sq = Subquotient(ambient_dim, ())
    for low in sorted(lows, reverse=True):
        p, rest = lows[low]
        sq._rank[low] = len(sq._rows)
        sq._rows.append((low, {**rest, low: p}, {}))
    return sq


def _matches(C, rng) -> bool:
    try:
        assert_classes_match_the_oracle(C, rng)
    except (AssertionError, NoSolution):
        return False
    return True


@pytest.mark.parametrize("seed", [_increasing_lows, _undivided_lows], ids=["increasing", "undivided"])
def test_a_wrongly_seeded_quotient_fails_the_oracle(seed, monkeypatch):
    """Seeded rows in increasing-low order break the echelon invariant.
    Every readout stays right, as ``_reduce`` queues a pivot again when a
    later row refills it, so only the invariant check catches them.  Rows
    left undivided by their entry at the low break it too, and leave a
    remainder at their pivot, so classes and coordinates move."""
    rng = random.Random(4905)
    cases = random_cases() + WINDOWS["sphere-d5"]()
    monkeypatch.setattr(Subquotient, "of_lows", staticmethod(seed))
    assert not all(_matches(C, rng) for C in cases)


def test_the_saving_in_counts(monkeypatch):
    """On sphere d=5, n <= 8, q <= 16, ``homology`` inserts no vector into
    an echelon of boundaries and seeds each quotient with rank d_{q+1}
    rows (481 in all).  At its 8 degrees with a class it inserts 65 of the
    473 columns of d_q; only the degrees of 1, 1 and 3 columns need them
    all."""
    rows = WINDOWS["sphere-d5"]()
    seeded, reductions, boundaries = [], [], []
    of_lows, insert = Subquotient.of_lows, Subquotient._insert

    def counting_of_lows(ambient_dim, lows):
        sq = of_lows(ambient_dim, lows)
        seeded.append(len(sq.rows()))
        return sq

    def counting_row_reduce(M):
        E = row_reduce(M)
        reductions.append((M, E))
        return E

    def counting_insert(self, w, rep):
        if rep is None:
            boundaries.append(w)
        return insert(self, w, rep)

    monkeypatch.setattr(Subquotient, "of_lows", staticmethod(counting_of_lows))
    monkeypatch.setattr(Subquotient, "_insert", counting_insert)
    monkeypatch.setattr(complexes, "row_reduce", counting_row_reduce)
    ranks = []
    for C in rows:
        homology(C)
        lo, hi = C.window
        ranks += [rank(C.d(q + 1)) if q < hi else 0 for q in range(hi, lo - 1, -1)]
    assert boundaries == [] and seeded == ranks and sum(ranks) == 481
    # columns inserted, read without inserting the rest
    inserted = [(len(E._pivots) + len(E._dependent), M.cols) for M, E in reductions]
    assert inserted == [(1, 1), (1, 1), (2, 3), (3, 3), (2, 15), (12, 30), (2, 105), (42, 315)]
