"""Subquotient and QuotientSpace against the dense Gauss-Jordan oracle
``conftest.rref``."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SmallestIndexSubquotient, rref, sparse_entries
from operadlab.linalg import NoSolution, QuotientSpace, Subquotient


def in_span(v: list, vectors: list) -> bool:
    n = len(v)
    return len(rref(vectors + [v], n)[1]) == len(rref(vectors, n)[1])


def greedy_independent(cycles: list, boundaries: list) -> list:
    chosen: list = []
    for z in cycles:
        if not in_span(z, boundaries + chosen):
            chosen.append(z)
    return chosen


def free_column_reduce(v: list, subspace: list) -> tuple[list, list]:
    """(coordinates at the free columns, free columns) of v modulo the
    subspace, by subtracting RREF rows at their pivot columns."""
    rows, pivots = rref(subspace, len(v))
    w = [Fraction(x) for x in v]
    for row, pc in zip(rows, pivots):
        f = w[pc]
        w = [x - f * y for x, y in zip(w, row)]
    free = [c for c in range(len(v)) if c not in pivots]
    return [w[c] for c in free], free


@st.composite
def problems(draw):
    n = draw(st.integers(1, 5))
    vectors = st.lists(st.lists(sparse_entries, min_size=n, max_size=n), max_size=5)
    cycles, boundaries = draw(vectors), draw(vectors)
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=10, max_size=10))
    probe = draw(st.lists(sparse_entries, min_size=n, max_size=n))
    return n, cycles, boundaries, coeffs, probe


def combination(coeffs: list, vectors: list, n: int) -> list:
    out = [Fraction(0)] * n
    for c, v in zip(coeffs, vectors):
        out = [x + c * y for x, y in zip(out, v)]
    return out


@given(problems())
@settings(max_examples=100, deadline=None)
def test_representatives_are_the_greedy_independent_subset(problem):
    n, cycles, boundaries, _, _ = problem
    sq = Subquotient(n, cycles, boundaries)
    assert sq.representatives == greedy_independent(cycles, boundaries)
    assert sq.dim == len(sq.representatives)


@given(problems())
@settings(max_examples=100, deadline=None)
def test_coordinates_reconstruct_modulo_boundaries(problem):
    n, cycles, boundaries, coeffs, _ = problem
    sq = Subquotient(n, cycles, boundaries)
    v = combination(coeffs, cycles + boundaries, n)
    c = sq.coords(v)
    rest = [x - y for x, y in zip(v, combination(c, sq.representatives, n))]
    assert in_span(rest, boundaries)


@given(problems())
@settings(max_examples=100, deadline=None)
def test_no_solution_exactly_outside_the_span(problem):
    n, cycles, boundaries, _, probe = problem
    sq = Subquotient(n, cycles, boundaries)
    if in_span(probe, cycles + boundaries):
        assert len(sq.coords(probe)) == sq.dim
    else:
        with pytest.raises(NoSolution):
            sq.coords(probe)


@given(problems())
@settings(max_examples=100, deadline=None)
def test_quotient_space_is_the_free_column_reduction(problem):
    n, _, subspace, _, probe = problem
    Q = QuotientSpace(n, subspace)
    coords, free = free_column_reduce(probe, subspace)
    assert Q.reduce(probe) == coords
    assert Q.dim == len(free)
    assert Q.representatives == [
        [Fraction(int(i == c)) for i in range(n)] for c in free
    ]


# -- the pivot rule against the smallest-index elimination ---------------------

# non-unit integers as well, so that unit pivots are not always available
mixed_entries = st.one_of(sparse_entries, st.sampled_from([2, -2, 3]))


def dense(v, n: int) -> list:
    if isinstance(v, dict):
        return [Fraction(v.get(i, 0)) for i in range(n)]
    return [Fraction(x) for x in v]


@st.composite
def mixed_problems(draw):
    """Cycles and boundaries, each a dense list or a sparse map, and probes
    inside and outside their span."""
    n = draw(st.integers(1, 7))

    def vectors(max_size):
        vector = st.lists(mixed_entries, min_size=n, max_size=n)
        out = []
        for v in draw(st.lists(vector, max_size=max_size)):
            out.append({i: x for i, x in enumerate(v) if x} if draw(st.booleans()) else v)
        return out

    cycles, boundaries = vectors(7), vectors(5)
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=12, max_size=12))
    spanned = combination(coeffs, [dense(v, n) for v in cycles + boundaries], n)
    probes = [spanned, draw(st.lists(mixed_entries, min_size=n, max_size=n))]
    return n, cycles, boundaries, probes


def assert_lowest_row_pivots(sq: Subquotient, block=None) -> None:
    """Every stored row is 1 at its pivot and has no entry past it inside
    its block, and none in a smaller block."""
    key = (lambda c: (0, c)) if block is None else (lambda c: (-block(c), c))
    for lead, row, _ in sq.pivot_rows():
        assert row[lead] == 1 and max(row, key=key) == lead


@given(mixed_problems())
@settings(max_examples=100, deadline=None)
def test_pivot_choice_changes_no_readout(problem):
    """Lowest-row pivots, free or kept inside the smallest block a
    remainder touches, give the readouts of smallest-index pivots."""
    n, cycles, boundaries, probes = problem
    ref = SmallestIndexSubquotient(n, cycles, boundaries)
    for block in (None, lambda c: 2 * c % 3):
        sq = Subquotient(n, cycles, boundaries, block=block)
        assert_lowest_row_pivots(sq, block)
        assert sq.pivot_columns == ref.pivot_columns
        assert len(sq.representatives) == len(ref.representatives)
        assert all(a is b for a, b in zip(sq.representatives, ref.representatives))
        assert sq.dependent == {
            i: {k: c for k, c in cs.items() if c} for i, cs in ref.dependent.items()
        }
        # the rows differ, their span does not
        assert rref([dense(r, n) for r in sq.rows()], n) == rref(
            [dense(r, n) for r in ref.rows()], n
        )
        for v in probes:
            try:
                want = ref.sparse_coords(v)
            except NoSolution:
                with pytest.raises(NoSolution):
                    sq.sparse_coords(v)
                with pytest.raises(NoSolution):
                    sq.coords(v)
                continue
            got = sq.sparse_coords(v)
            assert got == want
            assert all(type(c) is int or c.denominator != 1 for c in got.values())
            assert sq.coords(v) == ref.coords(v)


def test_pivot_is_the_lowest_row_inside_the_smallest_block():
    """A remainder pivots at its largest index, inside the smallest block
    it touches when coordinates come in blocks, whatever its value there;
    the smallest-index pivots of the oracle are listed beside."""
    def halves(c):
        return c // 2

    cases = [
        (None, [[2, 1, 0, 0]], [1], [0]),
        (None, [[Fraction(1, 2), 0, -1, 0]], [2], [0]),
        (None, [[1, 1, 0, 0], [0, 1, 1, 0]], [1, 2], [0, 1]),  # reduced at 1 first
        (None, [[2, 1, 1, 0], [0, 1, 0, 0], [0, 1, 0, 0]], [2, 1], [0, 1]),
        (None, [[1, 0, 0, 3]], [3], [0]),  # not the unit
        (halves, [[1, 1, 1, 1]], [1], [0]),  # block 0 before the larger 3
        (halves, [[0, 0, 2, 1], [1, 0, 1, 0]], [3, 0], [2, 0]),
        (halves, [[1, 2, 0, 0], [1, 0, 0, 5]], [1, 0], [0, 1]),
    ]
    for block, vectors, leads, smallest in cases:
        sq = Subquotient(4, (), vectors, block=block)
        assert [lead for lead, _, _ in sq.pivot_rows()] == leads
        assert_lowest_row_pivots(sq, block)
        assert list(SmallestIndexSubquotient(4, (), vectors)._pivots) == smallest


@given(mixed_problems())
@settings(max_examples=100, deadline=None)
def test_extending_an_echelon_of_boundaries_is_one_subquotient(problem):
    """Cycles appended to an echelon of the boundaries, at once, in two
    parts, or stopped at the full quotient dim, give the representatives
    (by identity), coordinates and NoSolution set of ``Subquotient(n,
    cycles, boundaries)``; run to the end, also its kernel."""
    n, cycles, boundaries, probes = problem
    whole = Subquotient(n, cycles, boundaries)
    for parts, stop in (([cycles], None), ([cycles[:2], cycles[2:]], None),
                        ([cycles], whole.dim)):
        sq = Subquotient(n, (), boundaries)
        for part in parts:
            sq.extend(part, stop=stop)
        assert len(sq.representatives) == whole.dim
        assert all(a is b for a, b in zip(sq.representatives, whole.representatives))
        if stop is None:
            assert sq.pivot_columns == whole.pivot_columns
            assert sq.dependent == whole.dependent and sq.kernel() == whole.kernel()
        for v in probes + cycles + boundaries:
            try:
                want = whole.coords(v)
            except NoSolution:
                with pytest.raises(NoSolution):
                    sq.coords(v)
                continue
            assert sq.coords(v) == want
