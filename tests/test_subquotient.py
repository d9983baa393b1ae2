"""Subquotient and QuotientSpace against the dense Gauss-Jordan oracle
``conftest.rref``."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rref, sparse_entries
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
    assert Q.contains(probe) == all(x == 0 for x in coords)
