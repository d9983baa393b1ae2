"""Exact sparse linear algebra: reduction, kernels, solving, quotients.

The readouts of the one elimination (``rank``, ``row_reduce``, ``kernel``,
``kernel_basis``, ``solve_particular``) are compared exactly with the
dense Gauss-Jordan oracle ``conftest.rref``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rref, sparse_entries
from operadlab.linalg import (
    NoSolution,
    QuotientSpace,
    RationalMatrix,
    dense,
    is_zero_vec,
    kernel_basis,
    rank,
    row_reduce,
    solve_particular,
    vec,
)


def mat(rows):
    entries = {
        (i, j): Fraction(v)
        for i, r in enumerate(rows)
        for j, v in enumerate(r)
        if v
    }
    return RationalMatrix(len(rows), len(rows[0]) if rows else 0, entries)


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-4, 4), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


class TestRowReduce:
    def test_known_rank(self):
        M = mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert rank(M) == 2
        assert row_reduce(M).pivot_columns == [0, 1]

    def test_identity_full_rank(self):
        M = mat([[1, 0], [0, 1]])
        assert row_reduce(M).pivot_columns == [0, 1]

    @given(small_matrices)
    @settings(max_examples=60, deadline=None)
    def test_echelon_is_the_dense_rref(self, rows):
        M = mat(rows)
        R, pivots = rref(rows, M.cols)
        E = row_reduce(M)
        assert E.pivot_columns == pivots
        # a dependent column's coordinates are its entries of the RREF
        for f, coords in E.dependent.items():
            assert [coords.get(i, 0) for i in range(len(pivots))] == [r[f] for r in R]


class TestKernel:
    def test_kernel_of_zero_map_is_everything(self):
        M = RationalMatrix.zero(2, 3)
        assert len(kernel_basis(M)) == 3

    def test_kernel_dimension(self):
        M = mat([[1, 2, 3], [2, 4, 6]])
        assert len(kernel_basis(M)) == 2

    @given(small_matrices)
    @settings(max_examples=60, deadline=None)
    def test_kernel_vectors_annihilate(self, rows):
        M = mat(rows)
        basis = kernel_basis(M)
        assert len(basis) == M.cols - rank(M)
        for v in basis:
            assert is_zero_vec(M.matvec(v))


class TestSolve:
    def test_solves_consistent_system(self):
        M = mat([[1, 1], [0, 1]])
        x = solve_particular(M, vec([3, 1]))
        assert M.matvec(x) == vec([3, 1])

    def test_inconsistent_raises(self):
        M = mat([[1, 1], [2, 2]])
        with pytest.raises(NoSolution):
            solve_particular(M, vec([1, 1]))

    @given(small_matrices, st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_image_vectors_always_solvable(self, rows, coeffs):
        M = mat(rows)
        b = M.matvec(vec(coeffs[: M.cols]))
        x = solve_particular(M, b)
        assert M.matvec(x) == b


class TestQuotient:
    def test_reduce_vanishes_exactly_on_subspace(self):
        Q = QuotientSpace(3, [vec([1, 1, 0])])
        assert Q.dim == 2
        assert is_zero_vec(Q.reduce(vec([2, 2, 0])))
        assert not is_zero_vec(Q.reduce(vec([1, 0, 0])))

    def test_representatives_plus_subspace_span(self):
        sub = [vec([1, 0, 1]), vec([0, 1, 1])]
        Q = QuotientSpace(3, sub)
        assert len(Q.representatives) == Q.dim == 1
        assert Q.reduce(Q.representatives[0]) == vec([1])

    def test_reduce_is_linear(self, rng):
        Q = QuotientSpace(4, [vec([1, 2, 0, 0]), vec([0, 0, 1, 1])])
        for _ in range(20):
            a = vec([Fraction(rng.randint(-3, 3)) for _ in range(4)])
            b = vec([Fraction(rng.randint(-3, 3)) for _ in range(4)])
            lhs = Q.reduce([x + y for x, y in zip(a, b)])
            rhs = [x + y for x, y in zip(Q.reduce(a), Q.reduce(b))]
            assert lhs == rhs


def test_deterministic_pivoting():
    M = mat([[0, 1, 1], [1, 1, 0]])
    again = mat([[0, 1, 1], [1, 1, 0]])
    assert row_reduce(M).pivot_columns == row_reduce(again).pivot_columns


# -- readouts against the dense oracle ---------------------------------------


@st.composite
def sparse_problems(draw):
    """Dense rows of a sparse rational matrix, a right-hand side and
    integer coefficients for an image vector."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    row = st.lists(sparse_entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    b = draw(st.lists(sparse_entries, min_size=nrows, max_size=nrows))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=ncols, max_size=ncols))
    return rows, b, coeffs


@given(sparse_problems())
@settings(max_examples=150, deadline=None)
def test_rank_pivots_and_kernel_equal_the_oracle(problem):
    rows, _, _ = problem
    M = mat(rows)
    R, pivots = rref(rows, M.cols)
    assert rank(M) == len(pivots)
    assert row_reduce(M).pivot_columns == pivots
    expected = []
    for f in range(M.cols):
        if f in pivots:
            continue
        v = [Fraction(int(j == f)) for j in range(M.cols)]
        for r, pc in zip(R, pivots):
            v[pc] = -r[f]
        expected.append(v)
    assert kernel_basis(M) == expected
    kernel = row_reduce(M).kernel()
    assert [dense(k, M.cols) for k in kernel] == expected
    assert all(all(k.values()) for k in kernel)


@given(sparse_problems())
@settings(max_examples=150, deadline=None)
def test_solve_particular_equals_the_oracle(problem):
    rows, b, coeffs = problem
    M = mat(rows)
    for rhs in (vec(b), M.matvec(coeffs)):
        augmented = [r + [x] for r, x in zip(rows, rhs)]
        R, pivots = rref(augmented, M.cols + 1)
        if M.cols in pivots:  # b is not in the image
            with pytest.raises(NoSolution):
                solve_particular(M, rhs)
            continue
        x = [Fraction(0)] * M.cols
        for r, pc in zip(R, pivots):
            x[pc] = r[M.cols]
        assert solve_particular(M, rhs) == x


def _stored_values(sq):
    """Every value the elimination keeps: pivot rows, their coordinates
    and the dependent coordinates."""
    for _, row, row_coords in sq._rows:
        yield from row.values()
        yield from row_coords.values()
    for coords in sq.dependent.values():
        yield from coords.values()


def _all_fractions(values) -> bool:
    return all(type(x) is Fraction for x in values)


def test_integer_rows_inside_fractions_at_the_boundary():
    """An integer matrix with unit pivots is eliminated on ints only,
    and every readout is still made of Fractions."""
    rows = [[1, 2, 0, 3], [0, 1, -1, 2], [1, 3, -1, 5]]
    M = mat(rows)
    E = row_reduce(M)
    assert E.pivot_columns == [0, 1]
    values = list(_stored_values(E))
    assert values and all(type(x) is int for x in values)
    assert _all_fractions(M.entries.values())
    assert _all_fractions(E.coords([1, 1, 2]))
    kernel = kernel_basis(M)
    assert len(kernel) == 2 and all(_all_fractions(v) for v in kernel)
    x = solve_particular(M, [1, 1, 2])
    assert _all_fractions(x) and M.matvec(x) == [1, 1, 2]
    assert _all_fractions(M.matvec([1, 0, 2, -1]))
    Q = QuotientSpace(3, [[1, 0, 1], [2, 1, 3]])
    assert all(type(Q.reduce(v)[0]) is Fraction for v in ([1, 0, 0], [0, 0, 1], [5, 2, 7]))
    assert all(_all_fractions(r) for r in Q.representatives)


def test_a_fraction_appears_only_where_a_non_unit_pivot_divides():
    E = row_reduce(mat([[2, 1, 4]]))
    lead, row, row_coords = E._rows[0]
    assert lead == 0
    assert row == {0: 1} and type(row[0]) is int
    assert row_coords == {0: Fraction(1, 2)}
    assert E.dependent == {1: {0: Fraction(1, 2)}, 2: {0: 2}}
    assert type(E.dependent[2][0]) is int


# -- products, summed on ints -------------------------------------------------


@st.composite
def products(draw):
    """Two composable matrices with sparse, non-unit and fractional entries."""
    r, k, c = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = st.one_of(sparse_entries, st.sampled_from([2, -3]))
    a = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=r, max_size=r))
    b = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=k, max_size=k))
    return a, b


def dense_product(a, b):
    return [
        [sum((Fraction(a[i][m]) * b[m][j] for m in range(len(b))), Fraction(0))
         for j in range(len(b[0]))]
        for i in range(len(a))
    ]


@given(products())
@settings(max_examples=150, deadline=None)
def test_matmul_equals_the_dense_product(problem):
    a, b = problem
    A = mat(a)
    # kernel columns of A after b's own, so that some entries cancel to zero
    kernel = kernel_basis(A)
    b = [row + [v[m] for v in kernel] for m, row in enumerate(b)]
    P = A.matmul(mat(b))
    want = dense_product(a, b)
    assert (P.rows, P.cols) == (len(a), len(b[0]))
    assert P.entries == {
        (i, j): v for i, row in enumerate(want) for j, v in enumerate(row) if v
    }
    assert all(v != 0 and type(v) is Fraction for v in P.entries.values())
    # the kernel columns cancel exactly
    assert not any(j >= len(b[0]) - len(kernel) for _, j in P.entries)
