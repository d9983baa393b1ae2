"""Exact sparse linear algebra: reduction, kernels, solving, quotients.

The readouts of the two eliminations, ``rank`` off the lowest-row
reduction and ``row_reduce``, ``kernel``, ``kernel_basis`` and
``solve_particular`` off the ``Subquotient`` echelon, are compared exactly
with the dense Gauss-Jordan oracle ``conftest.rref``.
"""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rref, sparse_entries
from operadlab.linalg import (
    NoSolution,
    QuotientSpace,
    RationalMatrix,
    Subquotient,
    _div,
    assemble,
    dense,
    is_zero_vec,
    kernel_basis,
    lowest_rows,
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
@settings(max_examples=60, deadline=None)
def test_rank_counts_the_lowest_rows(problem):
    """``rank`` is the number of ``lowest_rows`` of the columns, each
    stored with a nonzero entry at its low row and the rest below it; it
    builds no ``Subquotient`` and equals the dense oracle's rank."""
    rows, _, _ = problem
    M = mat(rows)

    def refuse(self, *args, **kwargs):
        raise AssertionError("rank built a Subquotient")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Subquotient, "__init__", refuse)
        r = rank(M)
        lows = lowest_rows(M.columns())
    assert r == len(lows) == len(rref(rows, M.cols)[1])
    assert all(p and max(rest, default=-1) < low for low, (p, rest) in lows.items())


@given(sparse_problems())
# column 1 reduced by column 0 keeps 3/2 - 1/2 over its low of -1
@example(([[Fraction(1, 2), Fraction(3, 2)], [0, -1], [1, 1]], [0, 0, 0], [0, 0]))
@settings(max_examples=100, deadline=None)
def test_a_seeded_row_is_its_kept_column_divided_at_its_low(problem):
    """``Subquotient.of_lows`` makes each kept column, divided by its entry
    at its low, the pivot row there, in decreasing low order: a column
    with a low of 1 is taken as it is, and every other entry has the value
    and the type that ``_div`` gives it, a low of -1 too."""
    rows, _, _ = problem
    M = mat(rows)
    lows = lowest_rows(M.columns())
    want = [
        (low, {**(rest if p == 1 else {r: _div(x, p) for r, x in rest.items()}), low: 1})
        for low, (p, rest) in sorted(lows.items(), reverse=True)
    ]
    got = [(low, row) for low, row, _ in Subquotient.of_lows(M.rows, lows).pivot_rows()]
    assert got == want
    assert [list(map(type, row.values())) for _, row in got] == [
        list(map(type, row.values())) for _, row in want
    ]


@given(sparse_problems())
# column 1 reduced by column 0 keeps 3/2 - 1/2 = 1 under its low
@example(([[Fraction(1, 2), Fraction(3, 2)], [0, -1], [1, 1]], [0, 0, 0], [0, 0]))
@settings(max_examples=100, deadline=None)
def test_lowest_rows_stores_an_int_wherever_a_value_is_integral(problem):
    """Every value ``lowest_rows`` keeps, at a low and in the rest of its
    column, is nonzero and an int exactly when it is integral."""
    rows, _, _ = problem
    lows = lowest_rows(mat(rows).columns())
    assert all(_exact_values({low: p, **rest}) for low, (p, rest) in lows.items())


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


def _inserted(E: Subquotient) -> int:
    """How many cycles E holds, read without inserting the pending ones."""
    return len(E._pivots) + len(E._dependent)


def _coords_or_none(E: Subquotient, v):
    try:
        return E.sparse_coords(v)
    except NoSolution:
        return None


@given(sparse_problems(), st.integers(0, 6), st.booleans())
@settings(max_examples=150, deadline=None)
def test_a_partial_read_of_the_relations_changes_no_readout(problem, k, read_on_lazily):
    """``row_reduce(M).relations()`` is ``kernel()`` read lazily: after k
    relations, M's columns are in up to the k-th dependent one.  Read on,
    by the rest of the relations or at once by another reader, every
    readout equals that of an echelon read whole at once.  ``kernel_basis``
    and ``solve_particular`` meet the dense oracle on the same problems
    above."""
    rows, b, coeffs = problem
    M = mat(rows)
    eager = row_reduce(M)
    kernel = eager.kernel()
    lazy = row_reduce(M)
    first = list(islice(lazy.relations(), k))
    assert first == kernel[:k]
    if len(first) < k:  # the relations ran out, so every column is in
        assert _inserted(lazy) == M.cols
    else:
        assert _inserted(lazy) == (max(first[-1]) + 1 if first else 0)
    if read_on_lazily:
        assert first + list(lazy.relations()) == kernel
    assert lazy.pivot_columns == eager.pivot_columns
    assert lazy.dependent == eager.dependent
    assert lazy.kernel() == kernel
    assert lazy.pivot_rows() == eager.pivot_rows()
    for rhs in (b, M.matvec(coeffs)):
        assert _coords_or_none(lazy, rhs) == _coords_or_none(eager, rhs)


@given(sparse_problems(), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_reading_k_relations_touches_only_the_columns_inserted(problem, k):
    """``row_reduce(M)`` hands its columns over one at a time: after k
    relations, ``Subquotient._sparse`` has run on M's columns up to the
    k-th dependent one, in order, and on no other vector."""
    rows, _, _ = problem
    M = mat(rows)
    seen = []
    sparse = Subquotient._sparse

    def counting(self, v):
        seen.append(dict(v))
        return sparse(self, v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Subquotient, "_sparse", counting)
        first = list(islice(row_reduce(M).relations(), k))
    read = max(first[-1]) + 1 if len(first) == k else M.cols
    assert seen == M.columns()[:read]


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
    lead, row, row_coords = E.pivot_rows()[0]
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


@st.composite
def sparse_products(draw):
    """A matrix and a vector with zero, unit, non-unit, fractional and
    integral-Fraction entries."""
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = st.one_of(sparse_entries, st.sampled_from([2, -3, Fraction(4, 2), Fraction(-3)]))
    rows = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))
    return rows, draw(st.lists(entries, min_size=c, max_size=c))


def _exact_values(x: dict) -> bool:
    """No zeros, and an int exactly where a value is integral."""
    return all(
        v != 0 and type(v) is (int if Fraction(v).denominator == 1 else Fraction)
        for v in x.values()
    )


@given(sparse_products())
@settings(max_examples=200, deadline=None)
def test_apply_is_the_dense_product(problem):
    """apply on a sparse vector is the dense Fraction product with its zeros
    dropped, ints where integral, and a kernel vector maps to nothing;
    matvec and matmul hand out the same product as Fractions."""
    rows, x = problem
    M = mat(rows)
    want = [sum((Fraction(a) * b for a, b in zip(row, x)), Fraction(0)) for row in rows]
    sparse_x = {j: v for j, v in enumerate(x) if v}
    y = M.apply(sparse_x)
    assert y == {i: v for i, v in enumerate(want) if v} and _exact_values(y)
    assert sparse_x == {j: v for j, v in enumerate(x) if v}
    assert M.matvec(x) == want and _all_fractions(M.matvec(x))
    P = M.matmul(mat([[v] for v in x]))
    assert P.columns() == [y] and _exact_values(P.columns()[0])
    assert _all_fractions(P.entries.values())
    for k in kernel_basis(M):
        assert M.apply({j: v for j, v in enumerate(k) if v}) == {}
    with pytest.raises(ValueError):
        M.matvec(x + [1])


# -- storage: int columns inside, Fractions at the edge -----------------------


def test_an_integer_matrix_stores_int_columns_and_hands_out_fractions():
    M = mat([[1, 2, 0], [0, -1, Fraction(3, 2)]])
    assert M.columns() == [{0: 1}, {0: 2, 1: -1}, {1: Fraction(3, 2)}]
    values = [v for col in M.columns() for v in col.values()]
    assert [type(v) for v in values] == [int, int, int, Fraction]
    assert M.entries == {(0, 0): 1, (0, 1): 2, (1, 1): -1, (1, 2): Fraction(3, 2)}
    assert _all_fractions(M.entries.values())


def test_columns_hands_out_new_maps():
    M = mat([[1, 0], [2, 3]])
    entries = M.entries
    cols = M.columns()
    cols[0][1] = 7
    cols[1].clear()
    assert M.columns() == [{0: 1, 1: 2}, {1: 3}]
    assert M.entries == entries and M == mat([[1, 0], [2, 3]])


def test_assemble_stores_no_cancelled_entry():
    """Terms that cancel leave no zero behind, and integral sums of
    Fractions are stored as ints."""
    images = {
        "a": [("x", 1), ("y", Fraction(1, 2)), ("x", -1), ("y", Fraction(1, 2))],
        "b": [("x", Fraction(2)), ("y", 3), ("y", -3)],
        "c": [("y", 1), ("y", -1)],
    }
    M = assemble("abc", {"x": 0, "y": 1}, lambda label: images[label])
    assert M.columns() == [{1: 1}, {0: 2}, {}]
    assert all(type(v) is int for col in M.columns() for v in col.values())
    assert M == RationalMatrix(2, 3, M.entries) == mat([[0, 2, 0], [1, 0, 0]])


@pytest.mark.parametrize("rows,cols", [(0, 0), (2, 0), (0, 3), (2, 3)])
def test_the_three_constructors_agree(rows, cols):
    """The entries constructor, ``from_columns`` and ``assemble`` build
    equal matrices, zero ones included, and agree on ``is_zero``."""
    zeros = [
        RationalMatrix.zero(rows, cols),
        RationalMatrix(rows, cols),
        RationalMatrix(rows, cols, {(r, c): 0 for r in range(rows) for c in range(cols)}),
        RationalMatrix.from_columns([[0] * rows for _ in range(cols)], rows),
        assemble(range(cols), {r: r for r in range(rows)}, lambda label: ()),
    ]
    assert all(Z == zeros[0] and Z.is_zero() and Z.entries == {} for Z in zeros)
    assert all(Z.columns() == [{}] * cols for Z in zeros)
    assert RationalMatrix.zero(rows + 1, cols) != zeros[0]
    if rows and cols:
        dense_cols = [[Fraction(r - c, 2) for r in range(rows)] for c in range(cols)]
        built = [
            RationalMatrix(rows, cols, {(r, c): v for c, col in enumerate(dense_cols)
                                        for r, v in enumerate(col)}),
            RationalMatrix.from_columns(dense_cols, rows),
            assemble(range(cols), {r: r for r in range(rows)},
                     lambda c: enumerate(dense_cols[c])),
        ]
        assert all(M == built[0] and not M.is_zero() for M in built)
        assert all(M.entries == built[0].entries for M in built)
        assert built[0] != zeros[0]
