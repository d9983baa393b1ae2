"""Chain-complex windows: homology, boundaries, tensor products."""

import random
from fractions import Fraction

import pytest

from conftest import random_complex, reference_homology
from operadlab import complexes
from operadlab.complexes import (
    ChainComplexWindow,
    GradedSpace,
    NotABoundary,
    NotACycle,
    WindowBoundary,
    is_boundary_with_witness,
    tensor,
)
from operadlab.linalg import (
    NoSolution,
    RationalMatrix,
    is_zero_vec,
    kernel_basis,
    row_reduce,
    vec,
)


def interval_complex():
    """0 -> Q -> Q^2 -> 0 with d(e) = b - a: homology of a segment."""
    space = GradedSpace({0: ("a", "b"), 1: ("e",)})
    d1 = RationalMatrix(2, 1, {(0, 0): Fraction(-1), (1, 0): Fraction(1)})
    return ChainComplexWindow(space, {1: d1}, (0, 1))


class TestHomology:
    def test_interval(self):
        H = interval_complex().homology()
        assert H.per_degree[0].dim == 1
        assert H.per_degree[1].dim == 0

    def test_representatives_are_cycles(self):
        C = interval_complex()
        H = C.homology()
        for q, h in H.per_degree.items():
            for r in h.representatives:
                if q - 1 >= C.window[0]:
                    assert is_zero_vec(C.apply_d(q, r))

    def test_random_complexes_match_construction(self, rng):
        for _ in range(120):
            C, expected = random_complex(rng)
            H = C.homology()
            got = {q: H.per_degree[q].dim for q in expected}
            assert got == expected

    def test_class_coordinates_kill_boundaries(self, rng):
        for _ in range(25):
            C, _ = random_complex(rng)
            H = C.homology()
            lo, hi = C.window
            for q in range(lo + 1, hi + 1):
                if C.dim(q) == 0 or C.dim(q - 1) == 0:
                    continue
                v = vec([Fraction(rng.randint(-2, 2)) for _ in range(C.dim(q))])
                b = C.apply_d(q, v)
                assert is_zero_vec(H.per_degree[q - 1].class_coordinates(b))

    def test_non_cycle_raises_not_a_cycle_in_every_degree(self):
        # degree 1 of the interval has no classes and no boundaries
        H = interval_complex().homology()
        assert H.per_degree[1].dim == 0
        assert H.per_degree[1].class_coordinates(vec([0])) == []
        with pytest.raises(NotACycle):
            H.per_degree[1].class_coordinates(vec([1]))
        # degree 1 here has a class (y) and a boundary (z); x is no cycle
        space = GradedSpace({0: ("a",), 1: ("x", "y", "z"), 2: ("w",)})
        d1 = RationalMatrix(1, 3, {(0, 0): Fraction(1)})
        d2 = RationalMatrix(3, 1, {(2, 0): Fraction(1)})
        h = ChainComplexWindow(space, {1: d1, 2: d2}, (0, 2)).homology().per_degree[1]
        assert h.dim == 1 and h.class_coordinates(vec([0, 0, 1])) == vec([0])
        assert h.class_coordinates(vec([0, 3, 5])) == vec([3])
        with pytest.raises(NotACycle):
            h.class_coordinates(vec([1, 0, 0]))
        # one type, and still a NoSolution for callers that catch that
        assert issubclass(NotACycle, NoSolution)

    def test_matches_the_reference_algorithm(self, rng):
        for _ in range(60):
            C, _ = random_complex(rng)
            # the same differentials, and the same with one edge declared open
            for edge in ({}, {"complete_below": False}, {"complete_above": False}):
                C_edge = ChainComplexWindow(C.space, C.differential, C.window, **edge)
                assert_matches_reference(C_edge, rng)

    def test_kernel_basis_only_where_homology_survives(self, rng, monkeypatch):
        """One coordinate echelon (``row_reduce``, read for its kernel) per
        degree with homology, and none elsewhere."""
        calls = []

        def counting(M):
            calls.append(M)
            return row_reduce(M)

        monkeypatch.setattr(complexes, "row_reduce", counting)
        for _ in range(40):
            C, _ = random_complex(rng)
            calls.clear()
            H = C.homology()
            assert len(calls) == sum(1 for h in H.per_degree.values() if h.dim)


def assert_matches_reference(C, rng):
    """Equal dims, representatives (exact Fractions), class coordinates of
    random cycles and NotACycle on the same non-cycles as
    ``reference_homology``."""
    def random_vec(n):
        return vec([rng.randint(-2, 2) for _ in range(n)])

    H, ref = C.homology(), reference_homology(C)
    lo, hi = C.window
    assert H.degrees() == sorted(ref)
    for q, sq in ref.items():
        h, n = H.per_degree[q], C.dim(q)
        assert h.dim == sq.dim
        assert h.representatives == sq.representatives
        assert all(type(x) is Fraction for r in h.representatives for x in r)
        if not C.reliable(q):
            with pytest.raises(WindowBoundary):
                h.class_coordinates(random_vec(n))
            continue
        kernel = kernel_basis(C.d(q))
        for _ in range(3):
            # a random cycle plus, below the top, a random boundary
            z = RationalMatrix.from_columns(kernel, n).matvec(random_vec(len(kernel)))
            if q < hi:
                b = C.apply_d(q + 1, random_vec(C.dim(q + 1)))
                z = [x + y for x, y in zip(z, b)]
            assert h.class_coordinates(z) == sq.coords(z)
            v = random_vec(n)
            if q > lo and not is_zero_vec(C.apply_d(q, v)):
                with pytest.raises(NotACycle):
                    h.class_coordinates(v)
                with pytest.raises(NoSolution):
                    sq.coords(v)


class TestBoundaries:
    def test_witness_recovers_boundary(self, rng):
        for _ in range(25):
            C, _ = random_complex(rng)
            lo, hi = C.window
            for q in range(lo + 1, hi + 1):
                if C.dim(q) == 0 or C.dim(q - 1) == 0:
                    continue
                v = vec([Fraction(rng.randint(-2, 2)) for _ in range(C.dim(q))])
                b = C.apply_d(q, v)
                w = is_boundary_with_witness(C, q - 1, b)
                assert C.apply_d(q, w) == b

    def test_nonboundary_raises(self):
        C = interval_complex()
        with pytest.raises(NotABoundary):
            is_boundary_with_witness(C, 0, vec([1, 0]))


class TestTensor:
    def test_square_of_tensor_differential_vanishes(self, rng):
        for _ in range(10):
            A, _ = random_complex(rng, max_deg=3)
            B, _ = random_complex(rng, max_deg=3)
            tensor(A, B)  # constructor asserts d^2 = 0

    def test_kunneth_dims(self, rng):
        hits = 0
        for _ in range(30):
            A, ha = random_complex(rng, max_deg=3)
            B, hb = random_complex(rng, max_deg=3)
            T = tensor(A, B)
            HT = T.homology()
            for t in range(0, 7):
                conv = sum(
                    ha.get(i, 0) * hb.get(t - i, 0) for i in range(t + 1)
                )
                got = HT.per_degree[t].dim if t in HT.per_degree else 0
                assert got == conv
                hits += 1
        assert hits >= 100

    def test_kunneth_on_interval_square(self):
        T = tensor(interval_complex(), interval_complex())
        H = T.homology()
        assert {q: h.dim for q, h in H.per_degree.items() if h.dim} == {0: 1}


def test_reliability_flags():
    C = interval_complex()
    assert C.reliable(0) and C.reliable(1)
    space = GradedSpace({0: ("a",), 1: ("x",)})
    truncated = ChainComplexWindow(
        space, {1: RationalMatrix.zero(1, 1)}, (0, 1), complete_above=False
    )
    assert truncated.reliable(0) and not truncated.reliable(1)


def test_dd_checked_through_fractional_entries():
    """d1 d2 has integer parts 1 - 1 = 0 and a fractional part 1/2, so the
    check must see the Fractions; halves that cancel pass."""
    space = GradedSpace({0: ("a",), 1: ("e", "f"), 2: ("s",)})
    d1 = RationalMatrix(1, 2, {(0, 0): Fraction(1), (0, 1): Fraction(1)})
    bad = RationalMatrix(2, 1, {(0, 0): Fraction(3, 2), (1, 0): Fraction(-1)})
    with pytest.raises(ValueError, match="d ∘ d != 0"):
        ChainComplexWindow(space, {1: d1, 2: bad}, (0, 2))
    good = RationalMatrix(2, 1, {(0, 0): Fraction(1, 2), (1, 0): Fraction(-1, 2)})
    assert ChainComplexWindow(space, {1: d1, 2: good}, (0, 2)).homology().dims() == {
        0: 0, 1: 0, 2: 0
    }
