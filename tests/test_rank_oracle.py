"""The exact homology dims against an independent rank count mod 2^61 - 1
(``mod_p_homology_dims``), on every reliable cell of the cobar and
Hochschild rows the tier-1 windows build."""

import random
from fractions import Fraction

import pytest
from conftest import COBAR_GRID, mod_p_homology_dims, random_complex

from operadlab.complexes import ChainComplexWindow, GradedSpace, homology_dims
from operadlab.cosimplicial import _rows_in_p
from operadlab.hopf import BidegreeWindow, CobarComplex, build_so_hopf
from operadlab.instances import framed_multiplicative, sphere_multiplicative
from operadlab.linalg import RationalMatrix


def cobar_rows() -> list:
    rows = []
    for d, variant, p_min, q_max in COBAR_GRID:
        cb = CobarComplex(build_so_hopf(d, variant), BidegreeWindow(p_min, q_max))
        rows += [cb.complex_at_q(q) for q in cb.degrees()]
    return rows


def hochschild_rows(M, n_max: int, q_max: int) -> list:
    return [C for _, C in _rows_in_p(M, n_max, q_max)[1]]


WINDOWS = {
    "cobar-grid": cobar_rows,
    "sphere-d5": lambda: hochschild_rows(sphere_multiplicative(5, 8, 16), 8, 16),
    "framed-d5": lambda: hochschild_rows(framed_multiplicative(5, 6, 16), 6, 16),
    **{
        f"framed-d{d}": (lambda d=d: hochschild_rows(
            framed_multiplicative(d, d - 3, 3 * d - 8), d - 3, 3 * d - 8
        ))
        for d in (7, 9, 11, 13)
    },
}


@pytest.mark.parametrize("window", list(WINDOWS))
def test_exact_dims_equal_the_dims_mod_p(window):
    rows = WINDOWS[window]()
    exact = [homology_dims(C) for C in rows]
    assert [mod_p_homology_dims(C) for C in rows] == exact
    assert any(k for dims in exact for k in dims.values())


def test_the_oracle_reads_the_known_homology_of_random_complexes():
    """Random integral complexes of known homology, assembled from
    elementary pieces and conjugated by integer changes of basis; an open
    edge leaves out that degree only."""
    rng = random.Random(4001)
    for _ in range(60):
        C, expected = random_complex(rng)
        assert mod_p_homology_dims(C) == expected
        lo, hi = C.window
        for edge, q in (({"complete_below": False}, lo), ({"complete_above": False}, hi)):
            C_edge = ChainComplexWindow(C.space, C.differential, C.window, **edge)
            assert mod_p_homology_dims(C_edge) == {k: v for k, v in expected.items() if k != q}


def test_a_non_integral_entry_is_refused():
    space = GradedSpace({0: ("a",), 1: ("b",)})
    C = ChainComplexWindow(space, {1: RationalMatrix(1, 1, {(0, 0): Fraction(1, 2)})}, (0, 1))
    with pytest.raises(ValueError, match="non-integral entry"):
        mod_p_homology_dims(C)
