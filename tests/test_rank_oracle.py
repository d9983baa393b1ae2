"""The exact homology dims against three oracles, on every reliable cell
of the cobar and Hochschild rows the tier-1 windows build: an independent
rank count mod 2^61 - 1 (``mod_p_homology_dims``), which pivots by the
lowest-row rule of ``homology_dims`` but over another field; the ranks of
the smallest-index echelons of ``conftest.smallest_index_echelons``, which
pivot by another rule; and the ranks of ``boundary_echelons``, the
incremental ``Subquotient`` elimination with coordinates.  No module reads
``boundary_echelons`` since ``homology`` seeds its quotients from the
lowest rows; it stays in ``complexes`` as this oracle."""

import random
from fractions import Fraction

import pytest
from conftest import COBAR_GRID, mod_p_homology_dims, random_complex, smallest_index_echelons

from operadlab import linalg
from operadlab.complexes import (
    ChainComplexWindow,
    GradedSpace,
    _class_counts,
    boundary_echelons,
    homology_dims,
)
from operadlab.cosimplicial import HochschildComplex, _rows_in_p, hochschild_dims, mcclure_smith
from operadlab.hopf import BidegreeWindow, CobarComplex, build_so_hopf, cobar_homology
from operadlab.instances import (
    framed_multiplicative,
    sphere_multiplicative,
    witness_multiplicative,
)
from operadlab.linalg import RationalMatrix, Subquotient, lowest_rows


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


def echelon_dims(C: ChainComplexWindow, echelons: dict) -> dict:
    """The reliable part of ``_class_counts`` on the ranks read off the rows
    of ``echelons`` (q -> an echelon of the boundaries of degree q)."""
    ranks = {q: len(E.rows()) for q, E in echelons.items()}
    return {q: k for q, k in _class_counts(C, ranks).items() if C.reliable(q)}


def smallest_index_dims(C: ChainComplexWindow) -> dict:
    """The counts of the smallest-index route."""
    return echelon_dims(C, smallest_index_echelons(C))


def rescaled(C: ChainComplexWindow, rng: random.Random) -> ChainComplexWindow:
    """C in the basis of its basis vectors scaled by random nonzero
    rationals, d_q becoming S_{q-1}^-1 d_q S_q: the same homology, on
    mostly non-integral entries."""
    scale = {
        q: [Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5))
            for _ in range(C.dim(q))]
        for q in range(C.window[0], C.window[1] + 1)
    }
    differential = {
        q: RationalMatrix(M.rows, M.cols, {
            (r, c): v * scale[q][c] / scale[q - 1][r] for (r, c), v in M.entries.items()
        })
        for q, M in C.differential.items()
    }
    return ChainComplexWindow(C.space, differential, C.window, C.complete_below, C.complete_above)


def random_cases() -> list:
    """60 random complexes, as they are and rescaled, each with either
    edge declared open."""
    rng = random.Random(4003)
    cases = []
    for _ in range(60):
        C, _ = random_complex(rng)
        for D in (C, rescaled(C, rng)):
            for edge in ({}, {"complete_below": False}, {"complete_above": False}):
                cases.append(ChainComplexWindow(D.space, D.differential, D.window, **edge))
    return cases


def padded_witness_total() -> list:
    H = HochschildComplex(mcclure_smith(witness_multiplicative(3, padded=True), 3), q_max=26)
    return [H.spectral_sequence().total_complex()]


ORACLE_WINDOWS = {**WINDOWS, "padded-witness-total": padded_witness_total, "random": random_cases}


@pytest.mark.parametrize("window", list(ORACLE_WINDOWS))
def test_lowest_row_dims_equal_the_smallest_index_dims(window):
    rows = ORACLE_WINDOWS[window]()
    exact = [homology_dims(C) for C in rows]
    assert [smallest_index_dims(C) for C in rows] == exact
    assert [echelon_dims(C, boundary_echelons(C)) for C in rows] == exact


def test_the_random_cases_reach_what_the_mod_p_oracle_refuses():
    """The rescaled cases hold non-integral entries, which only the
    echelon oracles take."""
    cases = random_cases()
    refused = 0
    for C in cases:
        try:
            mod_p_homology_dims(C)
        except ValueError:
            refused += 1
    assert 0 < refused < len(cases)


def _dims_cleared_two_degrees_up(C: ChainComplexWindow) -> dict:
    """``homology_dims`` cleared with the lows of the wrong degree: d_{q+1}
    skips its columns at the lowest rows of d_{q+3}, not of d_{q+2}."""
    lo, hi = C.window
    ranks, lows, older = {hi: 0}, {}, {}
    for q in range(hi - 1, lo - 1, -1):
        older, lows = lows, lowest_rows(
            [col for j, col in enumerate(C.d(q + 1).columns()) if j not in older]
        )
        ranks[q] = len(lows)
    return {q: k for q, k in _class_counts(C, ranks).items() if C.reliable(q)}


def test_clearing_with_the_wrong_lows_fails_the_oracle():
    cases = random_cases()
    assert any(_dims_cleared_two_degrees_up(C) != smallest_index_dims(C) for C in cases)


def test_a_non_unit_pivot_taken_as_a_unit_fails_the_oracle(monkeypatch):
    """``lowest_rows`` dividing by every pivot as by a unit, by
    multiplying: a step leaves a wrong multiple wherever a pivot is not
    +-1, and the dims move."""
    cases = random_cases()
    want = [smallest_index_dims(C) for C in cases]
    monkeypatch.setattr(linalg, "_div", lambda x, p: linalg._exact(x * p))
    assert [homology_dims(C) for C in cases] != want


def test_the_dims_readers_build_no_subquotient(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a Subquotient was built")

    cases = random_cases()
    monkeypatch.setattr(Subquotient, "__init__", refuse)
    assert any(homology_dims(C) for C in cases)
    assert any(hochschild_dims(sphere_multiplicative(5, 6, 16), 6, 16).values())
    assert any(hochschild_dims(framed_multiplicative(5, 4, 12), 4, 12).values())
    assert cobar_homology(build_so_hopf(7, "full"), BidegreeWindow(-3, 27))
