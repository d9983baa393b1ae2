"""Pinned tallies of the law checkers.

Every checker counts each check once: checked, skipped (the check left
the truncation) or failed.  The counts below are fixed inputs' answers;
a change in how a checker enumerates or tallies its checks moves them.
"""

import itertools
from fractions import Fraction

import pytest

from operadlab.gerstenhaber import (
    check_antisymmetry,
    check_bracket_derivation,
    check_delta_compat,
    check_jacobi,
    check_pre_lie,
)
from operadlab.instances import (
    MultiplicativeStructure,
    poisson_operad_small,
    witness_multiplicative,
)
from operadlab.operads import (
    OpElement,
    check_d_squared,
    check_leibniz,
    check_operad_axioms,
)


def _witness():
    return witness_multiplicative(2), 7


def _broken_unit_poisson():
    # 1 o_1 1 = 2 * 1 breaks both unit laws on the unit itself
    op = poisson_operad_small(5).corrupted((1, "1", 1, 1, "1"), {"1": Fraction(2)})
    return MultiplicativeStructure(op, OpElement.basis(2, "m")), 1


def _basis(op, arities):
    return [
        OpElement.basis(n, l)
        for n in arities
        for _, labels in sorted(op.basis_by_degree(n).items())
        for l in labels
    ]


def _tallies(M, stride):
    op = M.operad
    elems = _basis(op, (1, 2))
    triples = list(itertools.product(elems, repeat=3))[::stride]
    # the zero element has no shifted degree: its pairs are skipped
    pairs = [(x, y) for x in elems + [OpElement.zero(2)] for y in elems]
    reports = {
        "axioms": check_operad_axioms(op),
        "leibniz": check_leibniz(op),
        "d-squared": check_d_squared(op),
        "antisymmetry": check_antisymmetry(op, elems),
        "jacobi": check_jacobi(op, triples),
        "pre-lie": check_pre_lie(op, triples),
        "delta-compat": check_delta_compat(M, _basis(op, (1, 2, 3))),
        "derivation": check_bracket_derivation(op, pairs),
    }
    return {k: (r.checked, r.skipped, len(r.failures)) for k, r in reports.items()}


# (checked, skipped, failures) per checker
EXPECTED = {
    "witness": {
        "axioms": (1552, 9951, 0),
        "leibniz": (412, 751, 0),
        "d-squared": (70, 0, 0),
        "antisymmetry": (89, 200, 0),
        "jacobi": (35, 667, 0),
        "pre-lie": (36, 666, 0),
        "delta-compat": (17, 53, 0),
        "derivation": (89, 217, 12),
    },
    "broken-unit-poisson": {
        "axioms": (122, 0, 32),
        "leibniz": (39, 0, 0),
        "d-squared": (9, 0, 0),
        "antisymmetry": (9, 0, 0),
        "jacobi": (23, 4, 0),
        "pre-lie": (20, 7, 4),
        "delta-compat": (3, 6, 0),
        "derivation": (9, 3, 0),
    },
}


@pytest.mark.parametrize(
    "name,build",
    [("witness", _witness), ("broken-unit-poisson", _broken_unit_poisson)],
)
def test_checker_tallies_are_pinned(name, build):
    assert _tallies(*build()) == EXPECTED[name]


def test_unit_laws_count_once_per_element():
    """Both unit laws fail on the corrupted unit, but the element is one
    check: its two failures name the left and the right law."""
    M, _ = _broken_unit_poisson()
    report = check_operad_axioms(M.operad)
    unit = [f for f in report.failures if f.kind.startswith("unit")]
    assert [(f.kind, f.detail[0]) for f in unit] == [("unit-left", 1), ("unit-right", 1)]
