"""Operad interface, free chain operads on trees, axiom checkers."""

import itertools
import random
import re
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_free_basis, reference_free_compose, reference_free_diff
from operadlab.instances import (
    framed_multiplicative,
    poisson_operad_small,
    poisson_structure_constants,
    sphere_operad,
    witness_operad,
)
from operadlab.operads import (
    LEAF,
    DegreeOverflow,
    OpElement,
    TableOperad,
    check_d_squared,
    check_leibniz,
    check_operad_axioms,
    combine,
    parse_free_operad,
)


class TestOpElement:
    def test_algebra(self):
        x = OpElement.basis(2, "a") + OpElement.basis(2, "b").scale(2)
        y = x - OpElement.basis(2, "a")
        assert dict(y.coeffs) == {"b": Fraction(2)}
        assert (y - y).is_zero()

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            OpElement.basis(2, "a") + OpElement.basis(3, "b")


coefficients = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=6)
)
term_lists = st.lists(st.tuples(st.sampled_from("abcde"), coefficients), max_size=12)


@given(term_lists, st.lists(st.booleans(), max_size=12))
@settings(max_examples=200, deadline=None)
def test_combine_is_the_fraction_sum(terms, cancel):
    """combine sums the pairs per label exactly as a Fraction sum does,
    ints and Fractions mixed, repeated labels, and terms whose negatives
    follow so that labels cancel; it hands out no zeros, and ints in give
    ints out."""
    terms = terms + [(l, -c) for (l, c), flag in zip(terms, cancel) if flag]
    naive: dict = {}
    for l, c in terms:
        naive[l] = naive.get(l, Fraction(0)) + Fraction(c)
    got = combine(terms)
    assert got == {l: c for l, c in naive.items() if c != 0}
    assert all(c != 0 for c in got.values())
    ints = [(l, c) for l, c in terms if type(c) is int]
    assert all(type(c) is int for c in combine(ints).values())


class TestFreeOperad:
    def test_parse_and_generators(self):
        op = parse_free_operad(
            "nu:2:0\ng:1:7\nh:2:8\nd h = nu o2 g + nu o1 g - g o1 nu\n",
            associative="nu",
            max_arity=3,
            degree_cap=18,
        )
        assert op.generators == {"nu": (2, 0), "g": (1, 7), "h": (2, 8)}
        nu = OpElement.basis(2, ("nu", LEAF, LEAF))
        h = OpElement.basis(2, ("h", LEAF, LEAF))
        dh = op.differential(h)
        expected = (
            op.compose(nu, 2, OpElement.basis(1, ("g", LEAF)))
            + op.compose(nu, 1, OpElement.basis(1, ("g", LEAF)))
            - op.compose(OpElement.basis(1, ("g", LEAF)), 1, nu)
        )
        assert (dh - expected).is_zero()

    def test_left_comb_normalization(self):
        op = witness_operad(2)
        nu = OpElement.basis(2, ("nu", LEAF, LEAF))
        left = op.compose(nu, 1, nu)
        right = op.compose(nu, 2, nu)
        assert (left - right).is_zero()  # strictly associative

    @pytest.mark.parametrize(
        "text,bad_line",
        [
            ("nu:2:0\nd hh = nu o1 nu", "d hh = nu o1 nu"),
            ("nu:2:0\ng:1:3\nd g = nu", "d g = nu"),
            ("c:2:4\nh:2:4\nd h = c", "d h = c"),
            ("nu:2:0\ng:1:3\ng:1:5", "g:1:5"),
            ("nu:2:0\nc:2:1\nd c = nu\nd c = 2 * nu", "d c = 2 * nu"),
            ("nu:2:0\nh:2:1\nd h = nu o1 zz", "d h = nu o1 zz"),
            ("nu:2:0\nh:2:1\nd h =", "d h ="),
            ("nu:2:0\nh:2:1\nd h = 2 nu o1 nu", "d h = 2 nu o1 nu"),
            ("nu:2:0\nh:2:1\nd h = nu o9 nu", "d h = nu o9 nu"),
            ("nu:2:0\nh:2:1\nd h = nu x1 nu", "d h = nu x1 nu"),
            ("nu:2:0\nh:2:1\nd h = nu o1 nu o1 nu o1 nu", "d h = nu o1 nu o1 nu o1 nu"),
            ("nu:2:0\nh:2:1\nd h = 1/0 * nu", "d h = 1/0 * nu"),
        ],
        ids=[
            "undeclared", "arity", "degree", "declared-twice", "second-rule",
            "body-unknown-generator", "body-empty", "body-malformed-term",
            "body-slot-out-of-range", "body-bad-composition-token", "body-arity-overflow",
            "body-zero-denominator",
        ],
    )
    def test_malformed_presentation_names_its_line(self, text, bad_line):
        with pytest.raises(ValueError, match=re.escape(repr(bad_line))):
            parse_free_operad(text, degree_cap=8)

    def test_axioms_d_squared_leibniz(self):
        for padded in (False, True):
            op = witness_operad(2, padded=padded)
            assert check_operad_axioms(op, samples=400).ok
            assert check_d_squared(op).ok
            assert check_leibniz(op).ok


_WITNESS_VARIANTS = {"": {}, "padded-": {"padded": True}, "h1broken-": {"break_h1": True}}

FREE_HOSTS = {
    f"{tag}witness:m={m}": (lambda m=m, kw=kw: witness_operad(m, **kw))
    for m in (2, 3)
    for tag, kw in _WITNESS_VARIANTS.items()
}
FREE_HOSTS["nonassociative-c"] = lambda: parse_free_operad(
    "nu:2:0\nc:3:1\nd c = nu o2 nu - nu o1 nu\n", max_arity=3, degree_cap=8
)
FREE_HOSTS["odd-binary"] = lambda: parse_free_operad(
    "x:2:-1\ng:1:2", max_arity=4, degree_cap=5
)
FREE_HOSTS["four-generators"] = lambda: parse_free_operad(
    "nu:2:0\na:1:1\nb:1:2\nc:1:3\nd c = b\nd b = a", associative="nu", degree_cap=4
)


@pytest.mark.parametrize("host", sorted(FREE_HOSTS))
class TestFreeOperadOracles:
    """The free backend against the fixpoint enumeration and the
    per-vertex substitution it replaced (``conftest``)."""

    def test_basis_matches_fixpoint(self, host):
        op = FREE_HOSTS[host]()
        for n in range(op.max_arity + 2):
            assert list(op.basis_by_degree(n).items()) == list(
                reference_free_basis(op, n).items()
            )

    def test_compose_matches_per_leaf_walks(self, host):
        op = FREE_HOSTS[host]()
        cap = op.max_arity
        for m in range(1, cap + 1):
            for n in range(1, cap + 2 - m):
                for xl in (l for ls in op.basis_by_degree(m).values() for l in ls):
                    for yl in (l for ls in op.basis_by_degree(n).values() for l in ls):
                        over = op.degree(m, xl) + op.degree(n, yl) > op.degree_cap
                        for i in range(1, m + 1):
                            if over:
                                with pytest.raises(DegreeOverflow):
                                    op.compose_basis(m, xl, i, n, yl)
                            else:
                                assert op.compose_basis(m, xl, i, n, yl) == (
                                    reference_free_compose(op, xl, i, yl)
                                )

    def test_differential_matches_vertex_substitution(self, host):
        op = FREE_HOSTS[host]()
        for n in range(1, op.max_arity + 1):
            for label in (l for ls in op.basis_by_degree(n).values() for l in ls):
                assert op.diff_basis(n, label) == reference_free_diff(op, label)

    def test_cached_maps_hand_out_new_dicts(self, host):
        """The host keeps each label's differential and each composite: a
        caller that empties or rewrites a returned dict leaves the next
        call equal to the oracle, and a key past the degree cap raises on
        every call."""
        op = FREE_HOSTS[host]()
        junk = {LEAF: Fraction(7)}

        def twice(f, *args):
            first = f(*args)
            first.clear()
            first.update(junk)
            return f(*args)

        labels = {n: [l for ls in op.basis_by_degree(n).values() for l in ls]
                  for n in range(1, op.max_arity + 1)}
        for n, ls in labels.items():
            for label in ls:
                assert twice(op.diff_basis, n, label) == reference_free_diff(op, label)
        for m, n in ((m, n) for m in labels for n in labels if m + n - 1 <= op.max_arity):
            for xl, yl in itertools.product(labels[m], labels[n]):
                over = op.degree(m, xl) + op.degree(n, yl) > op.degree_cap
                for i in range(1, m + 1):
                    if over:
                        for _ in range(2):
                            with pytest.raises(DegreeOverflow):
                                op.compose_basis(m, xl, i, n, yl)
                    else:
                        assert twice(op.compose_basis, m, xl, i, n, yl) == (
                            reference_free_compose(op, xl, i, yl)
                        )


@pytest.mark.parametrize("degree", [0, -1])
def test_unary_generator_of_non_positive_degree_is_refused(degree):
    """Such a generator gives unary towers of ever lower degree, so the
    basis is infinite; an alarm turns a hanging enumeration into a
    failure."""

    def hang(signum, frame):
        raise TimeoutError("basis enumeration did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="unary"):
            parse_free_operad(
                f"nu:2:0\ng:1:{degree}", associative="nu", degree_cap=6
            ).basis_by_degree(1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestTableOperad:
    def test_poisson_axioms(self):
        op = poisson_operad_small(5)
        report = check_operad_axioms(op)
        assert report.ok and report.checked > 0

    def test_corrupted_table_fails_axioms(self):
        # composing with the unit must be the identity; scale it instead
        bad = poisson_operad_small(5).corrupted(
            (2, "m", 1, 1, "1"), {"m": Fraction(2)}
        )
        assert not check_operad_axioms(bad).ok

    def test_unit_laws(self):
        op = poisson_operad_small(5)
        unit = OpElement.basis(1, op.unit_label)
        m = OpElement.basis(2, "m")
        assert (op.compose(m, 1, unit) - m).is_zero()
        assert (op.compose(unit, 1, m) - m).is_zero()

    def test_label_maps_hand_out_new_dicts(self):
        """Emptying a dict that compose_basis or diff_basis returned leaves
        the table as it was."""
        op = poisson_operad_small(5)
        b, m = OpElement.basis(2, "b"), OpElement.basis(2, "m")
        op.compose_basis(2, "b", 1, 2, "m").clear()
        assert op.compose_basis(2, "b", 1, 2, "m") == {"B23": 1, "B13": 1}
        assert dict(op.compose(b, 1, m).coeffs) == {"B23": 1, "B13": 1}
        dg = TableOperad(
            {1: {0: ("1",)}, 2: {0: ("m",), 1: ("h",)}}, {},
            unit="1", differentials={(2, "h"): {"m": Fraction(1)}},
        )
        dg.diff_basis(2, "h").clear()
        assert dg.diff_basis(2, "h") == {"m": 1}

    def test_editing_the_tables_after_construction_leaves_the_operad(self):
        """The constructor copies the caller's composition and differential
        tables, so later edits to them do not reach the operad."""
        basis, comp = poisson_structure_constants(5)
        op = TableOperad(basis, comp, unit="1", max_arity=3)
        comp[(2, "b", 1, 2, "m")] = {}
        b, m = OpElement.basis(2, "b"), OpElement.basis(2, "m")
        want = OpElement.basis(3, "B13") + OpElement.basis(3, "B23")
        assert (op.compose(b, 1, m) - want).is_zero()
        diff = {(2, "h"): {"m": Fraction(1)}}
        dg = TableOperad({1: {0: ("1",)}, 2: {0: ("m",), 1: ("h",)}}, {}, differentials=diff)
        diff[(2, "h")]["m"] = Fraction(0)
        diff.clear()
        assert dg.diff_basis(2, "h") == {"m": 1} and dg.has_differential()


def test_random_axiom_sampling_deterministic():
    op = witness_operad(2)
    a = check_operad_axioms(op, samples=50, rng=random.Random(5))
    b = check_operad_axioms(op, samples=50, rng=random.Random(5))
    assert a.checked == b.checked and a.ok == b.ok


SUM_HOSTS = {
    "sphere-d5": lambda: sphere_operad(5, max_arity=4),
    "framed-d5": lambda: framed_multiplicative(5, 4, 12).operad,
    "padded-witness-m3": lambda: witness_operad(3, padded=True),
}


def _sample(op, n: int, rng) -> OpElement:
    """A seeded rational combination of up to three basis labels of O(n)
    in degrees up to half the cap, so that no composite of two leaves it;
    the zero element where there is none."""
    top = float("inf") if op.degree_cap is None else op.degree_cap // 2
    labels = [l for q, ls in op.basis_by_degree(n).items() if q <= top for l in ls]
    x = OpElement.zero(n)
    for l in rng.sample(labels, min(3, len(labels))):
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
        x = x + OpElement.basis(n, l).scale(c)
    return x


def _chained_sum(op, parts) -> OpElement:
    """The reference for compose_sum: compose each part, then add or
    subtract it."""
    _, x, _, y = parts[0]
    total = OpElement.zero(x.arity + y.arity - 1)
    for s, x, i, y in parts:
        total = total + op.compose(x, i, y) if s == 1 else total - op.compose(x, i, y)
    return total


@pytest.mark.parametrize("host", SUM_HOSTS.values(), ids=SUM_HOSTS)
def test_compose_sum_is_the_chained_sum(host):
    """compose_sum equals the compose/+/- expression on seeded rational
    samples, with a zero-element part and a part its negative cancels in
    every sum, and is zero on a sum that cancels as a whole."""
    op = host()
    rng = random.Random(32)
    checked = 0
    for _ in range(60):
        arity = rng.randint(1, 3)
        parts = []
        for _ in range(rng.randint(1, 4)):
            m = rng.randint(1, arity + 1)
            x, y = _sample(op, m, rng), _sample(op, arity + 1 - m, rng)
            parts.append((rng.choice((1, -1)), x, rng.randint(1, m), y))
        s, x, i, y = parts[0]
        parts += [(-s, x, i, y), (s, OpElement.zero(x.arity), i, y)]
        rng.shuffle(parts)
        want = _chained_sum(op, parts)
        assert op.compose_sum(parts) == want
        assert op.compose_sum(parts + [(-s, x, i, y) for s, x, i, y in parts]).is_zero()
        checked += not want.is_zero()
    assert checked >= 20
    with pytest.raises(ValueError, match="one arity"):
        op.compose_sum([(1, x, i, y), (1, x, i, OpElement.zero(y.arity + 1))])
    with pytest.raises(ValueError, match="one arity"):
        op.compose_sum([])
