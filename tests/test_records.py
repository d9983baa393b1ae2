"""The package's record types: equal instances compare and hash equal,
immutable records refuse assignment, a mutable default is fresh in each
instance, and the JSON reports write a record as a dict keyed by field
name."""

from fractions import Fraction

import pytest

from operadlab.audit import AlgebraGenerator, ForcedDifferential
from operadlab.cli import _jsonable
from operadlab.cosimplicial import BigradedPage
from operadlab.hopf import BidegreeWindow
from operadlab.operads import AxiomReport, OpElement


@pytest.mark.parametrize(
    "make",
    [
        lambda: OpElement.make(2, {((1, 2),): Fraction(1, 2), (): 3}),
        lambda: BidegreeWindow(-4, 14),
        lambda: AlgebraGenerator("a", -1, 3, permanent=True),
        lambda: ForcedDifferential(2, (-1, 7), (-3, 8), "forced"),
    ],
    ids=["OpElement", "BidegreeWindow", "AlgebraGenerator", "ForcedDifferential"],
)
def test_equal_instances_compare_and_hash_equal(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_a_forced_differential_is_built_by_position_or_by_keyword():
    by_keyword = ForcedDifferential(r=2, source=(-1, 7), target=(-3, 8), reason="forced")
    assert by_keyword == ForcedDifferential(2, (-1, 7), (-3, 8), "forced")
    assert by_keyword != ForcedDifferential(2, (-1, 7), (-3, 8), "other")
    with pytest.raises(ValueError, match="shift"):
        ForcedDifferential(r=3, source=(-1, 7), target=(-3, 8), reason="forced")


def test_an_element_refuses_assignment():
    x = OpElement.basis(2, ())
    with pytest.raises(AttributeError):
        x.arity = 3
    with pytest.raises(AttributeError):
        x.degree = 0
    assert x == OpElement(2, (((), 1),))


def test_mutable_defaults_are_fresh_per_instance():
    a, b = BigradedPage(2, {}), BigradedPage(2, {})
    assert a == b
    a.differentials[(0, 0)] = None
    assert b.differentials == {} and a != b
    first, second = AxiomReport(), AxiomReport()
    first.failures.append("nested")
    assert second.failures == []


def test_a_record_is_written_as_a_dict_keyed_by_field_name():
    forced = ForcedDifferential(2, (-1, 7), (-3, 8), "forced")
    report = AxiomReport(checked=3, skipped=1)
    assert _jsonable({"forced": [forced], "axioms": report}) == {
        "forced": [{"r": 2, "source": [-1, 7], "target": [-3, 8], "reason": "forced"}],
        "axioms": {"checked": 3, "skipped": 1, "failures": []},
    }
