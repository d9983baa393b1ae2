"""Class queries reduce sparse ``{position: coefficient}`` maps.

``bracket_on_classes``, ``class_is_zero`` and ``obstruction.omega`` map a
chain's terms straight to positions in its cell.  The dense route they
replaced is kept here as the oracle: the chain as a dense Fraction vector
over the whole cell, ``class_coordinates`` on that vector, and a dense
combination of ``DegreeHomology.representatives``.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from operadlab import cosimplicial
from operadlab.complexes import NotACycle, WindowBoundary
from operadlab.cosimplicial import (
    HochschildClass,
    hochschild_differential,
    hochschild_homology,
)
from operadlab.gerstenhaber import bracket, bracket_on_classes, class_is_zero
from operadlab.instances import (
    arity_complex,
    element_to_vector,
    sphere_multiplicative,
    vector_to_element,
    witness_generator,
    witness_multiplicative,
)
from operadlab.linalg import QuotientSpace, kernel_basis
from operadlab.obstruction import ObstructionInput, find_h, find_xi, omega
from operadlab.operads import OpElement, chain_to_vector, vector_to_chain


def _rational(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))


def _scaled(c, k):
    return dataclasses.replace(c, vector=[k * v for v in c.vector], element=c.element.scale(k))


def dense_bracket_on_classes(M, HH, c1, c2):
    n, q = c1.arity + c2.arity - 1, c1.q + c2.q
    hom = HH.at(-n, q)
    labels = HH.complex.labels(n, q)
    v = chain_to_vector(bracket(M.operad, c1.element, c2.element), labels)
    coords = hom.class_coordinates(v)
    rep = [sum((c * r[j] for c, r in zip(coords, hom.representatives)), Fraction(0))
           for j in range(len(labels))]
    return HochschildClass(n, q, rep, vector_to_chain(n, labels, rep))


def dense_class_is_zero(HH, c):
    return all(v == 0 for v in HH.at(c.p, c.q).class_coordinates(c.vector))


def dense_omega_coords(inp, w):
    op, q = inp.operad, 4 * inp.m
    hom3 = arity_complex(op, 3).homology().at(q)
    span = [
        hom3.class_coordinates(element_to_vector(
            op, bracket(op, inp.nu, vector_to_element(op, 2, q, rep)), q))
        for rep in arity_complex(op, 2).homology().at(q).representatives
    ]
    Q = QuotientSpace(hom3.dim, span)
    return Q.reduce(hom3.class_coordinates(element_to_vector(op, w, q))), Q.dim


@pytest.fixture(scope="module")
def sphere():
    M = sphere_multiplicative(5, 8, 16)
    return M, hochschild_homology(M, 8, 16)


@pytest.fixture(scope="module")
def small_sphere():
    M = sphere_multiplicative(5, 5, 12)
    return M, hochschild_homology(M, 5, 12)


def test_classes_are_their_dense_representatives(sphere):
    _, HH = sphere
    for q, hom in HH.homs.items():
        for p, h in hom.per_degree.items():
            if h.reliable:
                cs = HH.classes_at(p, q)
                labels = HH.complex.labels(-p, q)
                assert [c.vector for c in cs] == h.representatives
                assert [c.element for c in cs] == [
                    vector_to_chain(-p, labels, r) for r in h.representatives]
    assert len(HH.classes) == 8


def test_a_class_is_made_dense_once(monkeypatch):
    """hochschild_homology hands each class the dense representative that
    homology already made, not a second list: the sphere table densifies
    nothing in cosimplicial, and each class's vector is its
    representative."""
    monkeypatch.setattr(cosimplicial, "dense", lambda *a: pytest.fail("densified twice"))
    HH = hochschild_homology(sphere_multiplicative(5, 6, 12), 6, 12)
    reps = [r for q, hom in sorted(HH.homs.items()) for p, h in hom.per_degree.items()
            if h.reliable for r in h.representatives]
    assert len(HH.classes) == len(reps) > 0
    assert all(c.vector is r for c, r in zip(HH.classes, reps))


def test_bracket_on_scaled_classes_matches_the_dense_route(sphere):
    M, HH = sphere
    rng = random.Random(42)
    compared = nonzero = 0
    for a in HH.classes:
        for b in HH.classes:
            n, q = a.arity + b.arity - 1, a.q + b.q
            if not (0 <= n <= HH.complex.n_max and q <= HH.complex.q_max):
                continue
            ca, cb = _scaled(a, _rational(rng)), _scaled(b, _rational(rng))
            want = dense_bracket_on_classes(M, HH, ca, cb)
            got = bracket_on_classes(M, HH, ca, cb)
            assert (got.arity, got.q) == (want.arity, want.q)
            assert got.vector == want.vector
            assert all(type(v) is Fraction for v in got.vector)
            assert got.element == want.element
            assert all(type(c) is Fraction for _, c in got.element.coeffs)
            zero = class_is_zero(HH, got)
            assert zero == dense_class_is_zero(HH, want)
            compared += 1
            nonzero += not zero
    assert compared == 27 and nonzero > 0


def test_omega_on_perturbed_witnesses_matches_the_dense_route():
    M = witness_multiplicative(3, padded=True)
    inp = ObstructionInput(M, witness_generator(M.operad, "g"), 3)
    op = inp.operad
    h0, xi0 = find_h(inp), find_xi(inp)
    cycles = {
        "h": [vector_to_element(op, 2, 12, v) for v in kernel_basis(arity_complex(op, 2).d(12))],
        "xi": [vector_to_element(op, 3, 1, v) for v in kernel_basis(arity_complex(op, 3).d(1))],
    }
    rng = random.Random(7)
    for trial in range(40):
        kind = ("h", "xi")[trial % 2]
        z = OpElement.zero(cycles[kind][0].arity)
        for b in cycles[kind]:
            z = z + b.scale(_rational(rng))
        h, xi = (h0 + z, xi0) if kind == "h" else (h0, xi0 + z)
        res = omega(inp, h, xi)
        coords, qdim = dense_omega_coords(inp, res.omega)
        assert res.class_coords == coords and res.quotient_dim == qdim > 0
        assert res.nonzero


class TestErrors:
    def test_a_non_cycle_raises_not_a_cycle(self, small_sphere):
        M, HH = small_sphere
        labels = HH.complex.labels(3, 8)
        e = OpElement.basis(3, labels[0])
        assert not hochschild_differential(M, e).is_zero()
        c = HochschildClass(3, 8, chain_to_vector(e, labels), e)
        with pytest.raises(NotACycle):
            class_is_zero(HH, c)
        with pytest.raises(NotACycle):
            bracket_on_classes(M, HH, c, HH.classes_at(-2, 4)[0])

    def test_a_bracket_on_an_unreliable_cell_raises_window_boundary(self, small_sphere):
        M, HH = small_sphere
        x, y = HH.classes_at(-2, 4)[0], HH.classes_at(-4, 8)[0]
        assert not HH.homs[12].per_degree[-5].reliable
        with pytest.raises(WindowBoundary):
            bracket_on_classes(M, HH, x, y)

    def test_a_label_outside_the_cell_raises_key_error_naming_it(self, small_sphere):
        M, HH = small_sphere
        (label,) = HH.complex.labels(3, 12)
        e = OpElement.basis(3, label)
        # the element sits in degree 12, the class claims the cell (3, 8)
        c = HochschildClass(3, 8, [Fraction(0)] * HH.complex.dim(3, 8), e)
        with pytest.raises(KeyError) as exc:
            class_is_zero(HH, c)
        assert exc.value.args == (label,)
        with pytest.raises(KeyError) as exc:
            bracket_on_classes(M, HH, c, HH.classes_at(-2, 4)[0])
        (outside,) = exc.value.args
        assert outside not in HH.complex.labels(4, 12)
