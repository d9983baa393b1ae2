"""Concrete operads.

* :class:`SphereOperad` — homology of the product-of-spheres operad whose
  arity-n part is one (d-1)-sphere per index pair.  Basis elements are
  subsets of pairs (fundamental class on the chosen factors, point class
  elsewhere); composition collapses outer indices onto the inserted block
  and distributes a sphere class landing on the block diagonally over the
  single result pairs.
* :func:`poisson_operad_small` — degree-(d-1) Poisson structure at arity
  <= 3, with the inclusion into the sphere operad.
* :class:`FramedOperad` — tensor with tuples of exterior-Hopf monomials;
  composition pushes the slot-i Hopf factor through the iterated diagonal.
  Both hosts' normalized δ is one rule, :func:`delta_by_splits`.
* :func:`witness_operad` — the finite free chain operad on nu, g, h used
  as the obstruction testbed, with padded variants.
* :func:`homology_operad` — homology of a chain operad, as a TableOperad
  on homology classes with induced compositions.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left

from .complexes import ChainComplexWindow, WindowBoundary, complex_from_rule
from .hopf import PrimitiveExteriorHopf, build_so_hopf, koszul_sign
from .operads import (
    Coeffs,
    FreeChainOperad,
    OpElement,
    Operad,
    TableOperad,
    TruncationError,
    chain_to_vector,
    extend,
    generator_element as witness_generator,
    parse_free_operad,
    vector_to_chain,
)


def _pairs(n: int):
    return tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1))


def _covering(pairs, left: int, bare: frozenset, start: int = 0, chosen: tuple = ()):
    """``chosen`` extended by the left-subsets of ``pairs[start:]`` that
    cover the ``bare`` vertices, in ``itertools.combinations`` order.  A
    branch stops when its pairs left cannot reach the bare vertices, two
    each, or when the smallest bare one lies below the next pair; with two
    bare vertices per pair left, every pair must cover two of them."""
    if 2 * left < len(bare):
        return
    if not left:
        yield chosen
        return
    low = min(bare, default=float("inf"))
    for idx in range(start, len(pairs) - left + 1):
        a, b = pair = pairs[idx]
        if a > low:
            break
        if 2 * left > len(bare) or {a, b} <= bare:
            yield from _covering(pairs, left - 1, bare - {a, b}, idx + 1, chosen + (pair,))


def delta_by_splits(sphere, label, words, split):
    """Both hosts' normalized coboundary, as ``(i, (left, right), sign,
    labels)`` groups: the terms of delta of ``mu()`` on a sphere ``label``
    with a word per slot, every slot covered (reached by a pair or holding
    a nonempty word), that cover all n+1 slots.  Such labels span the
    codegeneracy kernels, which delta keeps, so the other terms cancel;
    outer cofaces leave slot 1 or n+1 bare.  Coface i splits the pairs at i
    by ``sphere.split_vertex``, its first term sending all to i and its last
    all to i+1, and the word at i into the ``((left, right), c)`` of
    ``split``: a bare left drops the last term, a bare right the first, and
    each kept one has sign (-1)^i c.  A slot with fewer than two pair ends
    and generators leaves i or i+1 bare in every term, so it is skipped."""
    ends = [v for p in label for v in p]
    for i, mon in enumerate(words, 1):
        if ends.count(i) + len(mon) > 1:
            bases = sphere.split_vertex(label, i)
            for (left, right), c in split(mon):
                yield i, (left, right), -c if i & 1 else c, bases[not right:len(bases) - (not left)]


class SphereOperad(Operad):
    """Homology operad of products of (d-1)-spheres, one per index pair.

    Without a degree cap the arity-n basis has 2^C(n,2) elements, so large
    arities require ``degree_cap`` to bound the number of chosen pairs.
    """

    def __init__(self, d: int, max_arity: int = 4, degree_cap: int | None = None):
        if d % 2 == 0 or d < 5:
            raise ValueError("d must be odd and at least 5")
        if degree_cap is None and max_arity > 6:
            raise ValueError("arity cap above 6 requires a degree cap")
        self.d = d
        self.max_arity = max_arity
        self.degree_cap = degree_cap
        self._basis_cache: dict = {}

    # labels: sorted tuple of pairs (i, j), 1-based, i < j
    def basis_by_degree(self, n: int) -> dict:
        if n not in self._basis_cache:
            all_pairs = _pairs(n)
            # combinations of the sorted pairs come sorted, in sorted order
            self._basis_cache[n] = {
                q: tuple(itertools.combinations(all_pairs, q // (self.d - 1)))
                for q in self.degrees(n)
            }
        return self._basis_cache[n]

    def degrees(self, n: int) -> list:
        """One degree per number of pairs, up to all C(n, 2) or the cap."""
        top = n * (n - 1) // 2 * (self.d - 1) if n <= self.max_arity else -1
        cap = top if self.degree_cap is None else min(top, self.degree_cap)
        return list(range(0, cap + 1, self.d - 1))

    def degree(self, n: int, label) -> int:
        return len(label) * (self.d - 1)

    @property
    def unit_label(self):
        return ()

    def column_vanishes(self, n: int, q: int) -> bool:
        """A window into the untruncated operad, exact for normalized
        columns: a label covering all n vertices holds k pairs of degree
        d - 1, at least ceil(n/2) of them and at most all C(n, 2)."""
        k, r = divmod(q, self.d - 1)
        return r != 0 or not (n + 1) // 2 <= k <= n * (n - 1) // 2

    def normalized_basis(self, n: int, top: int) -> dict:
        """The pair-sets covering all n vertices, at every degree of the
        lattice up to ``top`` that has one: forgetting an uncovered vertex
        keeps the label, forgetting a covered one kills it.  Built from the
        covering rule alone, without the raw basis."""
        pairs, vertices = _pairs(n), frozenset(range(1, n + 1))
        return {
            q: labels for q in self.degrees(n)
            if q <= top and (labels := tuple(_covering(pairs, q // (self.d - 1), vertices)))
        }

    def compose_basis(self, m: int, xl, i: int, n: int, yl) -> Coeffs:
        return dict.fromkeys(self.compose_pairsets(m, xl, i, n, yl), 1)

    def compose_pairsets(self, m: int, xl, i: int, n: int, yl) -> list:
        """All result pair-sets of (x o_i y) for basis pair-sets.

        The y-pairs shift into the block i..i+n-1 and the x-pairs off slot
        i past it.  An x-pair touching slot i expands to one result pair
        per block position (diagonal distribution of its sphere class), in
        ``itertools.product`` order, so for n = 2 the first term sends
        every such pair to i and the last every one to i+1; into a point
        (n = 0) it has no target, so a pair at slot i ends the call before
        anything is built.  Pair sets never collide, so every term has
        coefficient one.  :func:`delta_by_splits` reads ``split_vertex``.
        """
        if not n:  # a point at a covered vertex
            for a, b in xl:
                if a == i or b == i:
                    return []
        block = range(i, i + n)
        fixed = [(a + i - 1, b + i - 1) for a, b in yl]
        moves = []
        for a, b in xl:
            if a != i != b:
                fixed.append((a + n - 1 if a > i else a, b + n - 1 if b > i else b))
            else:
                moves.append([(k, b + n - 1) if a == i else (a, k) for k in block])
        return [tuple(sorted((*fixed, *to))) for to in itertools.product(*moves)]

    def split_vertex(self, label, i: int) -> list:
        """``compose_pairsets(n, label, i, 2, ())``, the pair-sets of label
        o_i mu, in the same order: vertex i splits into i and i+1, a pair
        at i takes one of the two, and every vertex past i moves up one.
        The images of the pairs, in label order, are one product, and its
        terms come out sorted but for the images of the pairs starting at
        i, which are sorted in place."""
        options = [
            ((a, b),) if b < i else ((a + 1, b + 1),) if a > i
            else ((a, b + 1),) if a < i < b else ((a, i), (a, i + 1)) if b == i
            else ((i, b + 1), (i + 1, b + 1))
            for a, b in label
        ]
        terms = itertools.product(*options)
        lo, hi = bisect_left(label, (i,)), bisect_left(label, (i + 1,))
        if hi - lo < 2:  # at most one pair starts at i, so every term is sorted
            return list(terms)
        return [t[:lo] + tuple(sorted(t[lo:hi])) + t[hi:] for t in terms]

    def normal_delta(self, n: int, label) -> list:
        """:func:`delta_by_splits` on empty words, whose one split is ((), ()), coefficient 1."""
        groups = delta_by_splits(self, label, ((),) * n, lambda _: ((((), ()), 1),))
        return [(l, c) for _, _, c, kept in groups for l in kept]

    def mu(self) -> OpElement:
        return OpElement.basis(2, ())

    def alpha(self) -> OpElement:
        return OpElement.basis(2, ((1, 2),))


def sphere_operad(d: int, max_arity: int = 4, degree_cap: int | None = None) -> SphereOperad:
    return SphereOperad(d, max_arity, degree_cap)


class MultiplicativeStructure:
    """An operad with a chosen associative degree-0 multiplication.

    ``point`` is an arity-0 element used to build codegeneracies: one
    basis label with coefficient 1, since a multiple of it breaks the
    identities s^j d^j = s^j d^{j+1} = id.  Chain hosts without one (the
    witness operads) get coface-only objects.
    """

    def __init__(self, operad: Operad, mult: OpElement, point: OpElement | None = None,
                 name: str = ""):
        if mult.arity != 2:
            raise ValueError("multiplication must have arity 2")
        if operad.element_degree(2, mult) not in (0, None):
            raise ValueError("multiplication must have degree 0")
        if not operad.differential(mult).is_zero():
            raise ValueError("multiplication must be a cycle")
        if point is not None and [c for _, c in point.coeffs] != [1]:
            raise ValueError("the point must be one basis label with coefficient 1")
        self.operad = operad
        self.mult = mult
        self.point = point
        self.name = name


def sphere_multiplicative(d: int, max_arity: int = 4, degree_cap: int | None = None):
    op = sphere_operad(d, max_arity, degree_cap)
    return MultiplicativeStructure(
        op, op.mu(), point=OpElement.basis(0, ()), name=f"sphere:d={d}"
    )


def framed_multiplicative(d: int, max_arity: int = 4, degree_cap: int | None = None):
    base = sphere_operad(d, max_arity, degree_cap)
    hopf = build_so_hopf(d)
    op = FramedOperad(base, hopf)
    point = OpElement.basis(0, ((), ()))
    return MultiplicativeStructure(op, op.mu(), point=point, name=f"framed(sphere:d={d})")


def poisson_multiplicative(d: int):
    op = poisson_operad_small(d)
    return MultiplicativeStructure(op, OpElement.basis(2, "m"), name=f"poisson:d={d}")


def witness_multiplicative(m: int = 2, padded: bool = False, break_h1: bool = False):
    if padded and break_h1:
        raise ValueError("a witness structure is padded or h1-broken, not both")
    op = witness_operad(m, padded=padded, break_h1=break_h1)
    tag = "padded-" if padded else ("h1broken-" if break_h1 else "")
    return MultiplicativeStructure(
        op, witness_generator(op, "nu"), name=f"{tag}witness:m={m}"
    )


# -- Poisson operad at arity <= 3 --------------------------------------------

# Basis labels at arity 3, degree d-1: "Bij" is the bracket of inputs i, j
# times the remaining input; at degree 2(d-1): "J1" = [[x1,x2],x3],
# "J2" = [x1,[x2,x3]] (the third iterated bracket is Jacobi-reduced).


def poisson_structure_constants(d: int):
    """Derive the arity <= 3 tables from the Leibniz and Jacobi rules.

    Degrees are even (d odd), so no Koszul signs enter; the bracket is
    antisymmetric and [[x1,x3],x2] = J1 - J2 by the Jacobi identity.
    """
    basis = {
        1: {0: ("1",)},
        2: {0: ("m",), d - 1: ("b",)},
        3: {0: ("M",), d - 1: ("B12", "B13", "B23"), 2 * (d - 1): ("J1", "J2")},
    }
    one = lambda lab: {lab: 1}
    comp: dict = {}
    # unit laws
    for n, by_deg in basis.items():
        for labs in by_deg.values():
            for lab in labs:
                comp[(1, "1", 1, n, lab)] = one(lab)
                for i in range(1, n + 1):
                    comp[(n, lab, i, 1, "1")] = one(lab)
    # binary into binary
    comp[(2, "m", 1, 2, "m")] = one("M")
    comp[(2, "m", 2, 2, "m")] = one("M")
    comp[(2, "m", 1, 2, "b")] = one("B12")
    comp[(2, "m", 2, 2, "b")] = one("B23")
    # Leibniz: [x1 x2, x3] = x1[x2,x3] + [x1,x3] x2
    comp[(2, "b", 1, 2, "m")] = {"B23": 1, "B13": 1}
    # [x1, x2 x3] = [x1,x2] x3 + x2 [x1,x3]
    comp[(2, "b", 2, 2, "m")] = {"B12": 1, "B13": 1}
    comp[(2, "b", 1, 2, "b")] = one("J1")
    comp[(2, "b", 2, 2, "b")] = one("J2")
    return basis, comp


def poisson_operad_small(d: int) -> TableOperad:
    basis, comp = poisson_structure_constants(d)
    return TableOperad(basis, comp, unit="1", max_arity=3)


def poisson_inclusion(d: int):
    """Per-arity linear maps into sphere_operad(d, 3), as label -> Coeffs."""
    one = lambda lab: {lab: 1}
    return {
        (1, "1"): one(()),
        (2, "m"): one(()),
        (2, "b"): one(((1, 2),)),
        (3, "M"): one(()),
        (3, "B12"): one(((1, 2),)),
        (3, "B13"): one(((1, 3),)),
        (3, "B23"): one(((2, 3),)),
        (3, "J1"): {((1, 2), (1, 3)): 1, ((1, 2), (2, 3)): 1},
        (3, "J2"): {((1, 2), (2, 3)): 1, ((1, 3), (2, 3)): 1},
    }


def apply_inclusion(incl: dict, x: OpElement) -> OpElement:
    return OpElement.make(x.arity, extend(lambda lab: incl[(x.arity, lab)], x.coeffs))


# -- framed tensor construction ----------------------------------------------


class FramedOperad(Operad):
    """Tensor of a zero-differential operad with Hopf-monomial tuples.

    Labels are ``(base_label, (mon_1, ..., mon_n))``.  Composition at slot
    i composes the base parts and pushes the slot-i Hopf monomial through
    the n-fold diagonal onto the inserted factors, with Koszul signs from
    reordering the odd Hopf symbols.  The base operad must have even
    degrees throughout (true for the sphere operad with odd d), so base
    symbols never contribute signs.

    The Hopf part of a composite is the split of the slot-i monomial into
    the inserted words, spliced between the prefix and the tail of x's
    word, so each split is computed once per slot monomial and inserted
    words.  Hopf words are built slot by slot and dropped as soon as their
    degree leaves no room under the degree cap, which is the base's; a
    normalized label's bare slots take only nonempty monomials, so the raw
    basis is never listed for it; that map is exact, so no codegeneracy
    confirms it (the sphere's still is: ``bench/test_bench.py`` asserts those calls).
    """
    normalized_exact = True

    def __init__(self, base: Operad, hopf: PrimitiveExteriorHopf):
        if base.has_differential():
            raise ValueError("framed construction requires a zero differential")
        self.base = base
        self.hopf = hopf
        self.max_arity = base.max_arity
        self.degree_cap = base.degree_cap
        self._basis_cache: dict = {}  # (n, top, normal) -> degree -> labels
        self._hopf_cache: dict = {}
        self._empty: dict = {}  # (n, q) -> column_vanishes(n, q)

    def basis_by_degree(self, n: int) -> dict:
        return self._labels(n, float("inf"), normal=False)

    def normalized_basis(self, n: int, top: int) -> dict:
        """The labels up to degree ``top`` whose every slot is on a sphere
        pair or carries a nonempty Hopf monomial; the point kills exactly
        those slots."""
        return self._labels(n, top, normal=True)

    def _labels(self, n: int, top, normal: bool) -> dict:
        """degree -> sorted labels up to the cap and ``top``, by degree, cached.
        Each base label takes the words that fit, a slot it leaves bare
        taking only nonempty monomials when ``normal`` is set; one word
        list serves every base label with the same bare slots and room."""
        top = top if self.degree_cap is None else min(top, self.degree_cap)
        if (n, top, normal) not in self._basis_cache:
            found: dict = {}
            words: dict = {}  # (room, bare slots) -> words
            for qb, labels in self.base.basis_by_degree(n).items():
                for bl in labels if qb <= top else ():
                    covered = {v for p in bl for v in p}
                    bare = tuple(k for k in range(1, n + 1) if k not in covered)
                    key = (top - qb, bare if normal else ())
                    if key not in words:
                        words[key] = self.hopf.words(n, *key)
                    for word, qh in words[key]:
                        found.setdefault(qb + qh, []).append((bl, word))
            self._basis_cache[n, top, normal] = {q: tuple(sorted(found[q])) for q in sorted(found)}
        return self._basis_cache[n, top, normal]

    def degree(self, n: int, label) -> int:
        bl, word = label
        return self.base.degree(n, bl) + sum(self.hopf.degree(m) for m in word)

    @property
    def unit_label(self):
        if self.base.unit_label is None:
            return None
        return (self.base.unit_label, (self.hopf.unit,))

    def column_vanishes(self, n: int, q: int) -> bool:
        """A window into the untruncated operad, exact for normalized
        columns: a base label covering exactly c slots is a normalized base
        label at arity c, its n - c bare slots carry nonempty monomials and
        the covered ones may, so q is reached when q - s is a base degree at
        some c, s a sum of j monomial degrees, n - c <= j <= n.  Memoized."""
        if (n, q) not in self._empty:
            mons = {self.hopf.degree(m) for m in self.hopf.monomials if m}
            sums = [{0}]  # sums[j]: the totals <= q of j nonempty monomials
            for _ in range(n):
                sums.append({a + b for a in sums[-1] for b in mons if a + b <= q})
            self._empty[n, q] = all(
                self.base.column_vanishes(c, q - s)
                for c in range(n + 1) for s in set().union(*sums[n - c:])
            )
        return self._empty[n, q]

    def normal_delta(self, n: int, label) -> list:
        """:func:`delta_by_splits` on the base label and its Hopf words."""
        (bl, gs), units = label, (self.hopf.unit,) * 2
        groups = delta_by_splits(self.base, bl, gs, lambda mon: self._split(mon, 2, units))
        return [
            ((b, gs[: i - 1] + halves + gs[i:]), c) for i, halves, c, kept in groups for b in kept
        ]

    def mu(self) -> OpElement:
        return OpElement.basis(2, ((), (self.hopf.unit,) * 2))

    def compose_basis(self, m: int, xl, i: int, n: int, yl) -> Coeffs:
        """The base composite tensored with each split of slot i between
        the unmoved prefix and the tail, whose generators sort after every
        split and inserted one: moving the inserted ones past them is one
        sign.  Like the sphere base, the host is a window into the
        untruncated operad, so a composite past the degree cap is computed,
        not read as zero; an empty split or base composite (a point at a
        covered slot) ends the call."""
        (bx, gs), (by, hs) = xl, yl
        splits = self._split(gs[i - 1], n, hs)
        base_terms = self.base.compose_basis(m, bx, i, n, by) if splits else {}
        if not base_terms:
            return {}
        head, tail = gs[: i - 1], gs[i:]
        sign = -1 if sum(map(len, tail)) * sum(map(len, hs)) % 2 else 1
        return {
            (bl, head + word + tail): sign * c * bc
            for word, c in splits
            for bl, bc in base_terms.items()
        }

    def _split(self, mon, n: int, hs) -> tuple:
        """``mon`` through the n-fold diagonal, multiplied into the inserted
        words ``hs``, as ``(word, ±1)`` terms; cached per key.  The sign is
        the Koszul sign of moving the odd generators of the split and of hs,
        keyed by (factor j, generator index), to their places in the word.
        A split meeting hs in a factor drops out; the others give distinct
        words (the split is the word less hs), so nothing is summed."""
        key = (mon, n, hs)
        if key not in self._hopf_cache:
            inserted = [(j, g) for j, h in enumerate(hs) for g in h]
            terms = []
            for split, coeff in self.hopf.iterated_coproduct(mon, n).items():
                keys = [(j, g) for j, s in enumerate(split) for g in s] + inserted
                if len(set(keys)) < len(keys):  # a generator repeats in a factor
                    continue
                word = tuple(tuple(sorted(s + h)) for s, h in zip(split, hs))
                terms.append((word, coeff * koszul_sign(keys)))
            self._hopf_cache[key] = tuple(terms)
        return self._hopf_cache[key]


# -- witness operads ---------------------------------------------------------


def witness_operad(m: int = 2, padded: bool = False, break_h1: bool = False) -> FreeChainOperad:
    """Finite chain testbed for the obstruction pipeline.

    Generators: associative nu (arity 2, degree 0), cycle g (arity 1,
    degree 4m-1), and h (arity 2, degree 4m) with
    ``dh = nu o2 g + nu o1 g - g o1 nu``.

    ``padded`` adds a cycle generator c in arity 2 degree 4m and a
    bounded cycle u = dp in arity 3 degree 1, so the choices of h and xi
    become nontrivial while the class stays well-defined.  ``break_h1``
    keeps u but drops p, so H_1 of the arity-3 part is nonzero and the
    xi-independence hypothesis fails (negative control).
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    lines = [
        "nu:2:0",
        f"g:1:{4 * m - 1}",
        f"h:2:{4 * m}",
        "d h = nu o2 g + nu o1 g - g o1 nu",
    ]
    if padded or break_h1:
        lines.append(f"c:2:{4 * m}")
        lines.append("u:3:1")
        if not break_h1:
            lines.append("p:3:2")
            lines.append("d p = u")
    return parse_free_operad(
        "\n".join(lines),
        associative="nu",
        max_arity=3,
        degree_cap=8 * m + 2,
    )


# -- homology operad ---------------------------------------------------------


def arity_complex(op: Operad, n: int) -> ChainComplexWindow:
    """The chain complex of O(n) over its populated degree range.

    Built once per operad and arity, so its homology is computed once
    too; operads are not mutated after first use.
    """
    cache = vars(op).setdefault("_arity_complexes", {})
    if n not in cache:
        cache[n] = _arity_complex(op, n)
    return cache[n]


def _arity_complex(op: Operad, n: int) -> ChainComplexWindow:
    by_deg = op.basis_by_degree(n)
    # complete above unless the top degree equals the operad's degree cap
    top = max((q for q, labels in by_deg.items() if labels), default=0)
    return complex_from_rule(
        by_deg,
        lambda q, label: op.diff_basis(n, label).items(),
        complete_above=op.degree_cap is None or top < op.degree_cap,
    )


def element_to_vector(op: Operad, x: OpElement, q: int):
    return chain_to_vector(x, op.arity_degree_basis(x.arity, q))


def vector_to_element(op: Operad, n: int, q: int, v) -> OpElement:
    return vector_to_chain(n, op.arity_degree_basis(n, q), v)


def homology_operad(op: Operad) -> TableOperad:
    """Homology of a chain operad with induced compositions.

    Basis labels are ``("H", n, q, k)`` for the k-th homology class of
    O(n) in degree q; compositions are computed on representatives, built
    once per class, and reduced back to classes.
    """
    homs = {n: arity_complex(op, n) for n in range(0, op.max_arity + 1)}
    basis: dict = {}
    reps = {}  # label -> representative cycle
    for n, C in homs.items():
        for q, h in C.homology().per_degree.items():
            if h.reliable and h.dim:
                labels = tuple(("H", n, q, k) for k in range(h.dim))
                basis.setdefault(n, {})[q] = labels
                for lab, v in zip(labels, h.representatives):
                    reps[lab] = vector_to_element(op, n, q, v)

    def class_of(n: int, q: int, z: OpElement) -> Coeffs | None:
        """The class of the cycle z in O(n)_q, or None where ``at`` raises
        WindowBoundary: the window cannot certify degree q."""
        try:
            h = homs[n].homology().at(q)
        except WindowBoundary:
            return None
        coords = h.class_coordinates(element_to_vector(op, z, q))
        return {("H", n, q, k): c for k, c in enumerate(coords) if c != 0}

    comp: dict = {}
    for xlab, x in reps.items():
        for ylab, y in reps.items():
            for i in range(1, x.arity + 1):
                try:  # past the arity or degree cap: no induced entry
                    z = op.compose(x, i, y)
                except TruncationError:
                    continue
                coeffs = class_of(z.arity, xlab[2] + ylab[2], z)
                if coeffs is not None:
                    comp[(x.arity, xlab, i, y.arity, ylab)] = coeffs
    # unit class, when the unit is a cycle generating a 1-dim degree-0 part
    unit = None
    if op.unit_label is not None:
        coeffs = class_of(1, op.degree(1, op.unit_label), op.unit()) or {}
        if list(coeffs.values()) == [1]:
            unit = next(iter(coeffs))
    return TableOperad(basis, comp, unit=unit, max_arity=op.max_arity)
