"""Non-symmetric graded/chain operads.

Two backends share one interface: explicit structure constants
(:class:`TableOperad` and rule-based subclasses in ``instances``), and
free operads on graded generators presented by planar-tree terms with
rewriting (:class:`FreeChainOperad`).

Elements are finite rational combinations of basis labels at a fixed
arity.  Partial composition, the Leibniz differential, and the axiom
checker are linear extensions of the basis-level maps each backend
provides.

Sign conventions
----------------
The chain-level Koszul sign of grafting y into slot i of x is
``(-1)^{|y| * R}`` where R sums the degrees of the generators of x that
occur after leaf i in preorder (equivalently: strictly right of the path
to slot i).  The graded associativity axioms are then

* nested:   (x o_i y) o_{i-1+j} z  =  x o_i (y o_j z)
* parallel: (x o_i y) o_{j+n-1} z  =  (-1)^{|y||z|} (x o_j z) o_i y   (i < j)

These conventions are not asserted a priori; the d^2 = 0, Leibniz, and
axiom suites pin them.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import partial
from typing import NamedTuple

Coeffs = dict  # label -> exact coefficient (int or Fraction), no zeros


def combine(terms) -> Coeffs:
    """Sum ``(label, coefficient)`` pairs per label, exactly as given, and
    drop the zero sums.  Derived label maps hand out raw terms, each summed
    once, here or by ``linalg.assemble``, which decides the number format."""
    out: dict = {}
    for l, c in terms:
        if l in out:
            out[l] += c
        else:
            out[l] = c
    return {l: c for l, c in out.items() if c}


def extend(f, terms) -> Coeffs:
    """The linear extension of the label map f (label -> Coeffs) to the
    combination ``terms`` of ``(label, coefficient)`` pairs."""
    return combine((l2, c if c2 == 1 else c * c2) for l, c in terms for l2, c2 in f(l).items())


class TruncationError(Exception):
    """Composition result leaves the declared truncation."""


class ArityOverflow(TruncationError):
    pass


class DegreeOverflow(TruncationError):
    pass


class OpElement(NamedTuple):
    """Linear combination of basis labels at one arity."""

    arity: int
    coeffs: tuple  # sorted tuple of (label, coefficient) pairs, no zeros

    @classmethod
    def make(cls, arity: int, coeffs: Coeffs) -> "OpElement":
        items = tuple(
            sorted(((l, c) for l, c in coeffs.items() if c != 0), key=lambda t: repr(t[0]))
        )
        return cls(arity, items)

    @classmethod
    def basis(cls, arity: int, label) -> "OpElement":
        return cls.make(arity, {label: 1})

    @classmethod
    def zero(cls, arity: int) -> "OpElement":
        return cls(arity, ())

    def as_dict(self) -> Coeffs:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "OpElement") -> "OpElement":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        return OpElement.make(self.arity, combine(self.coeffs + other.coeffs))

    def __sub__(self, other: "OpElement") -> "OpElement":
        return self + -other

    def scale(self, c) -> "OpElement":
        c = Fraction(c)
        return OpElement.make(self.arity, {l: c * v for l, v in self.coeffs})

    def __neg__(self) -> "OpElement":
        return OpElement(self.arity, tuple((l, -c) for l, c in self.coeffs))

    def support(self):
        return [l for l, _ in self.coeffs]


def chain_to_vector(x: OpElement, labels) -> list:
    """Coordinates of x over the ordered basis ``labels``."""
    index = {l: k for k, l in enumerate(labels)}
    v = [Fraction(0)] * len(labels)
    for l, c in x.coeffs:
        v[index[l]] += c
    return v


def chain_to_sparse(x: OpElement, index) -> dict:
    """x as a sparse ``{position: coefficient}`` map over a ``label ->
    position`` index; a KeyError names a label outside it."""
    return {index[l]: c for l, c in x.coeffs}


def vector_to_chain(n: int, labels, v) -> OpElement:
    """The arity-n chain with coordinates v over ``labels``."""
    return OpElement.make(n, {l: Fraction(c) for l, c in zip(labels, v) if c != 0})


class Operad:
    """Shared interface for both backends.

    Subclasses provide basis enumeration, degrees, basis-level composition
    and differential; this class supplies the linear extensions.
    """

    max_arity: int
    degree_cap: int | None = None
    # (n, label) -> unsummed (label, +-1) delta of mu() on normalized labels, by one rule
    # on the sphere and framed hosts: instances.delta_by_splits
    normal_delta = None
    normalized_exact = False  # True: normalized_basis is the codegeneracy filter, unconfirmed

    def basis_by_degree(self, n: int) -> dict:
        """degree -> tuple of labels, within the truncation, and no degree
        without labels."""
        raise NotImplementedError

    def degree(self, n: int, label) -> int:
        raise NotImplementedError

    def compose_basis(self, m: int, xl, i: int, n: int, yl) -> Coeffs:
        """xl o_i yl for basis labels, with no zero terms."""
        raise NotImplementedError

    def diff_basis(self, n: int, label) -> Coeffs:
        return {}

    @property
    def unit_label(self):
        return None

    def has_differential(self) -> bool:
        return False

    # -- linear extensions ----------------------------------------------

    def element_degree(self, n: int, x: OpElement) -> int | None:
        degs = {self.degree(n, l) for l in x.support()}
        if not degs:
            return None
        if len(degs) != 1:
            raise ValueError("inhomogeneous element")
        return degs.pop()

    def compose(self, x: OpElement, i: int, y: OpElement) -> OpElement:
        return self.compose_sum([(1, x, i, y)])

    def compose_sum(self, parts) -> OpElement:
        """The sum of sign * (x o_i y) over the list of ``(sign, x, i, y)``
        parts, each sign +1 or -1 and every composite of one arity: every
        composite's terms go into one ``combine``, a sign by negation."""
        arities = {x.arity + y.arity - 1 for _, x, _, y in parts}
        if len(arities) != 1:
            raise ValueError(f"a sum of composites needs one arity, got {sorted(arities)}")
        return OpElement.make(arities.pop(), combine(
            (l, c if s == 1 else -c)
            for s, x, i, y in parts
            for l, c in self.compose_terms(x.arity, x.coeffs, i, y.arity, y.coeffs)
        ))

    def compose_terms(self, m: int, xs, i: int, n: int, ys) -> list:
        """x o_i y for x = sum xc xl in O(m) and y = sum yc yl in O(n), given
        as ``(label, coefficient)`` pairs: the bilinear extension of
        ``compose_basis`` as a list of unsummed terms, so a truncation raises here."""
        if not (1 <= i <= m):
            raise ValueError(f"slot {i} out of range for arity {m}")
        if m + n - 1 > self.max_arity:
            raise ArityOverflow(f"arity {m + n - 1} exceeds cap {self.max_arity}")
        return [
            (l, k if c == 1 else k * c)  # a unit factor makes no product
            for xl, xc in xs
            for yl, yc in ys
            for k in [yc if xc == 1 else xc if yc == 1 else xc * yc]  # one per label pair
            for l, c in self.compose_basis(m, xl, i, n, yl).items()
        ]

    def differential(self, x: OpElement) -> OpElement:
        return OpElement.make(x.arity, extend(partial(self.diff_basis, x.arity), x.coeffs))

    def unit(self) -> OpElement:
        if self.unit_label is None:
            raise ValueError("operad has no unit")
        return OpElement.basis(1, self.unit_label)

    def basis_elements(self, n: int) -> list[OpElement]:
        by_deg = self.basis_by_degree(n)
        return [OpElement.basis(n, l) for q in sorted(by_deg) for l in by_deg[q]]

    def arity_degree_basis(self, n: int, q: int):
        """Canonical ordered basis labels of O(n)_q."""
        return tuple(self.basis_by_degree(n).get(q, ()))

    def dim(self, n: int, q: int) -> int:
        return len(self.arity_degree_basis(n, q))

    def normalized_basis(self, n: int, top: int) -> dict:
        """degree -> labels, like ``basis_by_degree(n)`` but built only up to
        degree ``top``: at each degree a subsequence of the basis, in basis
        order, holding every label that all codegeneracies kill, and no
        degree without labels.  Hosts that know which labels a codegeneracy
        keeps drop them here; the default drops none."""
        return {q: labels for q, labels in self.basis_by_degree(n).items() if q <= top}

    def column_vanishes(self, n: int, q: int) -> bool:
        """Whether column n is zero in chain degree q, exactly; a host with a
        point speaks for its normalized columns.  A truncated host is the
        object itself: its map is exact, and nothing lives above its caps."""
        return n > self.max_arity or q not in self.basis_by_degree(n)


# -- axiom checking ----------------------------------------------------------


class AxiomFailure(NamedTuple):
    kind: str  # "nested" | "parallel" | "unit-left" | "unit-right" | "leibniz"
    detail: tuple


class AxiomReport:
    def __init__(self, checked: int = 0, skipped: int = 0, failures: list | None = None):
        self.checked = checked
        self.skipped = skipped
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, kind: str, detail: tuple, residual) -> None:
        """Tally one check.  ``residual()`` returns the element the law
        says is zero, or a list of ``(kind, detail, element)`` laws that
        count as one check; a TruncationError skips the check."""
        try:
            value = residual()
        except TruncationError:
            self.skipped += 1
            return
        self.checked += 1
        laws = value if isinstance(value, list) else [(kind, detail, value)]
        self.failures.extend(AxiomFailure(k, d) for k, d, r in laws if not r.is_zero())


def check_operad_axioms(op: Operad, samples: int | None = None, rng=None) -> AxiomReport:
    """Verify graded associativity and unit laws on basis triples.

    Exhaustive by default; ``samples`` caps the number of triples (taken
    from a shuffled enumeration when ``rng`` is given).
    """
    report = AxiomReport()
    triples = list(_composable_triples(op))
    if rng is not None:
        rng.shuffle(triples)
    if samples is not None:
        triples = triples[:samples]
    for m, xl, n, yl, k, zl, i, j, kind in triples:
        x = OpElement.basis(m, xl)
        y = OpElement.basis(n, yl)
        z = OpElement.basis(k, zl)
        if kind == "nested":
            residual = lambda: op.compose(op.compose(x, i, y), i - 1 + j, z) - op.compose(
                x, i, op.compose(y, j, z)
            )
        else:  # parallel, i < j
            sgn = (-1) ** (op.degree(n, yl) * op.degree(k, zl))
            residual = lambda: op.compose(op.compose(x, i, y), j + n - 1, z) - op.compose(
                op.compose(x, j, z), i, y
            ).scale(sgn)
        report.record(kind, (m, xl, i, n, yl, j, k, zl), residual)
    # unit laws: one check per element
    if op.unit_label is not None:
        one = op.unit()
        for n in range(1, op.max_arity + 1):
            for x in op.basis_elements(n):
                report.record("unit", (n, x.coeffs), lambda: [
                    ("unit-left", (n, x.coeffs), op.compose(one, 1, x) - x)
                ] + [
                    ("unit-right", (n, x.coeffs, i), op.compose(x, i, one) - x)
                    for i in range(1, n + 1)
                ])
    return report


def _composable_triples(op: Operad):
    cap = op.max_arity
    arities = range(0, cap + 1)
    for m in arities:
        if m == 0:
            continue
        xs = [l for q in op.basis_by_degree(m).values() for l in q]
        for n in arities:
            if m + n - 1 > cap:
                continue
            ys = [l for q in op.basis_by_degree(n).values() for l in q]
            for k in arities:
                zs = [l for q in op.basis_by_degree(k).values() for l in q]
                for xl in xs:
                    for yl in ys:
                        for zl in zs:
                            # nested: z into slot j of y
                            if n >= 1 and m + n + k - 2 <= cap:
                                for i in range(1, m + 1):
                                    for j in range(1, n + 1):
                                        yield m, xl, n, yl, k, zl, i, j, "nested"
                            # parallel: slots i < j of x
                            if m + n + k - 2 <= cap:
                                for i in range(1, m + 1):
                                    for j in range(i + 1, m + 1):
                                        yield m, xl, n, yl, k, zl, i, j, "parallel"


def check_leibniz(op: Operad) -> AxiomReport:
    """d(x o_i y) = dx o_i y + (-1)^{|x|} x o_i dy on all basis pairs."""
    report = AxiomReport()
    cap = op.max_arity
    d = op.differential
    for m in range(1, cap + 1):
        xs = [(l, q) for q, ls in op.basis_by_degree(m).items() for l in ls]
        for n in range(0, cap + 1):
            if m + n - 1 > cap:
                continue
            ys = [l for q in op.basis_by_degree(n).values() for l in q]
            for xl, xq in xs:
                x = OpElement.basis(m, xl)
                for yl in ys:
                    y = OpElement.basis(n, yl)
                    for i in range(1, m + 1):
                        report.record("leibniz", (m, xl, i, n, yl), lambda: (
                            d(op.compose(x, i, y))
                            - op.compose(d(x), i, y)
                            - op.compose(x, i, d(y)).scale((-1) ** xq)
                        ))
    return report


def check_d_squared(op: Operad) -> AxiomReport:
    report = AxiomReport()
    for n in range(0, op.max_arity + 1):
        for x in op.basis_elements(n):
            report.record(
                "d-squared", (n, x.coeffs), lambda: op.differential(op.differential(x))
            )
    return report


# -- explicit structure-constant backend -------------------------------------


class TableOperad(Operad):
    """Operad given by explicit structure-constant tables."""

    def __init__(
        self,
        basis: dict,  # arity -> {degree -> tuple of labels}
        compositions: dict,  # (m, xl, i, n, yl) -> {label: coefficient}
        unit=None,
        differentials: dict | None = None,  # (n, label) -> {label: coefficient}
        max_arity: int | None = None,
    ):
        self._basis = {
            n: {q: tuple(ls) for q, ls in by_deg.items() if ls}
            for n, by_deg in basis.items()
        }
        self._degree = {}
        for n, by_deg in self._basis.items():
            for q, ls in by_deg.items():
                for l in ls:
                    self._degree[(n, l)] = q
        # copies: editing the caller's tables afterwards leaves the operad as it is
        self._comp = {key: dict(c) for key, c in compositions.items()}
        self._unit = unit
        self._diff = {key: dict(c) for key, c in (differentials or {}).items()}
        self.max_arity = max_arity if max_arity is not None else max(self._basis)

    def basis_by_degree(self, n: int) -> dict:
        return self._basis.get(n, {})

    def degree(self, n: int, label) -> int:
        return self._degree[(n, label)]

    def compose_basis(self, m: int, xl, i: int, n: int, yl) -> Coeffs:
        try:
            return dict(self._comp[(m, xl, i, n, yl)])
        except KeyError:
            raise ArityOverflow(
                f"no structure constants for ({m},{xl}) o_{i} ({n},{yl})"
            ) from None

    def diff_basis(self, n: int, label) -> Coeffs:
        return dict(self._diff.get((n, label), {}))

    def has_differential(self) -> bool:
        return bool(self._diff)

    @property
    def unit_label(self):
        return self._unit

    def corrupted(self, key, replacement: Coeffs) -> "TableOperad":
        """Copy with one structure constant replaced (negative controls)."""
        return TableOperad(
            self._basis,
            {**self._comp, key: replacement},
            unit=self._unit,
            differentials=self._diff,
            max_arity=self.max_arity,
        )


# -- planar tree terms and the free backend ----------------------------------

LEAF = ()  # leaves are empty tuples; internal nodes are (gen_name, child, ...)


def tree_arity(tree) -> int:
    if tree == LEAF:
        return 1
    return sum(tree_arity(c) for c in tree[1:])


class FreeChainOperad(Operad):
    """Free operad on graded generators, with optional strict associativity.

    ``generators`` maps name -> (arity, degree).  ``diff_rules`` assigns to
    a generator name an OpElement (combination of trees of the same arity,
    degree one less); the differential extends by the Leibniz rule.  When
    ``associative`` names a binary degree-0 generator nu, terms are kept in
    left-comb normal form: nu(a, nu(b, c)) rewrites to nu(nu(a, b), c).
    """

    def __init__(
        self,
        generators: dict,
        diff_rules: dict | None = None,
        associative: str | None = None,
        max_arity: int = 3,
        degree_cap: int = 32,
    ):
        self.generators = dict(generators)
        self.diff_rules = dict(diff_rules or {})
        self.associative = associative
        self.max_arity = max_arity
        self.degree_cap = degree_cap
        if associative is not None:
            ar, dg = self.generators[associative]
            if (ar, dg) != (2, 0):
                raise ValueError("associative generator must be binary of degree 0")
        for name, (ar, dg) in self.generators.items():
            if ar == 0:
                raise ValueError("arity-0 generators unsupported in free backend")
            if ar == 1 and dg <= 0:
                raise ValueError(
                    f"unary generator {name} of degree {dg} makes the basis infinite"
                )
        self._basis_cache: dict = {}
        self._layers: list = [[]]  # _layers[k]: (tree, degree) pairs with k leaves
        # d of each label, the graft of each (xl, i, yl): built once, handed out as new dicts
        self._diffs: dict = {}
        self._composites: dict = {}

    # -- basic tree data -------------------------------------------------

    def gen_degree(self, name: str) -> int:
        return self.generators[name][1]

    def tree_degree(self, tree) -> int:
        if tree == LEAF:
            return 0
        return self.gen_degree(tree[0]) + sum(self.tree_degree(c) for c in tree[1:])

    def degree(self, n: int, label) -> int:
        return self.tree_degree(label)

    @property
    def unit_label(self):
        return LEAF

    def _right_nested(self, tree) -> bool:
        """Whether the root is nu(a, nu(b, c)), the shape the rewrite removes."""
        nu = self.associative
        return tree[0] == nu and tree[2] != LEAF and tree[2][0] == nu

    def normalize_tree(self, tree):
        """Left-comb normal form.  The rewrite moves only the degree-0
        associative generator, so no Koszul signs arise."""
        if tree == LEAF:
            return tree
        tree = (tree[0],) + tuple(self.normalize_tree(c) for c in tree[1:])
        if self._right_nested(tree):
            nu = self.associative
            a, (_, b, c) = tree[1], tree[2]
            return self.normalize_tree((nu, (nu, a, b), c))
        return tree

    # -- basis enumeration ----------------------------------------------

    def basis_by_degree(self, n: int) -> dict:
        if n not in self._basis_cache:
            by_deg: dict = {}
            for t, q in sorted(self._enumerate(n), key=lambda tq: (tq[1], repr(tq[0]))):
                by_deg.setdefault(q, []).append(t)
            self._basis_cache[n] = {q: tuple(ts) for q, ts in by_deg.items()}
        return self._basis_cache[n]

    def _enumerate(self, n: int) -> list:
        """(tree, degree) pairs of the normal-form trees with n leaves and
        degree within the cap.

        Layers are built by leaf count.  A vertex of arity >= 2 takes its
        children from the finished layers with fewer leaves; the layer is
        then closed under the unary generators, whose positive degrees and
        the cap end every unary tower.  Children are already normal, so
        only the root can break the left-comb form, and each tree is built
        exactly once, its degree summed from its children's.
        """
        layers = self._layers
        while len(layers) <= min(n, self.max_arity):
            k = len(layers)
            layer = [(LEAF, 0)] if k == 1 else []
            for name, (ar, dg) in self.generators.items():
                if ar < 2:
                    continue
                for split in _compositions(k, ar):
                    for kids in itertools.product(*(layers[s] for s in split)):
                        t = (name,) + tuple(c for c, _ in kids)
                        q = dg + sum(d for _, d in kids)
                        if q <= self.degree_cap and not self._right_nested(t):
                            layer.append((t, q))
            for t, q in layer:  # the layer grows while it is read
                for name, (ar, dg) in self.generators.items():
                    if ar == 1 and q + dg <= self.degree_cap:
                        layer.append(((name, t), q + dg))
            layers.append(layer)
        return layers[n] if 1 <= n <= self.max_arity else []

    # -- composition and differential ------------------------------------

    def _graft(self, tree, i: int, sub):
        """Replace leaf i (1-based, left to right) of tree by sub.  Returns
        the new tree and the degree sum of the generators of tree after
        leaf i in preorder, which fixes the Koszul sign of the graft."""
        seen = after = 0

        def walk(t):
            nonlocal seen, after
            if t == LEAF:
                seen += 1
                return sub if seen == i else t
            if seen >= i:
                after += self.gen_degree(t[0])
            return (t[0],) + tuple(walk(c) for c in t[1:])

        return walk(tree), after

    def compose_basis(self, m: int, xl, i: int, n: int, yl) -> Coeffs:
        key = (xl, i, yl)  # a key past the cap is never stored: it raises every time
        if key not in self._composites:
            ydeg = self.tree_degree(yl)
            q = self.tree_degree(xl) + ydeg
            if q > self.degree_cap:
                raise DegreeOverflow(f"degree {q} exceeds cap {self.degree_cap}")
            tree, after = self._graft(xl, i, yl)
            sign = -1 if ydeg * after % 2 else 1
            self._composites[key] = (self.normalize_tree(tree), sign)
        label, c = self._composites[key]
        return {label: c}

    def diff_basis(self, n: int, label) -> Coeffs:
        if label not in self._diffs:
            terms = ((self.normalize_tree(t), c) for t, c in self._leibniz(label, 0)[0])
            self._diffs[label] = tuple(combine(terms).items())
        return dict(self._diffs[label])

    def has_differential(self) -> bool:
        return any(not v.is_zero() for v in self.diff_rules.values())

    def _leibniz(self, tree, pre: int):
        """(terms, degree) of a subtree whose preorder predecessors have
        degree sum ``pre``.  The terms are (tree, coefficient) pairs, not
        yet normalized: each replaces one vertex v by its rule, with sign
        (-1)^(degrees before v in preorder), the children of v grafted
        into the rule's leaves left to right."""
        if tree == LEAF:
            return [], 0
        name, kids = tree[0], tree[1:]
        below, degree = [], self.gen_degree(name)
        kid_degrees = []
        for j, kid in enumerate(kids):
            terms, kd = self._leibniz(kid, pre + degree)
            below += [(tree[: j + 1] + (t,) + tree[j + 2 :], c) for t, c in terms]
            degree += kd
            kid_degrees.append(kd)
        own = []
        rule = self.diff_rules.get(name)
        for t, c in rule.coeffs if rule is not None else ():
            c = -c if pre % 2 else c
            pos = 1
            for kid, kd in zip(kids, kid_degrees):
                t, after = self._graft(t, pos, kid)
                c = -c if kd * after % 2 else c
                pos += tree_arity(kid)
            own.append((t, c))
        return own + below, degree


def _compositions(total: int, parts: int):
    """Ways to write total as an ordered sum of `parts` >= 1 positive integers."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# -- text syntax -------------------------------------------------------------

_GEN_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*:\s*(\d+)\s*:\s*(-?\d+)\s*$")
_DIFF_RE = re.compile(r"^\s*d\s+([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.*)$")


def parse_free_operad(
    text: str,
    associative: str | None = None,
    max_arity: int = 3,
    degree_cap: int = 32,
) -> FreeChainOperad:
    """Build a free chain operad from a small text syntax.

    Lines are either generator declarations ``name:arity:degree`` or
    differential assignments ``d name = nu o2 g + nu o1 g - g o1 nu``.
    Composition chains associate to the left.
    """
    generators: dict = {}
    diff_lines = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if m := _DIFF_RE.match(line):
            diff_lines.append((line, m.group(1), m.group(2)))
        elif m := _GEN_RE.match(line):
            if m.group(1) in generators:
                raise ValueError(f"generator declared twice: {line!r}")
            generators[m.group(1)] = (int(m.group(2)), int(m.group(3)))
        else:
            raise ValueError(f"cannot parse line: {line!r}")
    op = FreeChainOperad(
        generators, {}, associative=associative, max_arity=max_arity, degree_cap=degree_cap
    )
    for line, name, expr in diff_lines:
        if name not in generators:
            raise ValueError(f"rule for an undeclared generator: {line!r}")
        if name in op.diff_rules:
            raise ValueError(f"second rule for {name}: {line!r}")
        ar, dg = generators[name]
        try:
            rule = _parse_expression(op, expr)
        except KeyError as e:
            raise ValueError(f"undeclared generator {e}: {line!r}") from None
        except (ValueError, ZeroDivisionError, TruncationError) as e:
            raise ValueError(f"{e}: {line!r}") from None
        degrees = {op.degree(rule.arity, l) for l in rule.support()}
        if degrees and (rule.arity, degrees) != (ar, {dg - 1}):
            raise ValueError(
                f"d {name} must have arity {ar} and degree {dg - 1}: {line!r}"
            )
        op.diff_rules[name] = rule
    return op


def generator_element(op: FreeChainOperad, name: str) -> OpElement:
    """The basis element of a generator: one vertex over its leaves."""
    ar, _ = op.generators[name]
    return OpElement.basis(ar, (name,) + (LEAF,) * ar)


def _parse_expression(op: FreeChainOperad, expr: str) -> OpElement:
    terms = re.split(r"(?=[+-])", expr)
    result: OpElement | None = None
    for raw in terms:
        raw = raw.strip()
        if not raw:
            continue
        sign = 1
        if raw[0] == "+":
            raw = raw[1:].strip()
        elif raw[0] == "-":
            sign = -1
            raw = raw[1:].strip()
        coeff = sign
        cm = re.match(r"^(\d+(?:/\d+)?)\s*\*\s*(.*)$", raw)
        if cm:
            coeff *= Fraction(cm.group(1))
            raw = cm.group(2).strip()
        tokens = raw.split()
        if len(tokens) % 2 != 1:
            raise ValueError(f"malformed term: {raw!r}")
        elem = generator_element(op, tokens[0])
        for k in range(1, len(tokens), 2):
            slot_tok, gen_tok = tokens[k], tokens[k + 1]
            sm = re.match(r"^o(\d+)$", slot_tok)
            if not sm:
                raise ValueError(f"expected composition token, got {slot_tok!r}")
            elem = op.compose(elem, int(sm.group(1)), generator_element(op, gen_tok))
        term = OpElement.make(elem.arity, {l: coeff * c for l, c in elem.coeffs})
        result = term if result is None else result + term
    if result is None:
        raise ValueError("empty expression")
    return result
