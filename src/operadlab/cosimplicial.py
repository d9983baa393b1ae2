"""Cosimplicial machinery for multiplicative operads.

* :func:`mcclure_smith` builds the semicosimplicial chain complex of an
  operad with a chosen multiplication: cofaces compose with the
  multiplication on either side or into slot i, codegeneracies (when an
  arity-0 point exists) compose with the point.
* :class:`HochschildComplex` is the resulting double complex — columns
  indexed by arity n (filtration degree p = -n), internal chain degree q,
  vertical differential from the host, horizontal differential the
  alternating coface sum delta.  Each column is read from the host's
  arity-n basis, degree by degree over the host's ``degrees``; with
  codegeneracies it holds only the normalized (all-codegeneracies-vanish)
  labels, which the host's ``normalized_basis`` proposes and the
  codegeneracies confirm label by label.  The sphere and framed hosts
  build them from their covering rule and never list the raw basis.
* :func:`hochschild_homology` computes the bigraded homology for
  zero-differential hosts, with representatives.
* :func:`ss_pages` computes the spectral sequence of the column
  filtration: E^1 is columnwise homology, d_r has bidegree (-r, r-1),
  and each page is derived exactly from the filtered total complex.
* :func:`total_complex` is the direct abutment oracle, the spectral
  sequence's one total complex, whose differentials ``SpectralSequence.D``
  reads; :func:`zigzag_dr` is the explicit lifting computation behind d_r.

Sign convention: the total differential is D = d + (-1)^q delta; the
cofaces commute with d (they are chain maps), which makes D^2 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial

from .complexes import ChainComplexWindow, GradedSpace, complex_from_rule, totals_by_degree
from .instances import MultiplicativeStructure, arity_complex
from .linalg import (
    NoSolution,
    RationalMatrix,
    Subquotient,
    assemble,
    is_zero_vec,
    rank,
    solve_particular,
    vec,
)
from .operads import Coeffs, OpElement, vector_to_chain


class LiftFailure(Exception):
    """A spectral-sequence lift left the computed window."""


class SemicosimplicialChainComplex:
    """Columns X^n = host(n), 0 <= n <= n_max, with cofaces
    d^i: X^n -> X^{n+1}, 0 <= i <= n+1.

    ``coface(n, i, label) -> Coeffs`` gives the coface on a basis label of
    column n; ``codegeneracy(n, i, label) -> Coeffs`` (optional) gives
    s^i: X^{n+1} -> X^n for 0 <= i <= n.  ``normal_delta(n, label)``
    (optional) gives delta on a normalized label restricted to the
    normalized labels.  The host owns each column's basis and differential.
    """

    def __init__(self, host, n_max: int, coface, codegeneracy=None, normal_delta=None):
        self.host = host
        self.n_max = n_max
        self.coface = coface
        self.codegeneracy = codegeneracy
        self.normal_delta = normal_delta

    def _basis(self, n: int, q_max: int | None):
        """(q, label) over the host's arity-n basis, degrees up to q_max."""
        for q, labels in sorted(self.host.basis_by_degree(n).items()):
            if q_max is None or q <= q_max:
                for label in labels:
                    yield q, label

    def delta_on_label(self, n: int, label) -> Coeffs:
        """Alternating coface sum delta = sum_i (-1)^i d^i on one label,
        summed on ints wherever a coefficient is integral."""
        out: dict = {}
        for i in range(n + 2):
            for l2, c in self.coface(n, i, label).items():
                if c.denominator == 1:
                    c = c.numerator
                if i % 2:
                    c = -c
                out[l2] = out.get(l2, 0) + c
        return {l: Fraction(c) for l, c in out.items() if c}

    def is_normal_label(self, n: int, label) -> bool:
        """True when every codegeneracy kills the label (n >= 1)."""
        if self.codegeneracy is None:
            return True
        for i in range(n):  # s^i : X^n -> X^{n-1}, 0 <= i <= n-1
            if self.codegeneracy(n - 1, i, label):
                return False
        return True

    # -- identity checks -------------------------------------------------

    def check_coface_identities(self, q_max: int | None = None) -> list:
        """d^j d^i = d^i d^{j-1} for i < j, on every stored basis label."""
        failures = []
        face = self.coface
        for n in range(self.n_max - 1):
            for _, label in self._basis(n, q_max):
                for j in range(n + 3):
                    for i in range(j):
                        if _differ(
                            _then(partial(face, n, i), partial(face, n + 1, j), label),
                            _then(partial(face, n, j - 1), partial(face, n + 1, i), label),
                        ):
                            failures.append(("coface", n, i, j, label))
        return failures

    def check_codegeneracy_identities(self, q_max: int | None = None) -> list:
        """The identity relations s^j d^j = s^j d^{j+1} = id on stored labels."""
        if self.codegeneracy is None:
            return []
        failures = []
        face, degen = self.coface, self.codegeneracy
        for n in range(self.n_max):
            for _, label in self._basis(n, q_max):
                for j in range(n + 1):
                    for i in (j, j + 1):
                        acc = _then(partial(face, n, i), partial(degen, n, j), label)
                        if _differ(acc, {label: 1}):
                            failures.append(("codegeneracy", n, i, j, label))
        return failures

    def check_cofaces_chain_maps(self) -> list:
        """Each coface commutes with the internal differential."""
        failures = []
        for n in range(self.n_max):
            d_src = partial(self.host.diff_basis, n)
            d_tgt = partial(self.host.diff_basis, n + 1)
            for q, label in self._basis(n, None):
                for i in range(n + 2):
                    face = partial(self.coface, n, i)
                    if _differ(_then(face, d_tgt, label), _then(d_src, face, label)):
                        failures.append(("chain-map", n, i, q, label))
        return failures


def _then(f, g, label) -> Coeffs:
    """(g after f)(label) for label maps returning Coeffs."""
    out: Coeffs = {}
    for l2, c in f(label).items():
        for l3, c2 in g(l2).items():
            out[l3] = out.get(l3, Fraction(0)) + c * c2
    return out


def _differ(a: Coeffs, b: Coeffs) -> bool:
    return any(a.get(l, 0) != b.get(l, 0) for l in a.keys() | b.keys())


def mcclure_smith(M: MultiplicativeStructure, n_max: int | None = None):
    """Semicosimplicial chain complex of a multiplicative operad.

    Cofaces on x of arity n: d^0 = mult composed below slot 2 of the
    multiplication (mult o2 x), d^i = x o_i mult for 1 <= i <= n, and
    d^{n+1} = mult o1 x.  Codegeneracies s^i = (- o_{i+1} point) when the
    structure has an arity-0 point.  The columns are the host's arities
    0..n_max; ``HochschildComplex`` reads their labels and restricts them
    to the normalized ones, where the host's ``normal_delta`` gives delta
    if mult is its ``mu()``.  ``n_max`` may not exceed the arity cap.
    """
    op = M.operad
    if n_max is None:
        n_max = op.max_arity
    if not 0 <= n_max <= op.max_arity:
        raise ValueError("n_max lies outside 0..the operad's arity truncation")

    mult = M.mult.coeffs

    def coface(n, i, label) -> Coeffs:
        x = ((label, 1),)
        if i == 0:
            return op.compose_terms(2, mult, 2, n, x)
        if i == n + 1:
            return op.compose_terms(2, mult, 1, n, x)
        return op.compose_terms(n, x, i, 2, mult)

    codegeneracy = normal_delta = None
    if M.point is not None:
        point = M.point.coeffs

        def codegeneracy(n, i, label) -> Coeffs:
            return op.compose_terms(n + 1, ((label, 1),), i + 1, 0, point)

        if op.normal_delta is not None and M.mult == op.mu():
            normal_delta = op.normal_delta
    return SemicosimplicialChainComplex(op, n_max, coface, codegeneracy, normal_delta)


def hochschild_differential(M: MultiplicativeStructure, x: OpElement) -> OpElement:
    """delta(x) = sum_{i=0}^{n+1} (-1)^i d^i(x), an element of O(n+1): the
    linear extension of ``delta_on_label``, the coboundary of the complex."""
    delta = partial(mcclure_smith(M).delta_on_label, x.arity)
    out: Coeffs = {}
    for l, c in x.coeffs:
        for l2, c2 in delta(l).items():
            out[l2] = out.get(l2, Fraction(0)) + c * c2
    return OpElement.make(x.arity + 1, out)


# -- the double complex ------------------------------------------------------


class HochschildComplex:
    """Bigraded double complex of a semicosimplicial chain complex.

    Positions (n, q) with vertical differential d (q -> q-1, read off
    column n's chain complex) and horizontal differential delta
    (n -> n+1).  When the underlying object has codegeneracies and
    ``normalized`` is set, each column is restricted to the normalized
    labels of the host's arity-n basis: the host's
    ``normalized_basis`` proposes them, in basis order, and the
    codegeneracies confirm each one, so an over-inclusive host still gives
    exact columns.  The degrees come from the host's ``degrees``, so a
    host that builds its normalized labels directly never lists its raw
    basis here.  delta preserves that span even though individual
    cofaces do not; the host's ``normal_delta``, when there is one, builds
    only its terms on normalized labels.  ``assemble`` refuses any other.
    """

    def __init__(self, X: SemicosimplicialChainComplex, q_max: int, normalized=True):
        self.X = X
        self.q_max = q_max
        self.n_max = X.n_max
        self.normalized = normalized and X.codegeneracy is not None
        self._labels: dict = {}
        self._index: dict = {}
        self._degrees = {n: X.host.degrees(n) for n in range(self.n_max + 1)}
        for n, degrees in self._degrees.items():
            for q in degrees:
                if q > q_max:
                    break
                labels = tuple(
                    l for l in X.host.normalized_basis(n, q) if X.is_normal_label(n, l)
                ) if self.normalized else X.host.arity_degree_basis(n, q)
                if labels:
                    self._labels[(n, q)] = labels
                    self._index[(n, q)] = {l: k for k, l in enumerate(labels)}
        self._delta_cache: dict = {}
        self._columns: dict = {}  # n -> column n's chain complex under d
        self._ss: SpectralSequence | None = None

    def spectral_sequence(self) -> "SpectralSequence":
        """The column-filtration spectral sequence, built once."""
        if self._ss is None:
            self._ss = SpectralSequence(self)
        return self._ss

    def labels(self, n: int, q: int):
        return self._labels.get((n, q), ())

    def dim(self, n: int, q: int) -> int:
        return len(self.labels(n, q))

    def positions(self):
        return sorted(self._labels)

    def vanishes(self, n: int, q: int) -> bool:
        """Whether position (n, q) is certified zero.  In the stored range
        that means no kept labels; past q_max, inside the range of the
        host's ``degrees(n)`` (an empty arity counts as degree 0), that q
        is not one of them; past that, the host's ``column_vanishes``."""
        if (n, q) in self._labels:
            return False
        if n < 0 or q < 0 or (n <= self.n_max and q <= self.q_max):
            return True
        if n <= self.n_max:
            degrees = self._degrees[n]
            if min(degrees, default=0) <= q <= max(degrees, default=0):
                return q not in degrees
        return self.X.host.column_vanishes(n, q)

    def d_mat(self, n: int, q: int) -> RationalMatrix:
        """Vertical differential (n, q) -> (n, q-1) on kept labels, read off
        column n's complex, which is built on first use and checked for
        d o d = 0: the host's arity complex when unnormalized, else the kept
        labels under the host's ``diff_basis`` (the column stops at q_max,
        so its top is open).  The zero map where nothing is kept."""
        if n not in self._columns:
            host = self.X.host
            self._columns[n] = complex_from_rule(
                {q: labels for (m, q), labels in self._labels.items() if m == n},
                lambda q, label: host.diff_basis(n, label).items(),
                complete_above=False,
            ) if self.normalized else arity_complex(host, n)
        if (n, q) in self._labels:
            return self._columns[n].d(q)
        return RationalMatrix.zero(self.dim(n, q - 1), 0)

    def delta_mat(self, n: int, q: int) -> RationalMatrix:
        """Horizontal differential (n, q) -> (n+1, q) on kept labels."""
        key = (n, q)
        if key not in self._delta_cache:
            src = self.labels(n, q)
            if n >= self.n_max:
                # out of the stored window: zero map (truncated object)
                self._delta_cache[key] = RationalMatrix.zero(0, len(src))
                return self._delta_cache[key]
            rule = (self.normalized and self.X.normal_delta) or self.X.delta_on_label
            self._delta_cache[key] = assemble(
                src,
                self._index.get((n + 1, q), {}),
                lambda label: rule(n, label).items(),
            )
        return self._delta_cache[key]

    def complex_in_p(self, q: int) -> ChainComplexWindow:
        """Fixed internal degree q: complex over p = -n with differential
        delta.  Complete below exactly when the column past the window is
        known to vanish at q."""
        degrees = {}
        for n in range(self.n_max + 1):
            labs = self.labels(n, q)
            if labs:
                degrees[-n] = labs
        space = GradedSpace(degrees)
        lo, hi = -self.n_max, 0
        diff = {}
        # differential[p] maps C_p -> C_{p-1}: column -p -> column -p+1
        for p in range(lo + 1, hi + 1):
            diff[p] = self.delta_mat(-p, q)
        return ChainComplexWindow(
            space,
            diff,
            (lo, hi),
            complete_below=self.vanishes(self.n_max + 1, q),
            complete_above=True,
        )


@dataclass
class HochschildClass:
    arity: int
    q: int
    vector: list  # coordinates over the kept labels of (arity, q)
    element: OpElement
    normalized: bool = True

    @property
    def p(self) -> int:
        return -self.arity


class HochschildHomology:
    def __init__(self, H: HochschildComplex, homs: dict, dims: dict, classes: list):
        self.complex = H
        self.homs = homs  # q -> HomologyResult over p
        self.dims = dims  # (p, q) -> dim (reliable entries only)
        self.classes = classes

    def total_dims(self, t_max: int | None = None) -> dict:
        return totals_by_degree(self.dims, t_max)

    def classes_at(self, p: int, q: int) -> list:
        return [c for c in self.classes if c.p == p and c.q == q]


def hochschild_homology(
    M: MultiplicativeStructure,
    n_max: int,
    q_max: int,
    normalized: bool = True,
) -> HochschildHomology:
    """Bigraded Hochschild homology of a zero-differential host."""
    if M.operad.has_differential():
        raise ValueError("Hochschild homology requires a zero-differential host")
    X = mcclure_smith(M, n_max)
    H = HochschildComplex(X, q_max, normalized=normalized)
    qs = sorted({q for (_, q) in H.positions()})
    homs: dict = {}
    dims: dict = {}
    classes: list = []
    for q in qs:
        C = H.complex_in_p(q)
        hom = C.homology()
        homs[q] = hom
        for p, h in hom.per_degree.items():
            if not h.reliable:
                continue
            if h.dim:
                dims[(p, q)] = h.dim
            n = -p
            for rep in h.representatives:
                el = vector_to_chain(n, H.labels(n, q), rep)
                classes.append(HochschildClass(n, q, rep, el, H.normalized))
    return HochschildHomology(H, homs, dims, classes)


# -- total complex and spectral sequence -------------------------------------


def total_complex(H: HochschildComplex) -> ChainComplexWindow:
    """Total complex over t = q - n with D = d + (-1)^q delta."""
    return H.spectral_sequence().total_complex()


@dataclass
class PageEntry:
    p: int
    q: int
    dim: int
    representatives: list = field(default_factory=list)  # sparse Tot_t vectors
    reliable: bool = True


@dataclass
class BigradedPage:
    r: int
    entries: dict  # (p, q) -> PageEntry
    differentials: dict = field(default_factory=dict)
    # (p, q) -> RationalMatrix: E_r(p,q) -> E_r(p-r, q+r-1) in class coords

    def dim(self, p: int, q: int) -> int:
        e = self.entries.get((p, q))
        return e.dim if e else 0

    def dims(self) -> dict:
        return {pq: e.dim for pq, e in sorted(self.entries.items()) if e.dim}


class SpectralSequence:
    """Spectral sequence of the column filtration of a double complex.

    Pages are computed exactly from the filtered total complex:
    Z_r at filtration p = {x in F_p : D x in F_{p-r}}, and
    E_r = Z_r / (Z_{r-1} at p-1  +  D Z_{r-1} at p+r-1), with d_r induced
    by D.  F_p is spanned by columns n >= -p, and D = d + (-1)^q delta.
    """

    def __init__(self, H: HochschildComplex):
        self.H = H
        self._tot: ChainComplexWindow | None = None
        self._pages_done: list = []  # pages 1..r of the longest computation

    def tot_dim(self, t: int) -> int:
        return self.total_complex().dim(t)

    def D(self, t: int) -> RationalMatrix:
        """Total differential Tot_t -> Tot_{t-1}, D = d + (-1)^q delta; the
        zero map out of an empty Tot_t."""
        tot = self.total_complex()
        if t in tot.differential:
            return tot.d(t)
        return RationalMatrix.zero(tot.dim(t - 1), 0)

    def total_complex(self) -> ChainComplexWindow:
        """Tot as a chain complex, built and checked once; labels are
        (n, q, label), ordered by column.  The top total degree is flagged
        unreliable when components above the chain-degree window might be
        nonzero."""
        if self._tot is None:
            H = self.H
            basis: dict = {}  # t -> (n, q, label) in column order
            for (n, q), labels in sorted(H._labels.items()):
                basis.setdefault(q - n, []).extend((n, q, l) for l in labels)

            # the labels of one position are adjacent in its Tot_t
            @lru_cache(maxsize=1)
            def columns(n: int, q: int) -> tuple:
                return H.d_mat(n, q).columns(), H.delta_mat(n, q).columns()

            def image(t, trip):
                n, q, l = trip
                d_cols, delta_cols = columns(n, q)
                li = H._index[(n, q)][l]
                for r, v in d_cols[li].items():
                    yield (n, q - 1, H.labels(n, q - 1)[r]), v
                sign = -1 if q % 2 else 1
                for r, v in delta_cols[li].items():
                    yield (n + 1, q, H.labels(n + 1, q)[r]), sign * v

            # completeness above: Tot_{hi+1} components are (n, hi+1+n)
            hi = max(basis, default=0)
            self._tot = complex_from_rule(
                basis,
                image,
                complete_above=all(H.vanishes(n, hi + 1 + n) for n in range(H.n_max + 2)),
            )
        return self._tot

    def _before(self, t: int, n: int) -> int:
        """Number of Tot_t basis elements in columns below n; Tot_t is
        ordered by column, so F_p is the suffix from ``_before(t, -p)``."""
        return sum(self.H.dim(m, t + m) for m in range(n))

    def entry_reliable(self, p: int, q: int, r: int) -> bool:
        """Conservative check that the truncation cannot change E_r(p,q).

        Requires: every potentially nonzero position feeding the
        computation lies in the stored window — Tot_{t+1} components down
        the filtration, the d_{r'} source and target columns for r' < r.
        """
        return self._window_reliable(p, q) and all(
            self._dr_reliable(p, q, rp) for rp in range(1, r)
        )

    def _window_reliable(self, p: int, q: int) -> bool:
        """The Tot_t and Tot_{t+1} components past q_max vanish, t = p + q."""
        H = self.H
        return all(
            qq <= H.q_max or H.vanishes(n, qq)
            for n in range(H.n_max + 2)
            for qq in (p + q + 1 + n, p + q + n)
        )

    def _dr_reliable(self, p: int, q: int, rp: int) -> bool:
        """The incoming d_rp source at (p + rp, q - rp + 1) and the outgoing
        target vanish where they leave the stored columns."""
        H = self.H
        n_src, n_tgt = -(p + rp), -p + rp
        return (n_src <= H.n_max or H.vanishes(n_src, q - rp + 1)) and (
            n_tgt <= H.n_max or H.vanishes(n_tgt, q + rp - 1)
        )

    def pages(self, r_max: int) -> list:
        """Pages 1..r_max; the longest list computed serves every shorter
        request."""
        if len(self._pages_done) < r_max:
            self._pages_done = self._pages(r_max)
        return self._pages_done[:r_max]

    def _pages(self, r_max: int) -> list:
        """Z_r(p, t) depends on p only through the first column -p of F_p
        and on r only through the row bound r - p of its constraint, both
        clamped to 0..n_max+1; each Z and each quotient is eliminated once
        per call, on sparse ``{index: value}`` vectors."""
        cap = self.H.n_max + 1
        columns: dict = {}  # t -> sparse columns of D(t), ints where integral
        Zs: dict = {}  # (t, first column, row bound) -> sparse basis of Z
        quotients: dict = {}  # triple of Z keys -> Subquotient

        def D_columns(t: int) -> list:
            if t not in columns:
                columns[t] = [
                    {i: v.numerator if v.denominator == 1 else v for i, v in col.items()}
                    for col in self.D(t).columns()
                ]
            return columns[t]

        def apply_D(t: int, x: dict) -> dict:
            cols, y = D_columns(t), {}
            for j, c in x.items():
                for i, v in cols[j].items():
                    y[i] = y.get(i, 0) + c * v
            return {i: v for i, v in y.items() if v}

        def Z(r: int, p: int, t: int) -> tuple:
            """Key of Z_r = {x in F_p (+) Tot_t : D x in F_{p-r}}: the
            kernel of D from F_p to the columns below r - p."""
            key = (t, min(max(-p, 0), cap), min(max(r - p, 0), cap))
            if key not in Zs:
                lo, rows = self._before(t, key[1]), self._before(t - 1, key[2])
                E = Subquotient(
                    rows, [{i: v for i, v in c.items() if i < rows} for c in D_columns(t)[lo:]]
                )
                Zs[key] = [{lo + i: c for i, c in k.items()} for k in E.kernel()]
            return key

        out = []
        for r in range(1, r_max + 1):
            page = BigradedPage(r, {})
            at: dict = {}  # (p, q) -> quotient key
            for (n, q) in sorted(self.H._labels):
                p, t = -n, q - n
                key = (Z(r, p, t), Z(r - 1, p - 1, t), Z(r - 1, p + r - 1, t + 1))
                if key not in quotients:
                    up = [apply_D(t + 1, u) for u in Zs[key[2]]]
                    quotients[key] = Subquotient(self.tot_dim(t), Zs[key[0]], Zs[key[1]] + up)
                at[(p, q)], quo = key, quotients[key]
                # entry_reliable(p, q, r): the last page's flag and one more d_r
                ok = self._window_reliable(p, q) if r == 1 else (
                    out[-1].entries[(p, q)].reliable and self._dr_reliable(p, q, r - 1)
                )
                page.entries[(p, q)] = PageEntry(p, q, quo.dim, quo.representatives, ok)
            # differentials d_r: (p, q) -> (p - r, q + r - 1)
            for (p, q), e in page.entries.items():
                if e.dim:
                    images = [apply_D(p + q, x) for x in e.representatives]
                    d_r = _entry_coords(quotients.get(at.get((p - r, q + r - 1))), images)
                    if d_r is not None:
                        page.differentials[(p, q)] = d_r
            out.append(page)
            # the next page reuses only this page's work: its Z_r become the
            # next denominators, and past n_max + 1 every key repeats
            quotients = {key: quotients[key] for key in at.values()}
            Zs = {z: Zs[z] for key in quotients for z in key}
        # consistency: each page is the homology of the previous one
        for a, b in zip(out, out[1:]):
            ranks = {pq: rank(m) for pq, m in a.differentials.items()}
            for (p, q), e in b.entries.items():
                rk_in = ranks.get((p + a.r, q - a.r + 1), 0)
                if e.dim != a.dim(p, q) - ranks.get((p, q), 0) - rk_in:
                    raise AssertionError(
                        f"page recursion mismatch at r={b.r}, (p,q)=({p},{q})"
                    )
        return out


def _entry_coords(entry: Subquotient | None, images: list) -> RationalMatrix | None:
    """d_r in class coordinates: column j holds the coordinates of the
    D-image ``images[j]`` on the target entry; None when that entry has no
    classes.  With no stored position there (None), every image vanishes."""
    try:
        if entry is None and any(images):
            raise NoSolution
        cols = [entry.sparse_coords(y) for y in images] if entry is not None else []
    except NoSolution:
        raise AssertionError("d_r image missed the target entry") from None
    if entry is None or not entry.dim:
        return None
    entries = {(k, j): c for j, col in enumerate(cols) for k, c in col.items()}
    return RationalMatrix(entry.dim, len(cols), entries)


def ss_pages(H: HochschildComplex, r_max: int) -> list:
    """Bousfield-Kan style pages of the double complex's column filtration."""
    return H.spectral_sequence().pages(r_max)


def einfty_vs_total(H: HochschildComplex, r_max: int | None = None):
    """Oracle: summed stable-page dims against total-complex homology.

    Every d_r with r > n_max leaves columns 0..n_max, so page n_max + 1 is
    E_infinity of the stored double complex; the page compared is
    max(r_max, n_max + 1), n_max + 2 by default.  Returns a list of
    (t, einfty_sum, total_dim) over reliable degrees.
    """
    ss = H.spectral_sequence()
    last = ss.pages(H.n_max + 2 if r_max is None else max(r_max, H.n_max + 1))[-1]
    tot = ss.total_complex()
    Ht = tot.homology()
    out = []
    for t in tot.space.degrees():
        if not Ht.per_degree[t].reliable:
            continue
        ent = [e for (p, q), e in last.entries.items() if p + q == t]
        if any(not e.reliable for e in ent):
            continue
        out.append((t, sum(e.dim for e in ent), Ht.per_degree[t].dim))
    return out


# -- explicit zig-zag (the d_r formula used by the obstruction pipeline) -----


def zigzag_dr(H: HochschildComplex, n: int, q: int, z, r: int):
    """d_r on a vertical cycle z in column n, degree q, by explicit lifts.

    Repeats (r - 1) times: apply delta, then solve the vertical equation
    d w = delta(previous) one degree up; the final delta lands in column
    n + r, degree q + r - 1.  Returns (result_vector, lifts).  Raises
    LiftFailure when a solve fails or the lift leaves the window.
    """
    z = vec(z)
    if len(z) != H.dim(n, q):
        raise ValueError("vector length mismatch")
    if H.dim(n, q) and not is_zero_vec(H.d_mat(n, q).matvec(z)):
        raise ValueError("z is not a vertical cycle")
    cur = z
    cur_n, cur_q = n, q
    lifts = []
    for step in range(r - 1):
        u = H.delta_mat(cur_n, cur_q).matvec(cur)
        cur_n += 1
        if cur_q + 1 > H.q_max:
            raise LiftFailure("lift degree leaves the chain-degree window")
        if cur_n > H.n_max:
            raise LiftFailure("lift column leaves the arity window")
        try:
            w = solve_particular(H.d_mat(cur_n, cur_q + 1), u)
        except NoSolution:
            raise LiftFailure(
                f"delta-image not a vertical boundary at column {cur_n}"
            ) from None
        cur_q += 1
        cur = w
        lifts.append((cur_n, cur_q, w))
    if cur_n + 1 > H.n_max:
        raise LiftFailure("final delta leaves the arity window")
    result = H.delta_mat(cur_n, cur_q).matvec(cur)
    return result, lifts
