"""Cosimplicial machinery for multiplicative operads.

* :func:`mcclure_smith` builds the semicosimplicial chain complex of an
  operad with a chosen multiplication: cofaces compose with the
  multiplication on either side or into slot i, codegeneracies (when an
  arity-0 point exists) compose with the point.
* :class:`HochschildComplex` is the resulting double complex — columns
  indexed by arity n (filtration degree p = -n), internal chain degree q,
  vertical differential from the host, horizontal differential the
  alternating coface sum delta.  Each column is read from the host's
  arity-n basis; with codegeneracies it is restricted to the normalized
  (all-codegeneracies-vanish) labels, read from the host's
  ``normalized_basis`` and confirmed label by label.
* :func:`hochschild_homology` computes the bigraded homology for
  zero-differential hosts, with representatives.
* :func:`ss_pages` computes the spectral sequence of the column
  filtration: E^1 is columnwise homology, d_r has bidegree (-r, r-1),
  and each page is derived exactly from the filtered total complex.
* :func:`total_complex` is the direct abutment oracle, a thin wrapper
  over the spectral sequence's total differential ``SpectralSequence.D``;
  :func:`zigzag_dr` is the explicit lifting computation behind d_r.

Sign convention: the total differential is D = d + (-1)^q delta; the
cofaces commute with d (they are chain maps), which makes D^2 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .complexes import ChainComplexWindow, GradedSpace, totals_by_degree
from .instances import MultiplicativeStructure
from .linalg import (
    NoSolution,
    RationalMatrix,
    Subquotient,
    assemble,
    is_zero_vec,
    kernel_basis,
    rank,
    solve_particular,
    vec,
    zero_vec,
)
from .operads import Coeffs, OpElement, vector_to_chain


class LiftFailure(Exception):
    """A spectral-sequence lift left the computed window."""


class SemicosimplicialChainComplex:
    """Columns X^n = host(n), 0 <= n <= n_max, with cofaces
    d^i: X^n -> X^{n+1}, 0 <= i <= n+1.

    ``coface(n, i, label) -> Coeffs`` gives the coface on a basis label of
    column n; ``codegeneracy(n, i, label) -> Coeffs`` (optional) gives
    s^i: X^{n+1} -> X^n for 0 <= i <= n.  The host owns each column's
    basis and differential.
    """

    def __init__(self, host, n_max: int, coface, codegeneracy=None):
        self.host = host
        self.n_max = n_max
        self.coface = coface
        self.codegeneracy = codegeneracy

    def _basis(self, n: int, q_max: int | None):
        """(q, label) over the host's arity-n basis, degrees up to q_max."""
        for q, labels in sorted(self.host.basis_by_degree(n).items()):
            if q_max is None or q <= q_max:
                for label in labels:
                    yield q, label

    def delta_on_label(self, n: int, label) -> Coeffs:
        """Alternating coface sum delta = sum_i (-1)^i d^i on one label."""
        out: Coeffs = {}
        for i in range(n + 2):
            for l2, c in self.coface(n, i, label).items():
                if i % 2:
                    c = -c
                if l2 in out:
                    out[l2] += c
                else:
                    out[l2] = c
        return {l: c for l, c in out.items() if c != 0}

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
    to the normalized ones.  ``n_max`` may not exceed the host's arity cap.
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

    codegeneracy = None
    if M.point is not None:
        point = M.point.coeffs

        def codegeneracy(n, i, label) -> Coeffs:
            return op.compose_terms(n + 1, ((label, 1),), i + 1, 0, point)

    return SemicosimplicialChainComplex(op, n_max, coface, codegeneracy=codegeneracy)


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

    Positions (n, q) with vertical differential d (q -> q-1, the host's
    ``diff_basis`` on the kept labels) and horizontal differential delta
    (n -> n+1).  When the underlying object has codegeneracies and
    ``normalized`` is set, each column is restricted to the normalized
    labels of the host's arity-n basis: the host's
    ``normalized_basis`` proposes them, in basis order, and the
    codegeneracies confirm each one, so an over-inclusive host still gives
    exact columns.  delta preserves that span (asserted during matrix
    construction) even though individual cofaces do not.
    """

    def __init__(self, X: SemicosimplicialChainComplex, q_max: int, normalized=True):
        self.X = X
        self.q_max = q_max
        self.n_max = X.n_max
        self.normalized = normalized and X.codegeneracy is not None
        self._labels: dict = {}
        self._index: dict = {}
        for n in range(self.n_max + 1):
            for q, raw in sorted(X.host.basis_by_degree(n).items()):
                if q > q_max:
                    continue
                if self.normalized:
                    labels = tuple(
                        l for l in X.host.normalized_basis(n, q)
                        if X.is_normal_label(n, l)
                    )
                else:
                    labels = tuple(raw)
                if labels:
                    self._labels[(n, q)] = labels
                    self._index[(n, q)] = {l: k for k, l in enumerate(labels)}
        self._delta_cache: dict = {}
        self._d_cache: dict = {}
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
        that means no kept labels; past q_max, inside the host's populated
        degree range of arity n (an empty arity counts as degree 0), that
        the host has no labels; past that, the host's ``column_vanishes``."""
        if (n, q) in self._labels:
            return False
        if n < 0 or q < 0 or (n <= self.n_max and q <= self.q_max):
            return True
        host = self.X.host
        if n <= self.n_max:
            degrees = [d for d, labels in host.basis_by_degree(n).items() if labels] or [0]
            if min(degrees) <= q <= max(degrees):
                return not host.arity_degree_basis(n, q)
        return host.column_vanishes(n, q)

    def d_mat(self, n: int, q: int) -> RationalMatrix:
        """Vertical differential (n, q) -> (n, q-1) on kept labels.  Raises
        ValueError when it does not compose to zero with d one degree
        below."""
        key = (n, q)
        if key not in self._d_cache:
            d = assemble(
                self.labels(n, q),
                self._index.get((n, q - 1), {}),
                lambda label: self.X.host.diff_basis(n, label).items(),
            )
            if (n, q - 1) in self._labels and not self.d_mat(n, q - 1).matmul(d).is_zero():
                raise ValueError(f"d ∘ d != 0 in column {n} from degree {q}")
            self._d_cache[key] = d
        return self._d_cache[key]

    def delta_mat(self, n: int, q: int) -> RationalMatrix:
        """Horizontal differential (n, q) -> (n+1, q) on kept labels."""
        key = (n, q)
        if key not in self._delta_cache:
            src = self.labels(n, q)
            if n >= self.n_max:
                # out of the stored window: zero map (truncated object)
                self._delta_cache[key] = RationalMatrix.zero(0, len(src))
                return self._delta_cache[key]
            self._delta_cache[key] = assemble(
                src,
                self._index.get((n + 1, q), {}),
                lambda label: self.X.delta_on_label(n, label).items(),
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
    representatives: list = field(default_factory=list)  # Tot_t vectors
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
        self._tot_basis: dict = {}  # t -> ordered list of (n, q, label)
        for (n, q), labels in sorted(H._labels.items()):
            for l in labels:
                self._tot_basis.setdefault(q - n, []).append((n, q, l))
        self._tot_index = {
            t: {trip: i for i, trip in enumerate(b)}
            for t, b in self._tot_basis.items()
        }
        self._D_cache: dict = {}
        self._pages_cache: dict = {}  # r_max -> pages

    def tot_dim(self, t: int) -> int:
        return len(self._tot_basis.get(t, ()))

    def D(self, t: int) -> RationalMatrix:
        """Total differential Tot_t -> Tot_{t-1}, D = d + (-1)^q delta."""
        if t not in self._D_cache:
            H = self.H
            columns: dict = {}  # (n, q) -> (d columns, delta columns)

            def image(trip):
                n, q, l = trip
                if (n, q) not in columns:
                    columns[(n, q)] = (
                        H.d_mat(n, q).columns(), H.delta_mat(n, q).columns()
                    )
                d_cols, delta_cols = columns[(n, q)]
                li = H._index[(n, q)][l]
                for r, v in d_cols[li].items():
                    yield (n, q - 1, H.labels(n, q - 1)[r]), v
                sign = -1 if q % 2 else 1
                for r, v in delta_cols[li].items():
                    yield (n + 1, q, H.labels(n + 1, q)[r]), sign * v

            self._D_cache[t] = assemble(
                self._tot_basis.get(t, []), self._tot_index.get(t - 1, {}), image
            )
        return self._D_cache[t]

    def total_complex(self) -> ChainComplexWindow:
        """Tot as a chain complex; labels are (n, q, label).  The top
        total degree is flagged unreliable when components above the
        chain-degree window might be nonzero."""
        H = self.H
        space = GradedSpace(self._tot_basis)
        degrees = space.degrees()
        if not degrees:
            return ChainComplexWindow(space, {}, (0, 0))
        lo, hi = degrees[0], degrees[-1]
        # completeness above: Tot_{hi+1} components are (n, hi+1+n)
        complete_above = all(
            H.vanishes(n, hi + 1 + n) for n in range(H.n_max + 2)
        )
        return ChainComplexWindow(
            space,
            {t: self.D(t) for t in range(lo + 1, hi + 1)},
            (lo, hi),
            complete_below=True,
            complete_above=complete_above,
        )

    def _filtration_indices(self, t: int, p: int) -> list:
        """Indices of Tot_t basis elements lying in F_p (columns n >= -p)."""
        return [
            i for i, (n, q, l) in enumerate(self._tot_basis.get(t, []))
            if -n <= p
        ]

    def _Z(self, r: int, p: int, t: int) -> list:
        """Basis of Z_r = {x in F_p (+) Tot_t : D x in F_{p-r}}."""
        basis_t = self._tot_basis.get(t, [])
        dom = self._filtration_indices(t, p)
        if not dom:
            return []
        Dt = self.D(t)
        tgt = self._tot_basis.get(t - 1, [])
        # constraint rows: output components with p - r < p'' (i.e. n'' < -(p-r))
        rows = [i for i, (n, q, l) in enumerate(tgt) if -n > p - r]
        bad_rows = {i: ri for ri, i in enumerate(rows)}
        columns = Dt.columns()
        entries = {}
        for ci, colidx in enumerate(dom):
            for row, v in columns[colidx].items():
                if row in bad_rows:
                    entries[(bad_rows[row], ci)] = v
        A = RationalMatrix(len(bad_rows), len(dom), entries)
        ker = kernel_basis(A)
        out = []
        N = len(basis_t)
        for k in ker:
            v = zero_vec(N)
            for ci, colidx in enumerate(dom):
                v[colidx] = k[ci]
            out.append(v)
        return out

    def entry_reliable(self, p: int, q: int, r: int) -> bool:
        """Conservative check that the truncation cannot change E_r(p,q).

        Requires: every potentially nonzero position feeding the
        computation lies in the stored window — Tot_{t+1} components down
        the filtration, the d_{r'} source and target columns for r' < r.
        """
        H = self.H
        t = p + q
        for n in range(H.n_max + 2):
            qq = t + 1 + n
            if qq > H.q_max and not H.vanishes(n, qq):
                return False
            qq = t + n
            if qq > H.q_max and not H.vanishes(n, qq):
                return False
        for rp in range(1, r):
            # incoming d_rp source at (p + rp, q - rp + 1), outgoing target
            n_src = -(p + rp)
            if n_src > H.n_max and not H.vanishes(n_src, q - rp + 1):
                return False
            n_tgt = -p + rp
            if n_tgt > H.n_max and not H.vanishes(n_tgt, q + rp - 1):
                return False
        return True

    def pages(self, r_max: int) -> list:
        """Pages 1..r_max, computed once per r_max."""
        if r_max not in self._pages_cache:
            self._pages_cache[r_max] = self._pages(r_max)
        return self._pages_cache[r_max]

    def _pages(self, r_max: int) -> list:
        out = []
        ts = sorted(self._tot_basis)
        positions = sorted(self.H._labels)
        for r in range(1, r_max + 1):
            entries: dict = {}
            quotients: dict = {}
            for (n, q) in positions:
                p, t = -n, q - n
                Z = self._Z(r, p, t)
                denom = self._Z(r - 1, p - 1, t)
                up = self._Z(r - 1, p + r - 1, t + 1)
                denom = denom + [self.D(t + 1).matvec(u) for u in up]
                quo = Subquotient(self.tot_dim(t), Z, denom)
                entries[(p, q)] = PageEntry(
                    p, q, quo.dim, quo.representatives, self.entry_reliable(p, q, r)
                )
                quotients[(p, q)] = quo
            page = BigradedPage(r, {k: v for k, v in entries.items()})
            # differentials d_r: (p, q) -> (p - r, q + r - 1)
            for (p, q), e in entries.items():
                if e.dim == 0:
                    continue
                tgt = quotients.get((p - r, q + r - 1))
                cols = [
                    _entry_coords(tgt, self.D(p + q).matvec(x))
                    for x in e.representatives
                ]
                if tgt is not None and tgt.dim:
                    page.differentials[(p, q)] = RationalMatrix.from_columns(
                        cols, tgt.dim
                    )
            out.append(page)
        # consistency: each page is the homology of the previous one
        for a, b in zip(out, out[1:]):
            for (p, q), e in b.entries.items():
                ea = a.entries.get((p, q))
                dim_a = ea.dim if ea else 0
                dout = a.differentials.get((p, q))
                rk_out = _rank_or_zero(dout)
                din = a.differentials.get((p + a.r, q - a.r + 1))
                rk_in = _rank_or_zero(din)
                if e.dim != dim_a - rk_out - rk_in:
                    raise AssertionError(
                        f"page recursion mismatch at r={b.r}, (p,q)=({p},{q})"
                    )
        return out


def _rank_or_zero(M) -> int:
    return rank(M) if M is not None else 0


def _entry_coords(entry: Subquotient | None, y) -> list:
    """Class coordinates of the D-image y on its target entry; with no
    stored position there (None), y must vanish."""
    try:
        return (entry or Subquotient(len(y), [])).coords(y)
    except NoSolution:
        raise AssertionError("d_r image missed the target entry") from None


def ss_pages(H: HochschildComplex, r_max: int) -> list:
    """Bousfield-Kan style pages of the double complex's column filtration."""
    return H.spectral_sequence().pages(r_max)


def einfty_vs_total(H: HochschildComplex, r_max: int | None = None):
    """Oracle: summed stable-page dims against total-complex homology.

    Returns a list of (t, einfty_sum, total_dim) over reliable degrees.
    """
    if r_max is None:
        r_max = H.n_max + 2
    ss = H.spectral_sequence()
    pages = ss.pages(r_max)
    last = pages[-1]
    tot = ss.total_complex()
    Ht = tot.homology()
    out = []
    for t in tot.space.degrees():
        if not Ht.per_degree[t].reliable:
            continue
        ent = [e for (p, q), e in last.entries.items() if p + q == t]
        if any(not e.reliable for e in ent):
            continue
        # stable only if no differentials can still move these entries
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
