"""Cosimplicial machinery for multiplicative operads.

* :func:`mcclure_smith` builds the semicosimplicial chain complex of an
  operad with a chosen multiplication: cofaces compose with the
  multiplication on either side or into slot i, codegeneracies (when an
  arity-0 point exists) compose with the point.
* :class:`HochschildComplex` is the resulting double complex — columns
  indexed by arity n (filtration degree p = -n), internal chain degree q,
  vertical differential from the host, horizontal differential the
  alternating coface sum delta.  Column n is read from one map of the
  host, degree -> labels: ``basis_by_degree(n)``, or with codegeneracies
  ``normalized_basis(n, q_max)``, the labels all codegeneracies kill; the
  sphere and framed hosts build it from their covering rule, up to q_max,
  without the raw basis, and the codegeneracies confirm each label unless
  the host declares the map exact (``normalized_exact``: the framed host).
  Past the window the host alone says which cells are empty, by ``column_vanishes``.
* :func:`hochschild_homology` computes the bigraded homology for
  zero-differential hosts, with representatives; :func:`hochschild_dims`
  reads its dimensions off the ranks alone.
* :func:`ss_pages` computes the spectral sequence of the column
  filtration: E^1 is columnwise homology, d_r has bidegree (-r, r-1),
  and every page is read off one filtered reduction (the persistence
  pairing) of each total differential.
* :func:`total_complex` is the direct abutment oracle, the spectral
  sequence's one total complex, whose differentials ``SpectralSequence.D``
  reads; :func:`zigzag_dr` is the explicit lifting computation behind d_r.

Sign convention: the total differential is D = d + (-1)^q delta; the
cofaces commute with d (they are chain maps), which makes D^2 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import inf
from typing import NamedTuple

from .complexes import (
    ChainComplexWindow, DegreeHomology, WindowBoundary, bigraded_dims,
    complex_from_rule, homology_dims, totals_by_degree,
)
from .instances import MultiplicativeStructure, arity_complex
from .linalg import (
    NoSolution,
    RationalMatrix,
    Subquotient,
    assemble,
    dense,
    is_zero_vec,
    rank,
    solve_particular,
    vec,
)
from .operads import Coeffs, OpElement, combine, extend


class LiftFailure(Exception):
    """A spectral-sequence lift left the computed window."""


class SemicosimplicialChainComplex:
    """Columns X^n = host(n), 0 <= n <= n_max, with cofaces
    d^i: X^n -> X^{n+1}, 0 <= i <= n+1.

    ``coface(n, i, label)`` gives the coface on a basis label of column n
    as raw terms; ``codegeneracy(n, i, label) -> Coeffs`` (optional) gives
    s^i: X^{n+1} -> X^n for 0 <= i <= n.  ``normal_delta(n, label)``
    (optional) gives the ``(label, coefficient)`` terms of delta on a
    normalized label restricted to the normalized labels, unsummed:
    ``assemble`` sums them.  The host owns each column's basis and
    differential.
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
        all n + 2 cofaces' raw terms in one ``combine``."""
        return combine(
            (l2, -c if i % 2 else c) for i in range(n + 2) for l2, c in self.coface(n, i, label)
        )

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
        face = _summed(self.coface)
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
        face, degen = _summed(self.coface), self.codegeneracy
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
        failures, coface = [], _summed(self.coface)
        for n in range(self.n_max):
            d_src = partial(self.host.diff_basis, n)
            d_tgt = partial(self.host.diff_basis, n + 1)
            for q, label in self._basis(n, None):
                for i in range(n + 2):
                    face = partial(coface, n, i)
                    if _differ(_then(face, d_tgt, label), _then(d_src, face, label)):
                        failures.append(("chain-map", n, i, q, label))
        return failures


def _summed(f):  # the checkers are oracles: they sum a coface before composing it
    return lambda *args: combine(f(*args))


def _then(f, g, label) -> Coeffs:
    """(g after f)(label) for label maps returning Coeffs."""
    return extend(g, f(label).items())


def _differ(a: Coeffs, b: Coeffs) -> bool:
    return any(a.get(l, 0) != b.get(l, 0) for l in a.keys() | b.keys())


def mcclure_smith(M: MultiplicativeStructure, n_max: int | None = None):
    """Semicosimplicial chain complex of a multiplicative operad.

    Cofaces on x of arity n: d^0 = mult composed below slot 2 of the
    multiplication (mult o2 x), d^i = x o_i mult for 1 <= i <= n, and
    d^{n+1} = mult o1 x, each the raw terms of ``compose_terms``.
    Codegeneracies s^i = (- o_{i+1} point) when the structure has an
    arity-0 point: the host's ``compose_basis`` dict (the point is one
    label).  The columns are the host's arities 0..n_max, normalized when
    there is a point; there the host's ``normal_delta`` gives delta if
    mult is its ``mu()``.  ``n_max`` may not exceed the arity cap.
    """
    op = M.operad
    if n_max is None:
        n_max = op.max_arity
    if not 0 <= n_max <= op.max_arity:
        raise ValueError("n_max lies outside 0..the operad's arity truncation")

    mult = M.mult.coeffs

    def coface(n, i, label) -> list:
        x = ((label, 1),)
        if i == 0:
            return op.compose_terms(2, mult, 2, n, x)
        if i == n + 1:
            return op.compose_terms(2, mult, 1, n, x)
        return op.compose_terms(n, x, i, 2, mult)

    codegeneracy = normal_delta = None
    if M.point is not None:
        ((pl, _),) = M.point.coeffs

        def codegeneracy(n, i, label) -> Coeffs:
            return op.compose_basis(n + 1, label, i + 1, 0, pl)

        if op.normal_delta is not None and M.mult == op.mu():
            normal_delta = op.normal_delta
    return SemicosimplicialChainComplex(op, n_max, coface, codegeneracy, normal_delta)


def hochschild_differential(M: MultiplicativeStructure, x: OpElement) -> OpElement:
    """delta(x) = sum_{i=0}^{n+1} (-1)^i d^i(x), an element of O(n+1): the
    linear extension of ``delta_on_label``, the coboundary of the complex."""
    delta = partial(mcclure_smith(M).delta_on_label, x.arity)
    return OpElement.make(x.arity + 1, extend(delta, x.coeffs))


# -- the double complex ------------------------------------------------------


class HochschildComplex:
    """Bigraded double complex of a semicosimplicial chain complex.

    Positions (n, q) with vertical differential d (q -> q-1, the host's
    ``diff_basis``) and horizontal differential delta (n -> n+1), the
    rows in p and Tot built from both label by label.  Column n is one map of the host, degree -> labels:
    ``basis_by_degree(n)``, or ``normalized_basis(n, q_max)`` when the
    object has codegeneracies (``normalized``).  Every label up to q_max
    passes ``is_normal_label`` unless the host declares its map exact
    (``normalized_exact``, the framed host), so an over-inclusive host
    still gives exact columns.  No map is kept past q_max: emptiness there
    is the host's ``column_vanishes``.  delta preserves that span even
    though individual cofaces do not; ``delta_terms`` is its one rule, which
    the blocks, the rows and Tot all read.
    """

    def __init__(self, X: SemicosimplicialChainComplex, q_max: int):
        self.X = X
        self.q_max = q_max
        self.n_max = X.n_max
        self.normalized = X.codegeneracy is not None
        self._labels: dict = {}
        self._index: dict = {}
        host = X.host
        for n in range(self.n_max + 1):
            column = host.normalized_basis(n, q_max) if self.normalized else host.basis_by_degree(n)
            for q in sorted(q for q in column if q <= q_max):
                labels = column[q] if host.normalized_exact else tuple(
                    l for l in column[q] if X.is_normal_label(n, l))
                if labels:
                    self._labels[(n, q)] = labels
                    self._index[(n, q)] = {l: k for k, l in enumerate(labels)}
        self._columns: dict = {}  # n -> column n's chain complex under d
        self._ss: SpectralSequence | None = None

    def spectral_sequence(self) -> "SpectralSequence":
        """The column-filtration spectral sequence, built once."""
        if self._ss is None:
            self._ss = SpectralSequence(self)
        return self._ss

    def labels(self, n: int, q: int):
        return self._labels.get((n, q), ())

    def index(self, n: int, q: int) -> dict:  # label -> position in (n, q)
        return self._index.get((n, q), {})

    def dim(self, n: int, q: int) -> int:
        return len(self.labels(n, q))

    def positions(self):
        return sorted(self._labels)

    def vanishes(self, n: int, q: int) -> bool:
        """Whether position (n, q) is certified zero: no kept labels in the
        stored range, and past it the host's ``column_vanishes``, which
        speaks for raw columns only when the host has no arity-0 labels."""
        if (n, q) in self._labels:
            return False
        if n < 0 or q < 0 or (n <= self.n_max and q <= self.q_max):
            return True
        host = self.X.host
        return (self.normalized or not host.basis_by_degree(0)) and host.column_vanishes(n, q)

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

    def delta_terms(self, n: int, label):
        """delta on a kept label of column n < n_max as ``(label, coefficient)``
        terms: the host's ``normal_delta``, unsummed, on normalized columns
        when it has one, else ``delta_on_label``, whose cancelling coface terms
        never reach ``assemble``, which refuses any label outside the column."""
        X = self.X
        if self.normalized and X.normal_delta:
            return X.normal_delta(n, label)
        return X.delta_on_label(n, label).items()

    def delta_mat(self, n: int, q: int) -> RationalMatrix:
        """Horizontal differential (n, q) -> (n+1, q) on kept labels,
        assembled from ``delta_terms`` on every call (the zig-zag asks for
        each block once); the zero map out of column n_max."""
        src = self.labels(n, q)
        if n >= self.n_max:
            return RationalMatrix.zero(0, len(src))
        return assemble(src, self.index(n + 1, q), partial(self.delta_terms, n))

    def complex_in_p(self, q: int) -> ChainComplexWindow:
        """Fixed internal degree q: the complex over p = -n, 0 <= n <= n_max,
        with differential ``delta_terms``, on the window (-n_max, 0) even where
        its end columns are empty.  Complete below exactly when the column
        past the window is known to vanish at q."""
        return complex_from_rule(
            {-n: self.labels(n, q) for n in range(self.n_max + 1)},
            lambda p, label: self.delta_terms(-p, label),
            complete_below=self.vanishes(self.n_max + 1, q),
        )


@dataclass
class HochschildClass:
    arity: int
    q: int
    vector: list  # coordinates over the kept labels of (arity, q)
    element: OpElement

    @classmethod
    def of(cls, H: HochschildComplex, n: int, q: int, z: dict, v=None) -> "HochschildClass":
        """The class of (n, q) with sparse chain z and dense vector v (made if None)."""
        labels, v = H.labels(n, q), dense(z, H.dim(n, q)) if v is None else v
        return cls(n, q, v, OpElement.make(n, {labels[k]: v[k] for k in z}))

    @property
    def p(self) -> int:
        return -self.arity


class HochschildHomology:
    def __init__(self, H: HochschildComplex, homs: dict, dims: dict, classes: list):
        self.complex = H
        self.homs = homs  # q -> HomologyResult over p
        self.dims = dims  # (p, q) -> dim (reliable entries only)
        self.classes = classes

    def at(self, p: int, q: int) -> DegreeHomology:
        """HH at (p, q) where the window certifies it: WindowBoundary outside
        0 <= -p <= n_max, q <= q_max, or at an unreliable entry; the
        certified zero where no column holds degree q."""
        H = self.complex
        if not (0 <= -p <= H.n_max and q <= H.q_max):
            raise WindowBoundary(f"(p, q) = ({p}, {q}) lies outside the computed window")
        return self.homs[q].at(p) if q in self.homs else DegreeHomology.zero()

    def total_dims(self, t_max: int | None = None) -> dict:
        return totals_by_degree(self.dims, t_max)

    def classes_at(self, p: int, q: int) -> list:
        return [c for c in self.classes if c.p == p and c.q == q]


def _rows_in_p(M: MultiplicativeStructure, n_max: int, q_max: int):
    """The double complex of a zero-differential host, normalized exactly
    when M has a point, and its complex over p at each internal degree
    holding chains, each built when the caller reaches it."""
    if M.operad.has_differential():
        raise ValueError("Hochschild homology requires a zero-differential host")
    H = HochschildComplex(mcclure_smith(M, n_max), q_max)
    return H, ((q, H.complex_in_p(q)) for q in sorted({q for (_, q) in H.positions()}))


def hochschild_dims(M: MultiplicativeStructure, n_max: int, q_max: int) -> dict:
    """(p, q) -> dim HH at every reliable cell of ``hochschild_homology``,
    zeros included, read off the ranks alone by ``homology_dims``."""
    _, rows = _rows_in_p(M, n_max, q_max)
    return {(p, q): k for q, C in rows for p, k in homology_dims(C).items()}


def hochschild_homology(M: MultiplicativeStructure, n_max: int, q_max: int) -> HochschildHomology:
    """Bigraded Hochschild homology of a zero-differential host, on the
    normalized columns exactly when M has a point."""
    H, rows = _rows_in_p(M, n_max, q_max)
    homs: dict = {}
    classes: list = []
    for q, C in rows:
        hom = C.homology()
        homs[q] = hom
        classes += [HochschildClass.of(H, -p, q, z, v) for p, h in hom.per_degree.items()
                    if h.reliable for z, v in zip(h.quotient.representatives, h.representatives)]
    return HochschildHomology(H, homs, bigraded_dims(homs), classes)


# -- total complex and spectral sequence -------------------------------------


def total_complex(H: HochschildComplex) -> ChainComplexWindow:
    """Total complex over t = q - n with D = d + (-1)^q delta."""
    return H.spectral_sequence().total_complex()


class PageEntry(NamedTuple):
    p: int
    q: int
    dim: int
    representatives: list  # sparse Tot_t vectors
    reliable: bool = True


class BigradedPage:
    def __init__(self, r: int, entries: dict, differentials: dict | None = None):
        self.r = r
        self.entries = entries  # (p, q) -> PageEntry
        # (p, q) -> RationalMatrix: E_r(p,q) -> E_r(p-r, q+r-1) in class coords
        self.differentials = {} if differentials is None else differentials

    def __eq__(self, other) -> bool:
        if not isinstance(other, BigradedPage):
            return NotImplemented
        return (self.r, self.entries, self.differentials) == (
            other.r, other.entries, other.differentials)

    def dim(self, p: int, q: int) -> int:
        e = self.entries.get((p, q))
        return e.dim if e else 0

    def dims(self) -> dict:
        return {pq: e.dim for pq, e in sorted(self.entries.items()) if e.dim}


class SpectralSequence:
    """Spectral sequence of the column filtration of a double complex.

    F_p is spanned by columns n >= -p, and D = d + (-1)^q delta keeps it.
    Every page is read off one filtered reduction of each D(t), the
    persistence pairing: a source in column n whose reduced image has its
    pivot in column n + r pairs with that image, a pair of length r.  In
    the basis of Tot_t made of the sources, the images and the unpaired
    cycles, each led by one column, D sends a source to its image and
    everything else to zero.  So E_r at (p, q) is spanned by the unpaired
    cycles and both ends of the pairs of length >= r led by column -p, and
    d_r sends the source of each pair of length r to its image.
    """

    def __init__(self, H: HochschildComplex):
        self.H = H
        self._tot: ChainComplexWindow | None = None
        self._cells: dict | None = None
        self._pages: dict = {}  # r_max -> the checked list of pages 1..r_max

    def D(self, t: int) -> RationalMatrix:
        """Total differential Tot_t -> Tot_{t-1}, D = d + (-1)^q delta; the
        zero map out of an empty Tot_t."""
        tot = self.total_complex()
        if t in tot.differential:
            return tot.d(t)
        return RationalMatrix.zero(tot.dim(t - 1), 0)

    def total_complex(self) -> ChainComplexWindow:
        """Tot on labels (n, q, label), ordered by column, built once from
        ``diff_basis`` and ``delta_terms``; its D o D = 0 check holds d o d on
        every stored cell.  The top total degree is flagged unreliable when
        components above the chain-degree window might be nonzero."""
        if self._tot is None:
            H, host = self.H, self.H.X.host
            basis: dict = {}  # t -> (n, q, label) in column order
            for n, q in H.positions():
                basis.setdefault(q - n, []).extend((n, q, l) for l in H.labels(n, q))

            def image(t, trip):
                n, q, l = trip
                for l2, v in host.diff_basis(n, l).items():
                    yield (n, q - 1, l2), v
                if n < H.n_max:
                    sign = -1 if q % 2 else 1
                    for l2, v in H.delta_terms(n, l):
                        yield (n + 1, q, l2), sign * v

            # completeness above: Tot_{hi+1} components are (n, hi+1+n)
            hi = max(basis, default=0)
            self._tot = complex_from_rule(
                basis,
                image,
                complete_above=all(H.vanishes(n, hi + 1 + n) for n in range(H.n_max + 2)),
            )
        return self._tot

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

    def _pairing(self) -> dict:
        """(n, q) -> the basis of Tot_t led by column n, t = q - n, as
        (index, sparse vector, pair length, image index), by index.  A
        source carries its image's pivot in Tot_{t-1}, an image None, and an
        unpaired cycle the length inf.  Built once, by one reduction per t
        of the sources of D(t), column n descending, each pivot in the
        smallest column its reduced image touches; the pivots of D(t+1) are
        skipped, since their images are cycles led there."""
        if self._cells is None:
            basis, cells, pivots = self.total_complex().space.basis, {}, {}

            def put(t: int, i: int, vector: dict, length, image=None):
                n = basis[t][i][0]
                cells.setdefault((n, t + n), []).append((i, vector, length, image))

            for t in sorted(basis, reverse=True):  # pivots[t]: those of D(t + 1)
                below, columns = basis.get(t - 1, ()), self.D(t).columns()
                order = [j for j in reversed(range(len(basis[t]))) if j not in pivots.get(t, ())]
                E = Subquotient(
                    len(below), [columns[j] for j in order], block=lambda i: below[i][0]
                )
                sources = [order[k] for k in E.pivot_columns]
                for j, (lead, row, coords) in zip(sources, E.pivot_rows()):
                    length = below[lead][0] - basis[t][j][0]
                    put(t, j, {sources[m]: c for m, c in coords.items()}, length, lead)
                    put(t - 1, lead, row, length)
                pivots[t - 1] = {lead for lead, _, _ in E.pivot_rows()}
                for f, z in zip(E.dependent, E.kernel()):
                    put(t, order[f], {order[i]: c for i, c in z.items()}, inf)
            self._cells = {pos: sorted(cell) for pos, cell in sorted(cells.items())}
        return self._cells

    def pages(self, r_max: int) -> list:
        """Pages 1..r_max, read off the one pairing; built and checked once
        per r_max."""
        if r_max not in self._pages:
            self._pages[r_max] = self._build_pages(r_max)
        return self._pages[r_max]

    def _build_pages(self, r_max: int) -> list:
        out = []
        for r in range(1, r_max + 1):
            alive = {pos: [e for e in cell if e[2] >= r] for pos, cell in self._pairing().items()}
            row = {pos: {e[0]: k for k, e in enumerate(es)} for pos, es in alive.items()}
            page = BigradedPage(r, {})
            for (n, q), es in alive.items():
                p = -n
                # entry_reliable(p, q, r): the last page's flag and one more d_r
                ok = self._window_reliable(p, q) if r == 1 else (
                    out[-1].entries[(p, q)].reliable and self._dr_reliable(p, q, r - 1)
                )
                page.entries[(p, q)] = PageEntry(p, q, len(es), [e[1] for e in es], ok)
            # d_r: (p, q) -> (p - r, q + r - 1), each source of length r to its image
            for (n, q), es in alive.items():
                tgt = row.get((n + r, q + r - 1))
                if es and tgt:
                    page.differentials[(-n, q)] = RationalMatrix(len(tgt), len(es), {
                        (tgt[image], j): 1
                        for j, (_, _, length, image) in enumerate(es)
                        if length == r and image is not None
                    })
            out.append(page)
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


def ss_pages(H: HochschildComplex, r_max: int) -> list:
    """Bousfield-Kan style pages of the double complex's column filtration."""
    return H.spectral_sequence().pages(r_max)


def einfty_vs_total(H: HochschildComplex, r_max: int | None = None):
    """Oracle: summed stable-page dims against total-complex homology.

    Every d_r with r > n_max leaves columns 0..n_max, so page n_max + 1 is
    E_infinity of the stored double complex; the page compared is
    max(r_max, n_max + 1), n_max + 2 by default.  dim H_t(Tot) is the
    shared ranks-only readout ``homology_dims``, dim Tot_t - rank D(t) -
    rank D(t + 1) off lowest-row reductions with clearing, another
    elimination than the filtered one behind the pages.  Returns a list
    of (t, einfty_sum, total_dim) over reliable populated degrees.
    """
    ss = H.spectral_sequence()
    last = ss.pages(H.n_max + 2 if r_max is None else max(r_max, H.n_max + 1))[-1]
    tot = ss.total_complex()
    total = homology_dims(tot)
    out = []
    for t in tot.space.degrees():
        ent = [e for (p, q), e in last.entries.items() if p + q == t]
        if t not in total or any(not e.reliable for e in ent):
            continue
        out.append((t, sum(e.dim for e in ent), total[t]))
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
