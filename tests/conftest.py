"""Shared helpers: a dense elimination oracle and randomized small chain
complexes with known homology.

:func:`rref` is plain dense Fraction Gauss-Jordan, written for the tests
only; it shares no code with the sparse incremental elimination in
``operadlab.linalg``.

:func:`mod_p_homology_dims` is a second oracle, for windows too large
for dense Fractions: a sparse rank count mod 2^61 - 1, by the pivot rule
of ``linalg.lowest_rows`` but over another field and in its own code.
:class:`SmallestIndexSubquotient` is a sparse elimination by another
pivot rule, each vector at its smallest index, and
:func:`smallest_index_echelons` builds a complex's boundary echelons
with it: the rank and class oracle whose pivots are not the lowest rows
that every elimination in ``operadlab.linalg`` pivots at.

A complex is assembled from elementary pieces — an identity two-term
complex contributes nothing to homology, a lone generator contributes
one dimension — and then conjugated by random invertible change-of-basis
matrices in every degree.  The expected homology is therefore known
independently of the package's own linear algebra.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from operadlab.complexes import ChainComplexWindow, GradedSpace
from operadlab.linalg import (
    NoSolution,
    RationalMatrix,
    Subquotient,
    _div,
    _exact,
    kernel_basis,
)


def rref(rows: list, ncols: int) -> tuple[list, list]:
    """Reduced row-echelon form of dense rows: (pivot rows, pivot columns)."""
    a = [[Fraction(x) for x in r] for r in rows]
    pivots: list = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                g = a[i][c]
                a[i] = [x - g * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a[: len(pivots)], pivots


# mostly-zero entries make dependent and repeated vectors common
sparse_entries = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1]),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
)


class SmallestIndexSubquotient:
    """An elimination by another pivot rule, kept as an oracle: each
    vector is reduced only until its smallest remaining index is not a
    pivot, and that index becomes its pivot.  ``Subquotient`` pivots at
    the lowest row instead; every readout must agree.  ``extend`` appends
    cycles and stops at ``stop`` representatives, as ``Subquotient``'s
    does."""

    def __init__(self, ambient_dim: int, cycles, boundaries=()):
        self.ambient_dim = ambient_dim
        self.representatives: list = []
        self.pivot_columns: list = []
        self.dependent: dict = {}
        self._pivots: dict = {}  # leading column -> (row, row's rep coordinates)
        for b in boundaries:
            self._insert(b, None)
        self.extend(cycles)

    def extend(self, cycles, stop=None) -> None:
        for z in cycles:
            if self.dim == stop:
                return
            i = len(self.pivot_columns) + len(self.dependent)
            coords = self._insert(z, z)
            if coords is None:
                self.pivot_columns.append(i)
            else:
                self.dependent[i] = {k: _exact(x) for k, x in coords.items()}

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def rows(self) -> list:
        return [row for row, _ in self._pivots.values()]

    def coords(self, v) -> list:
        coords = self.sparse_coords(v)
        return [Fraction(coords.get(k, 0)) for k in range(self.dim)]

    def sparse_coords(self, v) -> dict:
        lead, coords = self._reduce(self._sparse(v))
        if lead is not None:
            raise NoSolution("vector outside span(cycles) + span(boundaries)")
        return {k: c for k, c in coords.items() if c}

    def _sparse(self, v) -> dict:
        items = v.items() if isinstance(v, dict) else enumerate(v)
        return {i: _exact(x) for i, x in items if x}

    def _reduce(self, w: dict):
        coords: dict = {}
        heap = list(w)
        heapq.heapify(heap)
        while heap:
            c = heapq.heappop(heap)
            f = w.get(c)
            if f is None:
                continue
            pivot = self._pivots.get(c)
            if pivot is None:
                return c, coords
            row, row_coords = pivot
            for cc, x in row.items():
                s = w.get(cc, 0) - f * x
                if s:
                    if cc not in w:
                        heapq.heappush(heap, cc)
                    w[cc] = s
                else:
                    w.pop(cc, None)
            for k, x in row_coords.items():
                coords[k] = coords.get(k, 0) + f * x
        return None, coords

    def _insert(self, v, rep):
        w = self._sparse(v)
        lead, coords = self._reduce(w)
        if lead is None:
            return coords
        p = w[lead]
        row_coords = {k: _div(-x, p) for k, x in coords.items()}
        if rep is not None:
            row_coords[self.dim] = _div(1, p)
            self.representatives.append(rep)
        self._pivots[lead] = ({c: _div(x, p) for c, x in w.items()}, row_coords)
        return None


def smallest_index_echelons(C: ChainComplexWindow) -> dict:
    """q -> the :class:`SmallestIndexSubquotient` of the columns of d_{q+1},
    whose rows are a basis of the boundaries of degree q; empty at the top.
    Built as ``complexes.boundary_echelons`` builds its echelons, from the
    top degree down, skipping the columns of d_{q+1} at the pivots one
    degree up, but by the other pivot rule and in code of its own."""
    lo, hi = C.window
    out = {hi: SmallestIndexSubquotient(C.dim(hi), ())}
    for q in range(hi - 1, lo - 1, -1):
        cleared = out[q + 1]._pivots
        columns = [col for j, col in enumerate(C.d(q + 1).columns()) if j not in cleared]
        out[q] = SmallestIndexSubquotient(C.dim(q), (), columns)
    return dict(sorted(out.items()))


def dense_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a small invertible dense matrix: the right half of the
    reduced echelon form of [A | I]."""
    n = len(rows)
    augmented = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    return [r[n:] for r in rref(augmented, n)[0]]


def random_invertible(n: int, rng: random.Random):
    """(P, P^-1) as dense Fraction rows."""
    P = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = Fraction(rng.randint(-2, 2))
        P[i] = [x + c * y for x, y in zip(P[i], P[j])]
    return P, dense_inverse(P)


def _dense_to_matrix(rows: list[list[Fraction]]) -> RationalMatrix:
    n = len(rows)
    m = len(rows[0]) if rows else 0
    entries = {
        (i, j): v for i, r in enumerate(rows) for j, v in enumerate(r) if v != 0
    }
    return RationalMatrix(n, m, entries)


def _dense_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def random_complex(rng: random.Random, max_deg: int = 4):
    """(ChainComplexWindow, expected homology dims per degree).

    Dimensions stay small (<= 5 per degree) so exhaustive downstream
    checks remain fast.
    """
    free = {q: rng.randint(0, 2) for q in range(max_deg + 1)}
    killed = {q: rng.randint(0, 2) for q in range(1, max_deg + 1)}
    dims = {
        q: free.get(q, 0) + killed.get(q, 0) + killed.get(q + 1, 0)
        for q in range(max_deg + 1)
    }
    # block differential: the killed part of degree q maps identically
    # onto the corresponding part of degree q-1
    diff_dense = {}
    for q in range(1, max_deg + 1):
        rows = [[Fraction(0)] * dims[q] for _ in range(dims[q - 1])]
        # layout in degree q: [free_q | killed_q | image-of-(q+1)]
        # d maps the killed_q block onto the image block of degree q-1
        for k in range(killed.get(q, 0)):
            src = free.get(q, 0) + k
            dst = free.get(q - 1, 0) + killed.get(q - 1, 0) + k
            rows[dst][src] = Fraction(1)
        diff_dense[q] = rows
    # conjugate by random change of basis per degree
    P = {}
    Pinv = {}
    for q in range(max_deg + 1):
        if dims[q]:
            P[q], Pinv[q] = random_invertible(dims[q], rng)
    differential = {}
    for q in range(1, max_deg + 1):
        if not (dims[q] and dims[q - 1]):
            differential[q] = RationalMatrix.zero(dims[q - 1], dims[q])
            continue
        rows = _dense_mul(_dense_mul(Pinv[q - 1], diff_dense[q]), P[q])
        entries = {
            (i, j): v for i, r in enumerate(rows) for j, v in enumerate(r) if v != 0
        }
        differential[q] = RationalMatrix(dims[q - 1], dims[q], entries)
    space = GradedSpace({q: tuple(f"e{q}_{i}" for i in range(dims[q])) for q in dims})
    C = ChainComplexWindow(space, differential, (0, max_deg))
    expected = {q: free.get(q, 0) for q in range(max_deg + 1)}
    return C, expected


def reference_homology(C: ChainComplexWindow) -> dict:
    """degree -> Subquotient of cycles modulo boundaries, computed the
    plain way: the kernel basis of d_q at every degree (the dense identity
    at a complete lower edge, nothing at an open one) modulo the raw
    columns of d_{q+1}.  An oracle for ``homology``, which reduces each
    differential only once."""
    lo, hi = C.window
    out = {}
    for q in range(lo, hi + 1):
        n = C.dim(q)
        if q > lo:
            cycles = kernel_basis(C.d(q))
        elif C.complete_below:
            cycles = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
        else:
            cycles = []
        boundaries = C.d(q + 1).columns() if q < hi else []
        out[q] = Subquotient(n, cycles, boundaries)
    return out


# (d, variant, p_min, q_max) cobar windows; row q has an open lower edge
# where -p_min < q // 3, 3 being the lowest letter degree of every model here
COBAR_GRID = list(itertools.product(
    (5, 7, 9), ("full", "fixing-subgroup"), (0, -1, -3), (13, 27),
))

MOD_P = 2**61 - 1


def mod_p_homology_dims(C: ChainComplexWindow) -> dict:
    """q -> dim H_q over F_p, p = 2^61 - 1, at every reliable degree: a
    rank oracle for ``homology_dims``, which pivots by the same rule, each
    column at its lowest row, but over another field and in code that
    shares nothing with ``operadlab.linalg``.

    Each d_q is reduced mod p column by column, each column at its lowest
    row, from the top degree down with clearing: the columns of d_q at the
    pivot rows of d_{q+1} are skipped, since those pivots complete the
    boundaries to all of C_q and d kills the boundaries.  A non-integral
    entry is refused, not reduced.  For an integer matrix rank mod p <=
    rank over Q, so a dim above the exact one means p-torsion or a bug,
    and one below it a bug."""
    lo, hi = C.window
    ranks = {hi + 1: 0}
    cleared: set = set()
    for q in range(hi, lo - 1, -1):
        pivots: dict = {}  # lowest row -> reduced column, 1 at that row
        for j, column in enumerate(C.d(q).columns()):
            if j in cleared:
                continue
            if any(Fraction(x).denominator != 1 for x in column.values()):
                raise ValueError(f"non-integral entry in column {j} of d_{q}")
            v = {r: y for r, x in column.items() if (y := int(x) % MOD_P)}
            while v and max(v) in pivots:
                low = max(v)
                f = v[low]
                for r, x in pivots[low].items():
                    y = (v.get(r, 0) - f * x) % MOD_P
                    if y:
                        v[r] = y
                    else:
                        v.pop(r, None)
            if v:
                low = max(v)
                inverse = pow(v[low], -1, MOD_P)
                pivots[low] = {r: x * inverse % MOD_P for r, x in v.items()}
        ranks[q] = len(pivots)
        cleared = set(pivots)
    return {
        q: C.dim(q) - ranks[q] - ranks[q + 1]
        for q in range(lo, hi + 1) if C.reliable(q)
    }


def reference_pages(H, r_max: int) -> list:
    """Pages 1..r_max of the column-filtration spectral sequence, computed
    the plain way: every Z_r is a dense kernel basis padded to all of
    Tot_t, recomputed for each page and position, E_r is the quotient
    Z_r / (Z_{r-1} at p-1 + D Z_{r-1} at p+r-1), and d_r is read off dense
    class coordinates.  Each page keeps those quotients in ``quotients``,
    (p, q) -> Subquotient.  An oracle for ``SpectralSequence.pages``, which
    reads every page off one filtered reduction per total degree, in the
    basis of its pairs; the quotients give the coordinates in which the
    two are compared."""
    from operadlab.cosimplicial import BigradedPage, PageEntry

    ss = H.spectral_sequence()
    basis, tot_dim = ss.total_complex().space.basis, ss.total_complex().dim

    def Z(r, p, t):
        dom = [i for i, (n, _, _) in enumerate(basis.get(t, [])) if -n <= p]
        if not dom:
            return []
        rows = [i for i, (n, _, _) in enumerate(basis.get(t - 1, [])) if -n > p - r]
        bad = {i: ri for ri, i in enumerate(rows)}
        columns = ss.D(t).columns()
        entries = {
            (bad[row], ci): v
            for ci, c in enumerate(dom) for row, v in columns[c].items() if row in bad
        }
        out = []
        for k in kernel_basis(RationalMatrix(len(bad), len(dom), entries)):
            v = [Fraction(0)] * tot_dim(t)
            for ci, c in enumerate(dom):
                v[c] = k[ci]
            out.append(v)
        return out

    pages = []
    for r in range(1, r_max + 1):
        quotients = {}
        page = BigradedPage(r, {})
        for n, q in sorted(H._labels):
            p, t = -n, q - n
            up = [ss.D(t + 1).matvec(u) for u in Z(r - 1, p + r - 1, t + 1)]
            quo = Subquotient(tot_dim(t), Z(r, p, t), Z(r - 1, p - 1, t) + up)
            quotients[(p, q)] = quo
            page.entries[(p, q)] = PageEntry(
                p, q, quo.dim, quo.representatives, ss.entry_reliable(p, q, r)
            )
        for (p, q), e in page.entries.items():
            if not e.dim:
                continue
            tgt = quotients.get((p - r, q + r - 1))
            cols = []
            for x in e.representatives:
                y = ss.D(p + q).matvec(x)
                try:
                    cols.append((tgt or Subquotient(len(y), [])).coords(y))
                except NoSolution:
                    raise AssertionError("d_r image missed the target entry") from None
            if tgt is not None and tgt.dim:
                page.differentials[(p, q)] = RationalMatrix.from_columns(cols, tgt.dim)
        page.quotients = quotients
        pages.append(page)
    return pages


def reference_framed_compose(op, m: int, xl, i: int, n: int, yl) -> dict:
    """``FramedOperad.compose_basis`` computed the plain way, per split of
    the iterated diagonal and per call: the base composite, then for each
    split the Koszul signs and the products with the inserted word.  The
    host is a window into the untruncated operad, so no term is dropped
    past the degree cap.  An oracle for the host, which computes the split
    of each slot monomial into the inserted words once and splices it
    between the prefix and the tail with one tail sign."""
    (bx, gs), (by, hs) = xl, yl
    hopf, deg = op.hopf, op.hopf.degree
    base_terms = op.base.compose_basis(m, bx, i, n, by).items()
    tail_deg = sum(deg(g) for g in gs[i:])
    out: dict = {}
    for split, c0 in hopf.iterated_coproduct(gs[i - 1], n).items():
        coeff = c0
        word = []
        ok = True
        split_deg_after = [0] * (n + 1)
        for j in range(n - 1, -1, -1):
            split_deg_after[j] = split_deg_after[j + 1] + deg(split[j])
        for j in range(n):
            hj = hs[j]
            if deg(hj) % 2 and (split_deg_after[j + 1] + tail_deg) % 2:
                coeff = -coeff
            prod = hopf.product(split[j], hj)
            if prod is None:
                ok = False
                break
            s, mon = prod
            coeff *= s
            word.append(mon)
        if not ok:
            continue
        new_word = gs[: i - 1] + tuple(word) + gs[i:]
        for bl, bc in base_terms:
            lab = (bl, new_word)
            out[lab] = out.get(lab, Fraction(0)) + coeff * bc
    return {l: c for l, c in out.items() if c != 0}


# -- free operad oracles: the tree walks the free backend replaced -------------
#
# A fixpoint enumeration that recomputes every tree's degree on each pass,
# and per-leaf sign and graft walks that substitute one vertex at a time.
# Oracles for ``FreeChainOperad``, which builds its basis by leaf count
# and walks each tree once per graft and once per differential.


def _ref_generators(tree) -> list:
    """Generator names in preorder."""
    if tree == ():
        return []
    out = [tree[0]]
    for c in tree[1:]:
        out.extend(_ref_generators(c))
    return out


def _ref_degree(op, tree) -> int:
    return sum(op.generators[g][1] for g in _ref_generators(tree))


def _ref_leaves(tree) -> int:
    return 1 if tree == () else sum(_ref_leaves(c) for c in tree[1:])


def _ref_nested(op, tree) -> bool:
    nu = op.associative
    return nu is not None and tree[0] == nu and tree[2] != () and tree[2][0] == nu


def _ref_is_normal(op, tree) -> bool:
    if tree == ():
        return True
    return not _ref_nested(op, tree) and all(_ref_is_normal(op, c) for c in tree[1:])


def _ref_normalize(op, tree):
    if tree == ():
        return tree
    tree = (tree[0],) + tuple(_ref_normalize(op, c) for c in tree[1:])
    if _ref_nested(op, tree):
        nu = op.associative
        return _ref_normalize(op, (nu, (nu, tree[1], tree[2][1]), tree[2][2]))
    return tree


def _ref_splits(total: int, parts: int):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _ref_splits(total - first, parts - 1):
            yield (first,) + rest


def reference_free_basis(op, n: int) -> dict:
    """``basis_by_degree`` of a free host by fixpoint iteration: add every
    normal tree within the caps until a pass adds nothing."""
    by_leaves = {k: set() for k in range(1, op.max_arity + 1)}
    by_leaves[1].add(())
    changed = True
    while changed:
        changed = False
        for name, (ar, _) in op.generators.items():
            for leaves in range(ar, op.max_arity + 1):
                for split in _ref_splits(leaves, ar):
                    for kids in itertools.product(*(by_leaves[s] for s in split)):
                        t = (name,) + kids
                        if _ref_degree(op, t) > op.degree_cap:
                            continue
                        if _ref_is_normal(op, t) and t not in by_leaves[leaves]:
                            by_leaves[leaves].add(t)
                            changed = True
    by_deg: dict = {}
    for t in sorted(by_leaves.get(n, ()), key=lambda t: (_ref_degree(op, t), repr(t))):
        by_deg.setdefault(_ref_degree(op, t), []).append(t)
    return {q: tuple(ts) for q, ts in by_deg.items()}


def _ref_sign_and_graft(op, xtree, i: int, ytree):
    """(Koszul sign, tree) of grafting ytree at leaf i of xtree, from two
    separate walks: the degrees after leaf i, then the replacement."""
    count = after = 0

    def degrees_after(t):
        nonlocal count, after
        if t == ():
            count += 1
            return
        if count >= i:
            after += op.generators[t[0]][1]
        for c in t[1:]:
            degrees_after(c)

    degrees_after(xtree)
    sign = -1 if _ref_degree(op, ytree) % 2 and after % 2 else 1
    count = 0

    def graft(t):
        nonlocal count
        if t == ():
            count += 1
            return ytree if count == i else t
        return (t[0],) + tuple(graft(c) for c in t[1:])

    return sign, graft(xtree)


def reference_free_compose(op, xl, i: int, yl) -> dict:
    """``compose_basis`` of a free host below its caps."""
    sign, tree = _ref_sign_and_graft(op, xl, i, yl)
    return {_ref_normalize(op, tree): Fraction(sign)}


def reference_free_diff(op, label) -> dict:
    """``diff_basis`` of a free host: list the vertices with their
    addresses in preorder, then substitute each vertex's rule at its
    address, grafting the children into the rule term one at a time."""
    vertices = []

    def collect(t, addr):
        if t != ():
            vertices.append((addr, t[0]))
            for ci, c in enumerate(t[1:]):
                collect(c, addr + (ci,))

    def substitute(t, addr, repl):
        if addr:
            ci = addr[0]
            sign, sub = substitute(t[1 + ci], addr[1:], repl)
            return sign, t[: 1 + ci] + (sub,) + t[2 + ci :]
        sign, pos = 1, 1
        for child in t[1:]:
            s, repl = _ref_sign_and_graft(op, repl, pos, child)
            sign *= s
            pos += _ref_leaves(child)
        return sign, repl

    collect(label, ())
    out: dict = {}
    pre = 0
    for addr, name in vertices:
        rule = op.diff_rules.get(name)
        for repl, coeff in rule.coeffs if rule is not None else ():
            sign, tree = substitute(label, addr, repl)
            tree = _ref_normalize(op, tree)
            out[tree] = out.get(tree, 0) + (-1) ** pre * sign * coeff
        pre += op.generators[name][1]
    return {l: c for l, c in out.items() if c != 0}


# -- audit oracle: the table build and two-block enumeration the audit replaced --


def reference_audit_table(inp) -> tuple[dict, set]:
    """The audit's table as it was built before the exponent cap: a
    square-free generator always gets exponent 0 or 1, so a table can hold
    positions past t_max when only odd generators follow."""
    gens = inp.e2_generators

    def rec(i, t_left):
        if i == len(gens):
            yield ()
            return
        g = gens[i]
        for e in range((1 if g.square_free else t_left // g.total) + 1):
            for rest in rec(i + 1, t_left - e * g.total):
                yield (e,) + rest

    table: dict = {}
    mortal = set()
    for exps in rec(0, inp.t_max):
        pos = (sum(e * g.p for e, g in zip(exps, gens)), sum(e * g.q for e, g in zip(exps, gens)))
        table[pos] = table.get(pos, 0) + 1
        if not all(g.permanent for e, g in zip(exps, gens) if e):
            mortal.add(pos)
    return table, set(table) - mortal


def reference_convergence_audit(table: dict, perm: set, abut: dict, t_max: int) -> list:
    """Candidate differentials by two blocks, one proposing sources and one
    targets, over the surplus degrees up to t_max; returns the one forced
    differential as a list, ``[]`` with no surplus, or raises
    ``InconclusiveAudit``."""
    from operadlab.audit import PAGE_MAX, ForcedDifferential, InconclusiveAudit

    totals: dict = {}
    for (p, q), d in table.items():
        totals[p + q] = totals.get(p + q, 0) + d
    surplus_ts = sorted(t for t in totals if totals[t] > abut.get(t, 0) and t <= t_max)
    if not surplus_ts:
        return []
    t_star = surplus_ts[0]
    dying = [
        pos for pos in table
        if pos[0] + pos[1] == t_star and table[pos] > 0 and pos not in perm
    ]
    candidates = []
    for (p, q) in dying:
        for r in range(2, PAGE_MAX + 1):
            src = (p + r, q - r + 1)
            if src[0] <= 0 and table.get(src, 0) > 0 and src not in perm:
                candidates.append(ForcedDifferential(
                    r, src, (p, q),
                    f"class at {(p, q)} in total degree {t_star} exceeds the "
                    f"abutment and must be hit from {src} on page {r}",
                ))
            tgt = (p - r, q + r - 1)
            if table.get(tgt, 0) > 0 and tgt not in perm:
                candidates.append(ForcedDifferential(
                    r, (p, q), tgt,
                    f"class at {(p, q)} in total degree {t_star} exceeds the "
                    f"abutment and must map onto {tgt} on page {r}",
                ))
    if not candidates:
        raise InconclusiveAudit([])
    if len(candidates) > 1:
        raise InconclusiveAudit(candidates)
    return candidates


# -- vanishing oracle: the map-and-line rule the host's exact answer replaced --


def reference_vanishes(H, n: int, q: int) -> bool:
    """The rule of ``HochschildComplex.vanishes`` before the host's answer
    was exact, for sphere and framed hosts: the stored range; then, up to
    the top degree of column n's whole map (built to the cap), q not among
    its degrees; then the coverage line of normalized labels, whose slots
    each carry a sphere pair or a nonempty Hopf monomial, refused for the
    raw columns of a host with arity-0 labels."""
    from operadlab.instances import FramedOperad, SphereOperad

    if H.dim(n, q):
        return False
    if n < 0 or q < 0 or (n <= H.n_max and q <= H.q_max):
        return True
    host, columns = H.X.host, vars(H).setdefault("_reference_columns", {})
    if n <= H.n_max:
        if n not in columns:
            columns[n] = host.normalized_basis(n, math.inf) if H.normalized else host.basis_by_degree(n)
        if columns[n] and q <= max(columns[n]):
            return q not in columns[n]
    if not H.normalized and host.basis_by_degree(0):
        return False
    if isinstance(host, FramedOperad):
        per_slot = min(host.base.d - 1, 2 * min(host.hopf.gen_degrees))
    elif isinstance(host, SphereOperad):
        per_slot = host.d - 1
    else:
        raise TypeError(f"no reference line for {type(host).__name__}")
    return 2 * q < n * per_slot


@pytest.fixture
def rng():
    return random.Random(20260823)
