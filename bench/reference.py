"""Answers the benchmark checks against, derived without operadlab.

Every expected value here comes from the algebra the paper predicts, not
from the code under test:

* the sphere table is the free graded-commutative algebra Q[x] (x) L[y]
  on x at (-2, 4) and y = {x, x} at (-3, 8);
* the framed page is that algebra tensored with the cobar homology of the
  rotation-group coalgebra, free on beta_i at (-1, 4i - 1);
* the bracket on the sphere table obeys the Poisson rule
  {x^a y^e, x^b y^f} = ab x^(a+b-2) y when e = f = 0, and 0 otherwise;
* a Gerstenhaber bracket is graded antisymmetric in the shifted degree
  s = q - n + 1: {u, v} = -(-1)^(s_u s_v) {v, u}, and bilinear;
* the operad unit 1 (the only arity-1 label of degree 0) gives
  {c 1, y} = c (1 - n) y for y of arity n, by the unit law alone;
* arity 1 of the framed operad is the graded-commutative homology of
  SO(d) with composition as product, so brackets of two arity-1 chains
  vanish; and the framed chains with trivial rotation words form the
  sphere operad, so {x, x} of the degree-(d - 1) arity-2 chain x is
  non-zero, as the sphere table's class {x, x} at (-3, 8) shows.

Checks take plain records (dicts of numbers, lists and dicts), so a
negative control can corrupt a copy of a real record and run it through
the same check.  A table check returns a list of failure messages; a
query check returns one such list per query.  Empty means pass.
"""

from __future__ import annotations

SPHERE_GENERATORS = ((-2, 4), (-3, 8))  # x, y = {x, x}


def free_commutative(gens, p_min: int, q_max: int) -> dict:
    """Monomial count of the free graded-commutative algebra on bigraded
    generators (p < 0, q > 0) in the region p >= p_min, q <= q_max.  A
    generator of odd total degree p + q squares to zero."""
    out: dict = {}

    def rec(i, p, q):
        if i == len(gens):
            out[(p, q)] = out.get((p, q), 0) + 1
            return
        gp, gq = gens[i]
        e_max = 1 if (gp + gq) % 2 else None
        e = 0
        while p + e * gp >= p_min and q + e * gq <= q_max:
            rec(i + 1, p + e * gp, q + e * gq)
            if e == e_max:
                break
            e += 1

    rec(0, 0, 0)
    return out


def cobar_generators(d: int) -> tuple:
    return tuple((-1, 4 * i - 1) for i in range(1, (d - 1) // 2 + 1))


def sphere_monomial(p: int, q: int) -> tuple[int, int]:
    """Exponents (a, e) of the monomial x^a y^e sitting at (p, q)."""
    for e in (0, 1):
        a2, a4 = -(p + 3 * e), q - 8 * e
        if a2 >= 0 and a2 % 2 == 0 and a4 == 2 * a2:
            return a2 // 2, e
    raise ValueError(f"no monomial of Q[x] (x) L[y] at ({p}, {q})")


def sphere_bracket_is_zero(a: tuple, b: tuple) -> bool:
    """Poisson-rule prediction for {class at a, class at b}."""
    (xa, ya), (xb, yb) = sphere_monomial(*a), sphere_monomial(*b)
    return not (xa >= 1 and xb >= 1 and ya == 0 and yb == 0)


def antisymmetry_sign(su: int, sv: int) -> int:
    """{u, v} = antisymmetry_sign(s_u, s_v) * {v, u}."""
    return -((-1) ** ((su * sv) % 2))


def shifted_degree(arity: int, q: int) -> int:
    return q - arity + 1


# -- checks ------------------------------------------------------------------


def check_sphere_table(dims: dict, n_max: int, q_max: int) -> list:
    """dims: (p, q) -> dim over reliable positions.  Exact in the region
    p >= -5; elsewhere every reported entry must equal the free count."""
    expected = free_commutative(SPHERE_GENERATORS, -n_max, q_max)
    errors = []
    for pos in sorted(set(dims) | set(expected)):
        got, want = dims.get(pos, 0), expected.get(pos, 0)
        if got != want and (pos[0] >= -5 or pos in dims):
            errors.append(f"table at {pos}: {got}, free count {want}")
    if dims.get((-2, 4)) != 1:
        errors.append("no class x at (-2, 4)")
    return errors


def check_sphere_queries(recs: list) -> list:
    """recs: {"a", "b", "scale", "zero", "vector"} per query, a and b
    bidegrees; the query bracketed multiples of the two classes whose
    product is scale.

    Checks the Poisson-rule prediction for each query, and graded
    antisymmetry between the queries (a, b) and (b, a), each divided by
    its scale.
    """
    by_pair = {(r["a"], r["b"]): r for r in recs if "error" not in r}
    out = []
    for r in recs:
        if "error" in r:
            out.append([r["error"]])
            continue
        a, b = r["a"], r["b"]
        errors = []
        want_zero = sphere_bracket_is_zero(a, b)
        if r["zero"] != want_zero:
            errors.append(f"{{{a}, {b}}} zero={r['zero']}, predicted {want_zero}")
        if all(v == 0 for v in r["vector"]) != r["zero"]:
            errors.append(f"{{{a}, {b}}} zero flag disagrees with its vector")
        other = by_pair.get((b, a))
        if other is not None:
            s = antisymmetry_sign(shifted_degree(-a[0], a[1]), shifted_degree(-b[0], b[1]))
            if ([v / r["scale"] for v in r["vector"]]
                    != [s * v / other["scale"] for v in other["vector"]]):
                errors.append(f"{{{a}, {b}}} != {s} * {{{b}, {a}}}")
        if a == b == (-2, 4) and r["zero"]:
            errors.append("{x, x} at (-2, 4) is zero")
        out.append(errors)
    return out


def framed_expected(d: int, n_max: int, q_max: int) -> dict:
    base = free_commutative(SPHERE_GENERATORS, -n_max, q_max)
    cobar = free_commutative(cobar_generators(d), -n_max, q_max)
    out: dict = {}
    for (p1, q1), d1 in base.items():
        for (p2, q2), d2 in cobar.items():
            p, q = p1 + p2, q1 + q2
            if p >= -n_max and q <= q_max:
                out[(p, q)] = out.get((p, q), 0) + d1 * d2
    return out


def check_framed_table(rec: dict, d: int, n_max: int, q_max: int) -> list:
    """rec: {"ok", "framed", "convolution"} from the tensor check.

    Every reported entry of the framed page and of the convolution must
    equal the free count, and every free-count entry with p >= -(n_max - 1)
    must be reported: those columns have a computed column beyond them.
    """
    expected = framed_expected(d, n_max, q_max)
    errors = [] if rec["ok"] else ["tensor check reports not ok"]
    for pos in sorted(set(rec["framed"]) | set(rec["convolution"])):
        want = expected.get(pos, 0)
        for key in ("framed", "convolution"):
            got = rec[key].get(pos, 0)
            if got != want:
                errors.append(f"{key} at {pos}: {got}, free count {want}")
    for pos, want in sorted(expected.items()):
        if pos[0] >= -(n_max - 1) and pos not in rec["framed"]:
            errors.append(f"framed page misses {pos} (free count {want})")
    return errors


def check_framed_queries(recs: list, d: int) -> list:
    """recs: {"x", "cx", "y", "cy", "terms"}; x and y are (arity, q)
    slots, cx and cy the label -> coefficient maps of the bracketed
    chains, and terms that of the chain-level bracket {x, y}.

    Every query: graded antisymmetry against the reversed query.  Unit
    queries (x = (1, 0)): the unit law.  Two arity-1 slots: zero.  Two
    (2, d - 1) slots: non-zero.
    """
    by_pair = {(r["x"], r["y"]): r for r in recs if "error" not in r}
    out = []
    for r in recs:
        if "error" in r:
            out.append([r["error"]])
            continue
        x, y, terms = r["x"], r["y"], r["terms"]
        errors = []
        other = by_pair.get((y, x))
        if other is None:
            errors.append(f"query {x}, {y} has no reversed partner")
        else:
            s = antisymmetry_sign(shifted_degree(*x), shifted_degree(*y))
            if terms != {l: s * c for l, c in other["terms"].items()}:
                errors.append(f"{{{x}, {y}}} != {s} * reversed")
        if x == (1, 0):
            (c,) = r["cx"].values()
            want = {l: c * (1 - y[0]) * v for l, v in r["cy"].items() if y[0] != 1}
            if terms != want:
                errors.append(f"{{1, {y}}} breaks the unit law")
        if x[0] == y[0] == 1 and terms:
            errors.append(f"{{{x}, {y}}} of arity-1 chains is non-zero")
        if x == y == (2, d - 1) and not terms:
            errors.append(f"{{{x}, {y}}} is zero")
        out.append(errors)
    return out


def check_witness_table(rec: dict) -> list:
    """rec: {"einfty", "pages_total", "nonzero", "d2_equal"}.

    einfty rows are (t, stable-page sum, total homology); pages_total is
    the last page of the separately computed pages, summed per t.
    """
    errors = []
    if not rec["einfty"]:
        errors.append("no reliable total degree to compare")
    for t, stable, total in rec["einfty"]:
        if stable != total:
            errors.append(f"E-infinity at t={t}: {stable}, total homology {total}")
        if rec["pages_total"].get(t, 0) != total:
            errors.append(f"last page at t={t}: {rec['pages_total'].get(t, 0)}, "
                          f"total homology {total}")
    if not rec["nonzero"]:
        errors.append("obstruction class is zero")
    if not rec["d2_equal"]:
        errors.append("page-2 zig-zag class differs from the obstruction class")
    return errors


def check_witness_queries(recs: list, coords: list) -> list:
    """recs: {"kind", "coords"}.  Perturbing h by a cycle leaves the
    class; so does perturbing xi, because H_1(O(3)) = 0 on the padded
    witness."""
    return [
        [r["error"]] if "error" in r
        else [] if r["coords"] == coords
        else [f"{r['kind']}-perturbed class {r['coords']} != {coords}"]
        for r in recs
    ]
