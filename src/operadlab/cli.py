"""Command-line surface for the workbench.

Commands: cobar, hochschild, bracket, e2, ss, obstruction, audit,
selftest.  Every command prints a human-readable summary and, with
``--out DIR``, writes a JSON report.  Exit codes: 0 success, 1 check
failure, 2 usage error, 3 window/lift failure.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
from fractions import Fraction

from . import __version__
from .audit import (
    InconclusiveAudit,
    abutment_dims,
    convergence_audit,
    e2_total_dims,
    framed_tensor_check,
    standard_audit_input,
)
from .complexes import WindowBoundary, totals_by_degree
from .cosimplicial import (
    HochschildComplex,
    LiftFailure,
    einfty_vs_total,
    hochschild_homology,
    mcclure_smith,
    ss_pages,
)
from .gerstenhaber import (
    bracket_on_classes,
    check_antisymmetry,
    check_delta_compat,
    check_jacobi,
    class_is_zero,
    poisson_image_check,
)
from .hopf import BidegreeWindow, build_so_hopf, cobar_homology
from .instances import (
    framed_multiplicative,
    poisson_multiplicative,
    sphere_multiplicative,
    witness_generator,
    witness_multiplicative,
)
from .linalg import NoSolution, rank
from .obstruction import (
    ObstructionInput,
    choice_independence,
    compare_with_d2,
    formality_baseline,
    run_pipeline,
)
from .operads import (
    OpElement,
    check_d_squared,
    check_leibniz,
    check_operad_axioms,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_WINDOW = 3


class CheckFailure(Exception):
    """A verification failed; the message names the first failing check."""


class UsageError(Exception):
    """The arguments name something that does not exist."""


# -- serialization helpers ---------------------------------------------------


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if hasattr(x, "__dict__") and not isinstance(x, type):
        return {k: _jsonable(v) for k, v in vars(x).items()}
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    return repr(x)


def element_terms(el: OpElement) -> list:
    return [[repr(l), str(c)] for l, c in el.coeffs]


def render_grid(dims: dict, title: str) -> str:
    """Plain-text grid of a (p, q) -> dim table; rows q descending."""
    if not dims:
        return f"{title}\n  (empty)\n"
    ps = sorted({p for p, _ in dims})
    qs = sorted({q for _, q in dims}, reverse=True)
    width = max(4, max(len(str(d)) for d in dims.values()) + 1)
    lines = [title, "  q\\p " + "".join(f"{p:>{width}}" for p in ps)]
    for q in qs:
        row = "".join(f"{dims.get((p, q), ''):>{width}}" for p in ps)
        lines.append(f"{q:>5} {row}")
    return "\n".join(lines) + "\n"


def _write_report(args, name: str, payload: dict):
    if args.out:
        (pathlib.Path(args.out) / f"{name}.json").write_text(
            json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
        )


# -- instance registry -------------------------------------------------------


def _check_d(d: int) -> int:
    if d % 2 == 0 or d < 5:
        raise UsageError(f"d must be odd and at least 5, got {d}")
    return d


def _at_least(name: str, value: int, low: int) -> int:
    if value < low:
        raise UsageError(f"{name} must be at least {low}, got {value}")
    return value


def _check_window(args) -> None:
    _at_least("--n-max", args.n_max, 0)
    _at_least("--q-max", args.q_max, 0)


def load_instance(spec: str, n_max: int, q_max: int):
    """Parse names like sphere:d=5, framed:d=5, poisson:d=5,
    witness:m=2, padded-witness:m=2, h1broken-witness:m=2."""
    family, _, param = spec.partition(":")
    key, _, value = param.partition("=")
    try:
        value = int(value)
    except ValueError:
        raise UsageError(f"unknown instance {spec!r}") from None
    if key == "d" and family in ("sphere", "framed", "poisson"):
        _check_d(value)
        if family == "sphere":
            return sphere_multiplicative(value, n_max, q_max)
        if family == "framed":
            return framed_multiplicative(value, n_max, q_max)
        return poisson_multiplicative(value)
    if key == "m" and family in ("witness", "padded-witness", "h1broken-witness"):
        return witness_multiplicative(
            _at_least("m", value, 2),
            padded=family == "padded-witness",
            break_h1=family == "h1broken-witness",
        )
    raise UsageError(f"unknown instance {spec!r}")


def _column_instance(args):
    """The instance of a command that builds columns 0..--n-max: a host
    with a fixed arity cap (poisson, witness) has no columns past it."""
    _check_window(args)
    M = load_instance(args.instance, args.n_max, args.q_max)
    if args.n_max > M.operad.max_arity:
        raise UsageError(
            f"--n-max {args.n_max} exceeds the arity cap {M.operad.max_arity} of {M.name}"
        )
    return M


def _witness_input(M) -> ObstructionInput:
    op = M.operad
    if "g" not in getattr(op, "generators", {}):
        raise CheckFailure(f"instance {M.name} has no odd generator g")
    g = witness_generator(op, "g")
    m = (op.generators["g"][1] + 1) // 4
    return ObstructionInput(M, g, m)


# -- commands ----------------------------------------------------------------


def cmd_cobar(args) -> int:
    _at_least("--q-max", args.q_max, 0)
    if args.p_min > 0:
        raise UsageError(f"--p-min must be at most 0, got {args.p_min}")
    hopf = build_so_hopf(_check_d(args.d), args.variant)
    window = BidegreeWindow(p_min=args.p_min, q_max=args.q_max)
    dims, _ = cobar_homology(hopf, window)
    totals = totals_by_degree(dims)
    print(render_grid(dims, f"cobar homology, d={args.d} ({args.variant})"))
    print("totals by p+q:", totals)
    _write_report(
        args,
        "cobar",
        {"d": args.d, "variant": args.variant,
         "dims": {f"{p},{q}": v for (p, q), v in dims.items()},
         "totals": totals},
    )
    return EXIT_OK


def cmd_hochschild(args) -> int:
    M = _column_instance(args)
    if M.operad.has_differential():
        raise CheckFailure(
            "hochschild tables require a zero-differential instance; "
            f"{M.name} carries a differential (use `ss` instead)"
        )
    HH = hochschild_homology(M, args.n_max, args.q_max)
    print(render_grid(HH.dims, f"Hochschild homology of {M.name}"))
    print("totals by p+q:", HH.total_dims())
    gens = [
        {"p": c.p, "q": c.q, "terms": element_terms(c.element)} for c in HH.classes
    ]
    _write_report(
        args,
        "hochschild",
        {"instance": M.name,
         "dims": {f"{p},{q}": v for (p, q), v in HH.dims.items()},
         "totals": HH.total_dims(), "classes": gens},
    )
    return EXIT_OK


def _parse_class(HH, text: str):
    """(k, class) for a spec p,q,k naming the k-th class at (p, q)."""
    try:
        p, q, k = (int(t) for t in text.split(","))
    except ValueError:
        raise UsageError(f"class spec {text!r} is not p,q,k")
    cs = HH.classes_at(p, q)
    if not 0 <= k < len(cs):
        raise UsageError(f"no class #{k} at ({p}, {q}); found {len(cs)}")
    return k, cs[k]


def cmd_bracket(args) -> int:
    M = _column_instance(args)
    if M.operad.has_differential():
        raise CheckFailure("bracket of classes requires a zero-differential instance")
    HH = hochschild_homology(M, args.n_max, args.q_max)
    k1, c1 = _parse_class(HH, args.class_a)
    k2, c2 = _parse_class(HH, args.class_b)
    if c1.arity + c2.arity < 1:
        raise UsageError(
            f"the bracket of arity-{c1.arity} and arity-{c2.arity} classes has "
            f"arity {c1.arity + c2.arity - 1}: outside the complex"
        )
    res = bracket_on_classes(M, HH, c1, c2)
    zero = class_is_zero(HH, res)
    print(f"bracket of ({c1.p},{c1.q})#{k1} and ({c2.p},{c2.q})#{k2} on {M.name}:")
    print(f"  bidegree ({res.p}, {res.q}), {'zero' if zero else 'nonzero'}")
    print(f"  representative: {element_terms(res.element)}")
    _write_report(
        args,
        "bracket",
        {"instance": M.name, "p": res.p, "q": res.q, "zero": zero,
         "terms": element_terms(res.element)},
    )
    return EXIT_OK


def cmd_e2(args) -> int:
    _check_window(args)
    rep = framed_tensor_check(_check_d(args.d), args.n_max, args.q_max)
    print(render_grid(rep.framed_dims, f"framed second page, d={args.d}"))
    print("tensor-splitting check:", "pass" if not rep.mismatches else "FAIL")
    print("vanishing-line check:  ", "pass" if not rep.vanishing_violations else "FAIL")
    _write_report(args, "e2", rep.__dict__)
    if not rep.ok:
        raise CheckFailure(
            f"tensor check mismatches {rep.mismatches}, "
            f"vanishing violations {rep.vanishing_violations}"
        )
    return EXIT_OK


def cmd_ss(args) -> int:
    _at_least("--r-max", args.r_max, 1)
    M = _column_instance(args)
    H = HochschildComplex(mcclure_smith(M, args.n_max), q_max=args.q_max)
    pages = ss_pages(H, args.r_max)
    payload = {"instance": M.name, "pages": []}
    for page in pages:
        dims = page.dims()
        print(render_grid(dims, f"page {page.r} of {M.name}"))
        nonzero = []
        for (p, q), mat in page.differentials.items():
            rk = rank(mat)
            if rk:
                nonzero.append(
                    {"r": page.r, "source": [p, q],
                     "target": [p - page.r, q + page.r - 1], "rank": rk}
                )
        for item in nonzero:
            print(f"  d{item['r']}: {tuple(item['source'])} -> "
                  f"{tuple(item['target'])}, rank {item['rank']}")
        payload["pages"].append(
            {"r": page.r, "dims": {f"{p},{q}": v for (p, q), v in dims.items()},
             "differentials": nonzero}
        )
    comparison = einfty_vs_total(H, args.r_max)
    bad = [row for row in comparison if row[1] != row[2]]
    print("stable page vs total homology:", "pass" if not bad else f"FAIL {bad}")
    payload["einfty_vs_total"] = comparison
    _write_report(args, "ss", payload)
    if bad:
        raise CheckFailure(f"stable-page totals disagree with total homology: {bad}")
    return EXIT_OK


def cmd_obstruction(args) -> int:
    _check_window(args)
    _at_least("--m", args.m, 1)
    _at_least("--trials", args.trials, 0)
    M = load_instance(args.instance, args.n_max, args.q_max)
    if not M.operad.has_differential():
        res = formality_baseline(M, args.m)
        verdict = "class zero" if not res.nonzero else "class nonzero"
        print(f"{M.name}: zero-differential host, h = xi = 0 admissible; {verdict}")
        _write_report(args, "obstruction",
                      {"instance": M.name, "verdict": verdict,
                       "class_coords": res.class_coords})
        if res.nonzero:
            raise CheckFailure("baseline class must vanish on zero-differential hosts")
        return EXIT_OK
    inp = _witness_input(M)
    res = run_pipeline(inp)
    verdict = "class nonzero" if res.nonzero else "class zero"
    print(f"{M.name}: {verdict}")
    print(f"  h  = {element_terms(res.h)}")
    print(f"  xi = {element_terms(res.xi)}")
    print(f"  omega ({len(res.omega.coeffs)} terms) = {element_terms(res.omega)}")
    print(f"  class coordinates: {[str(c) for c in res.class_coords]}")
    payload = {
        "instance": M.name, "verdict": verdict,
        "h": element_terms(res.h), "xi": element_terms(res.xi),
        "omega": element_terms(res.omega),
        "class_coords": [str(c) for c in res.class_coords],
    }
    if res.xi.is_zero():
        d2 = compare_with_d2(inp, res)
        print(f"  page-2 zig-zag comparison: {'equal' if d2.equal else 'DIFFERENT'}")
        payload["d2_equal"] = d2.equal
        if not d2.equal:
            _write_report(args, "obstruction", payload)
            raise CheckFailure("zig-zag page-2 class differs from the obstruction class")
    rep = choice_independence(inp, trials=args.trials, rng=random.Random(args.seed))
    print(f"  choice independence: h-cycles {rep.h_cycle_dim}, "
          f"xi-cycles {rep.xi_cycle_dim}, "
          f"{'ok' if rep.ok else 'FAILED'}"
          + ("" if rep.h1_vanishes else " (H_1(O(3)) != 0: xi-independence not asserted)"))
    payload["choice_independence_ok"] = rep.ok
    payload["h1_vanishes"] = rep.h1_vanishes
    _write_report(args, "obstruction", payload)
    if not rep.ok:
        raise CheckFailure("obstruction class moved under a choice of witnesses")
    return EXIT_OK


def cmd_audit(args) -> int:
    inp = standard_audit_input(_check_d(args.d))
    try:
        forced = convergence_audit(inp)
    except InconclusiveAudit as exc:
        print(f"d={args.d}: inconclusive, {len(exc.candidates)} candidates")
        for c in exc.candidates:
            print(f"  page {c.r}: {c.source} -> {c.target}")
        _write_report(args, "audit",
                      {"d": args.d, "verdict": "inconclusive",
                       "candidates": [c.__dict__ for c in exc.candidates]})
        raise CheckFailure("convergence audit inconclusive")
    print(f"d={args.d}: {len(forced)} forced differential(s)")
    for f in forced:
        print(f"  page {f.r}: {f.source} -> {f.target}")
        print(f"    {f.reason}")
    print("second-page totals:", e2_total_dims(inp))
    print("abutment totals:   ", dict(sorted(abutment_dims(inp).items())))
    _write_report(args, "audit",
                  {"d": args.d, "forced": [f.__dict__ for f in forced]})
    return EXIT_OK


def cmd_selftest(args) -> int:
    """Aggregated invariant suite; stops at the first failing check."""
    checks: list[tuple[str, bool]] = []

    def check(name: str, ok: bool):
        checks.append((name, ok))
        print(f"  {'pass' if ok else 'FAIL'}  {name}")
        if not ok:
            raise CheckFailure(name)

    print("selftest:")
    S = sphere_multiplicative(5, 4, 8)
    W = witness_multiplicative(2)
    for M in (S, W, poisson_multiplicative(5)):
        check(f"operad axioms on {M.name}",
              check_operad_axioms(M.operad, samples=300).ok)
    for M in (W,):
        check(f"d^2 = 0 on {M.name}", check_d_squared(M.operad).ok)
        check(f"Leibniz on {M.name}", check_leibniz(M.operad).ok)
    elems = [
        OpElement.basis(n, l)
        for n in (1, 2)
        for q, labs in sorted(S.operad.basis_by_degree(n).items())
        for l in labs
    ]
    check("bracket antisymmetry", check_antisymmetry(S.operad, elems).ok)
    rng = random.Random(0)
    triples = [tuple(rng.choice(elems) for _ in range(3)) for _ in range(40)]
    check("bracket Jacobi", check_jacobi(S.operad, triples).ok)
    for M in (S, W):
        sample = [
            OpElement.basis(n, l)
            for n in (1, 2, 3)
            for q, labs in sorted(M.operad.basis_by_degree(n).items())
            for l in labs
        ]
        check(f"coboundary equals bracket with nu on {M.name}",
              check_delta_compat(M, sample).ok)
    check("Poisson inclusion image nonzero", poisson_image_check(5).ok)
    res = run_pipeline(_witness_input(W))
    check("witness obstruction class nonzero", res.nonzero)
    check("formality baseline zero",
          not formality_baseline(sphere_multiplicative(5, 3, 9), 2).nonzero)
    check("convergence audit d=5",
          [(f.r, f.source) for f in convergence_audit(standard_audit_input(5))]
          == [(2, (-1, 7))])
    print(f"selftest: {len(checks)} checks passed")
    _write_report(args, "selftest", {"checks": [list(c) for c in checks]})
    return EXIT_OK


# -- argument parsing --------------------------------------------------------


def _read_config(path: str) -> dict:
    """key = value lines; blank lines and # comments ignored."""
    out = {}
    for raw in pathlib.Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"malformed config line: {raw!r}")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The argument parser; ``config`` values become the defaults of the
    arguments they name, so the command line still overrides them."""
    parser = argparse.ArgumentParser(
        prog="operadlab",
        description="Exact-rational workbench for chain operads.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="key = value file supplying defaults")
    parser.add_argument("--out", help="directory for JSON reports")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cobar", help="cobar homology tables of a rotation group")
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--variant", choices=["full", "fixing-subgroup"], default="full")
    p.add_argument("--p-min", type=int, default=-5)
    p.add_argument("--q-max", type=int, default=16)
    p.set_defaults(func=cmd_cobar)

    p = sub.add_parser("hochschild", help="Hochschild homology tables")
    p.add_argument("--instance", default="sphere:d=5")
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--q-max", type=int, default=12)
    p.set_defaults(func=cmd_hochschild)

    p = sub.add_parser("bracket", help="bracket of two named classes")
    p.add_argument("--instance", default="sphere:d=5")
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--q-max", type=int, default=12)
    p.add_argument("--class-a", required=True, metavar="p,q,k")
    p.add_argument("--class-b", required=True, metavar="p,q,k")
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("e2", help="framed second page and tensor check")
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--q-max", type=int, default=12)
    p.set_defaults(func=cmd_e2)

    p = sub.add_parser("ss", help="spectral-sequence pages and differentials")
    p.add_argument("--instance", default="witness:m=2")
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--q-max", type=int, default=10)
    p.add_argument("--r-max", type=int, default=4)
    p.set_defaults(func=cmd_ss)

    p = sub.add_parser("obstruction", help="obstruction pipeline")
    p.add_argument("--instance", default="witness:m=2")
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--q-max", type=int, default=10)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_obstruction)

    p = sub.add_parser("audit", help="convergence audit")
    p.add_argument("--d", type=int, default=5)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("selftest", help="aggregated invariant suite")
    p.set_defaults(func=cmd_selftest)
    for p in (parser, *sub.choices.values()):
        dests = {action.dest for action in p._actions}
        p.set_defaults(**{k: v for k, v in (config or {}).items() if k in dests})
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            args = build_parser(_read_config(args.config)).parse_args(argv)
        # before any work, so a bad --out fails first rather than last
        if args.out:
            pathlib.Path(args.out).mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (LiftFailure, WindowBoundary) as exc:
        print(f"window too small: {exc}", file=sys.stderr)
        return EXIT_WINDOW
    except (NoSolution, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
