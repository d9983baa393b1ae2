"""The three benchmark workloads.

Each workload builds its instance (set-up), makes its query inputs from
a seeded random generator, and runs passes.  A pass is what one CLI
user session does: a fresh import of operadlab, a fresh instance, the
table, then a query stream on that table whose inputs no other pass or
query shares.  Only calls into operadlab sit inside ``clock.measure``;
record extraction and checks run outside it.

Records are plain data for :mod:`reference`.  An operation that raises
is recorded with an ``error`` entry and counts as failed.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import random
import traceback
from fractions import Fraction

import reference as ref


def _error(exc: BaseException) -> str:
    traceback.print_exception(exc)
    return f"{type(exc).__name__}: {exc}"


def inputs_digest(inputs: list) -> str:
    """Short digest of generated inputs; equal seeds give equal digests."""
    return hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))


class Workload:
    name = ""
    # seconds one pass takes on the reference machine (2 CPUs, Python 3.11);
    # fixes the pass count per --seconds, so every commit does the same work
    nominal_pass_s = 1.0

    def passes(self, seconds: int) -> int:
        return max(1, int(seconds / self.nominal_pass_s + 0.5))

    def construct(self, api):
        raise NotImplementedError

    def make_inputs(self, api, rng: random.Random) -> list:
        """One pass's query inputs, drawn from ``rng`` only."""
        raise NotImplementedError

    def run_pass(self, api, inputs: list, clock) -> tuple[dict, list]:
        """Returns (table record, query records)."""
        raise NotImplementedError

    def check(self, table: dict, queries: list) -> tuple[list, list]:
        """(table errors, per-query error lists)."""
        raise NotImplementedError

    def controls(self, table: dict, queries: list) -> list:
        """Corrupted copies (name, table, queries) that :meth:`check` must
        reject."""
        raise NotImplementedError


class SphereTable(Workload):
    """hochschild_homology(sphere_multiplicative(5, 8, 16), 8, 16), then
    bracket_on_classes + class_is_zero once on every ordered pair of
    classes whose bracket lands in the window, in seeded order.  Each
    query brackets seeded non-zero multiples of the two classes, so no
    two queries of a run share an input."""

    name = "sphere-table"
    nominal_pass_s = 21.0
    D, N_MAX, Q_MAX = 5, 8, 16

    def construct(self, api):
        return api.instances.sphere_multiplicative(self.D, self.N_MAX, self.Q_MAX)

    def make_inputs(self, api, rng):
        classes = sorted(ref.free_commutative(ref.SPHERE_GENERATORS, -self.N_MAX, self.Q_MAX))
        pairs = [
            (a, b) for a in classes for b in classes
            if 0 <= -a[0] - b[0] - 1 <= self.N_MAX and a[1] + b[1] <= self.Q_MAX
        ]
        rng.shuffle(pairs)
        return [(a, _rational(rng), b, _rational(rng)) for a, b in pairs]

    @staticmethod
    def _scaled(cls, c: Fraction):
        return dataclasses.replace(cls, vector=[c * v for v in cls.vector],
                                   element=cls.element.scale(c))

    def run_pass(self, api, inputs, clock):
        M = self.construct(api)
        gc.collect()
        try:
            with clock.measure("table"):
                HH = api.cosimplicial.hochschild_homology(M, self.N_MAX, self.Q_MAX)
        except Exception as exc:
            return {"error": _error(exc)}, [{"error": "no table"} for _ in inputs]
        table = {"dims": dict(HH.dims)}
        gc.collect()
        recs = []
        for a, ka, b, kb in inputs:
            try:
                ca = self._scaled(HH.classes_at(*a)[0], ka)
                cb = self._scaled(HH.classes_at(*b)[0], kb)
                with clock.measure("query"):
                    res = api.gerstenhaber.bracket_on_classes(M, HH, ca, cb)
                    zero = api.gerstenhaber.class_is_zero(HH, res)
                recs.append({"a": a, "b": b, "scale": ka * kb, "zero": zero,
                             "vector": list(res.vector)})
            except Exception as exc:
                recs.append({"a": a, "b": b, "error": _error(exc)})
        return table, recs

    def check(self, table, queries):
        if "error" in table:
            return [table["error"]], ref.check_sphere_queries(queries)
        return (ref.check_sphere_table(table["dims"], self.N_MAX, self.Q_MAX),
                ref.check_sphere_queries(queries))

    def controls(self, table, queries):
        bad_table = {**table, "dims": {**table["dims"], (-2, 4): 2}}
        flip = [dict(r) for r in queries]
        flip[0]["zero"] = not flip[0]["zero"]
        signed = [dict(r) for r in queries]
        for r in signed:
            if r["a"] != r["b"] and not r["zero"]:
                r["vector"] = [-v for v in r["vector"]]
                break
        return [
            ("sphere table entry", bad_table, queries),
            ("sphere bracket zero flag", table, flip),
            ("sphere bracket sign", table, signed),
        ]


class FramedE2(Workload):
    """framed_tensor_check(5, 6, 16), then a small stream of chain-level
    brackets of framed chains: every ordered pair of (arity, degree) slots
    with result arity <= 3 and degree <= 16, each slot a seeded
    combination of its basis.  The stream only exists because every
    workload reports the query metrics; no CLI command issues it."""

    name = "framed-e2"
    nominal_pass_s = 5.4
    D, N_MAX, Q_MAX = 5, 6, 16
    QUERY_ARITY = 3

    def construct(self, api):
        return api.instances.framed_multiplicative(self.D, self.N_MAX, self.Q_MAX)

    def make_inputs(self, api, rng):
        op = self.construct(api).operad
        slots = {}
        for n in range(1, self.QUERY_ARITY):
            for q, labels in sorted(op.basis_by_degree(n).items()):
                slots[(n, q)] = {label: _rational(rng) for label in labels}
        pairs = [
            (x, y) for x in slots for y in slots
            if x[0] + y[0] - 1 <= self.QUERY_ARITY and x[1] + y[1] <= self.Q_MAX
        ]
        rng.shuffle(pairs)
        return [(x, slots[x], y, slots[y]) for x, y in pairs]

    def run_pass(self, api, inputs, clock):
        op = self.construct(api).operad
        make = api.operads.OpElement.make
        gc.collect()
        try:
            with clock.measure("table"):
                rep = api.audit.framed_tensor_check(self.D, self.N_MAX, self.Q_MAX)
            table = {"ok": rep.ok, "framed": dict(rep.framed_dims),
                     "convolution": dict(rep.convolution_dims)}
        except Exception as exc:
            table = {"error": _error(exc)}
        gc.collect()
        recs = []
        for x, cx, y, cy in inputs:
            try:
                ex, ey = make(x[0], cx), make(y[0], cy)
                with clock.measure("query"):
                    res = api.gerstenhaber.bracket(op, ex, ey)
                recs.append({"x": x, "cx": cx, "y": y, "cy": cy, "terms": dict(res.coeffs)})
            except Exception as exc:
                recs.append({"x": x, "y": y, "error": _error(exc)})
        return table, recs

    def check(self, table, queries):
        if "error" in table:
            errors = [table["error"]]
        else:
            errors = ref.check_framed_table(table, self.D, self.N_MAX, self.Q_MAX)
        return errors, ref.check_framed_queries(queries, self.D)

    def controls(self, table, queries):
        pos = min(table["framed"])
        bad_table = {**table, "framed": {**table["framed"], pos: table["framed"][pos] + 1}}
        signed = [dict(r) for r in queries]
        for r in signed:
            if r["terms"] and r["x"] != r["y"]:
                label = next(iter(r["terms"]))
                r["terms"] = {**r["terms"], label: -r["terms"][label]}
                break
        zero = [{**r, "terms": {}} for r in queries]
        doubled = [{**r, "terms": {l: 2 * c for l, c in r["terms"].items()}}
                   for r in queries]
        return [("framed page entry", bad_table, queries),
                ("framed bracket sign", table, signed),
                ("framed brackets all zero", table, zero),
                ("framed brackets all doubled", table, doubled)]


class WitnessPipeline(Workload):
    """On witness_multiplicative(3, padded=True): pages and the E-infinity
    comparison at r <= 6, q <= 26, the obstruction pipeline and the page-2
    comparison; then omega on h0 + z or xi0 + z for seeded cycles z."""

    name = "witness-pipeline"
    nominal_pass_s = 6.4
    M_PARAM, N_MAX, Q_MAX, R_MAX = 3, 3, 26, 6
    QUERIES = 40

    def construct(self, api):
        M = api.instances.witness_multiplicative(self.M_PARAM, padded=True)
        g = api.instances.witness_generator(M.operad, "g")
        return api.obstruction.ObstructionInput(M, g, self.M_PARAM)

    def make_inputs(self, api, rng):
        op = self.construct(api).operad
        basis = {"h": self._cycles(api, op, 2, 4 * self.M_PARAM),
                 "xi": self._cycles(api, op, 3, 1)}
        kinds = ["h", "xi"] * (self.QUERIES // 2)
        rng.shuffle(kinds)
        out = []
        for kind in kinds:
            coeffs = [_rational(rng) for _ in basis[kind]]
            z = api.operads.OpElement.zero(basis[kind][0].arity)
            for c, b in zip(coeffs, basis[kind]):
                z = z + b.scale(c)
            out.append((kind, z))
        return out

    @staticmethod
    def _cycles(api, op, n, q):
        C = api.instances.arity_complex(op, n)
        return [api.instances.vector_to_element(op, n, q, v)
                for v in api.linalg.kernel_basis(C.d(q))]

    def run_pass(self, api, inputs, clock):
        inp = self.construct(api)
        cs = api.cosimplicial
        gc.collect()
        try:
            with clock.measure("table"):
                H = cs.HochschildComplex(cs.mcclure_smith(inp.M, self.N_MAX), q_max=self.Q_MAX)
                pages = cs.ss_pages(H, self.R_MAX)
                einfty = cs.einfty_vs_total(H, self.R_MAX)
                res = api.obstruction.run_pipeline(inp)
                d2 = api.obstruction.compare_with_d2(inp, res)
        except Exception as exc:
            return {"error": _error(exc)}, [{"error": "no pipeline"} for _ in inputs]
        pages_total: dict = {}
        for (p, q), e in pages[-1].entries.items():
            pages_total[p + q] = pages_total.get(p + q, 0) + e.dim
        table = {"einfty": [tuple(row) for row in einfty], "pages_total": pages_total,
                 "nonzero": res.nonzero, "d2_equal": d2.equal,
                 "coords": list(res.class_coords)}
        gc.collect()
        recs = []
        for kind, z in inputs:
            h, xi = (res.h + z, res.xi) if kind == "h" else (res.h, res.xi + z)
            try:
                with clock.measure("query"):
                    r = api.obstruction.omega(inp, h, xi)
                recs.append({"kind": kind, "coords": list(r.class_coords)})
            except Exception as exc:
                recs.append({"kind": kind, "error": _error(exc)})
        return table, recs

    def check(self, table, queries):
        if "error" in table:
            return [table["error"]], ref.check_witness_queries(queries, None)
        return (ref.check_witness_table(table),
                ref.check_witness_queries(queries, table["coords"]))

    def controls(self, table, queries):
        t, stable, total = table["einfty"][0]
        bad_rows = {**table, "einfty": [(t, stable + 1, total)] + table["einfty"][1:]}
        moved = [dict(r) for r in queries]
        moved[0]["coords"] = [c + 1 for c in moved[0]["coords"]]
        return [
            ("witness E-infinity row", bad_rows, queries),
            ("witness class zero", {**table, "nonzero": False}, queries),
            ("witness page-2 comparison", {**table, "d2_equal": False}, queries),
            ("witness perturbed class", table, moved),
        ]


WORKLOADS = {w.name: w for w in (SphereTable(), FramedE2(), WitnessPipeline())}
