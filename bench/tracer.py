"""Outside-in tracing of operadlab for the benchmark's traced pass.

The tracer replaces public functions and methods of each operadlab module
(layer) by wrappers that record a span per call: calls, and self time,
which is the span's duration minus the time its child spans cover.  The
benchmark opens one root span around each timed call into operadlab.
Self times of all layers, plus the remainder of the root spans that no
layer covers, plus the tracer's own bookkeeping, add up to the traced
operation time by construction.  What can go wrong is coverage: the
remainder no wrapper covers, reported as ``bench.unwrapped.share`` of the
traced operation time.

Nothing inside operadlab changes: a wrapped name is patched in every
operadlab module that bound it, and :meth:`Tracer.restore` puts every
original back.  :func:`wrapped_names` finds any wrapper left behind, so
untimed and timed code can assert that it runs on the original functions.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

# metric name -> (owner, attribute); the owner is a module of operadlab or
# a class in one, written module.Class.
TARGETS = {
    "linalg.row_reduce": ("linalg", "row_reduce"),
    "linalg.kernel_basis": ("linalg", "kernel_basis"),
    "linalg.solve_particular": ("linalg", "solve_particular"),
    "linalg.QuotientSpace": ("linalg.QuotientSpace", "__init__"),
    "complexes.homology": ("complexes", "homology"),
    "complexes.ChainComplexWindow.init": ("complexes.ChainComplexWindow", "__init__"),
    "complexes.class_coordinates": ("complexes.DegreeHomology", "class_coordinates"),
    "operads.compose": ("operads.Operad", "compose"),
    "operads.differential": ("operads.Operad", "differential"),
    "operads.FreeChainOperad.compose_basis": ("operads.FreeChainOperad", "compose_basis"),
    "instances.SphereOperad.compose_basis": ("instances.SphereOperad", "compose_basis"),
    "instances.FramedOperad.compose_basis": ("instances.FramedOperad", "compose_basis"),
    "instances.arity_complex": ("instances", "arity_complex"),
    "hopf.iterated_coproduct": ("hopf.PrimitiveExteriorHopf", "iterated_coproduct"),
    "hopf.cobar_homology": ("hopf", "cobar_homology"),
    "cosimplicial.hochschild_homology": ("cosimplicial", "hochschild_homology"),
    "cosimplicial.mcclure_smith": ("cosimplicial", "mcclure_smith"),
    "cosimplicial.HochschildComplex.init": ("cosimplicial.HochschildComplex", "__init__"),
    "cosimplicial.is_normal_label": (
        "cosimplicial.SemicosimplicialChainComplex", "is_normal_label"),
    "cosimplicial.delta_mat": ("cosimplicial.HochschildComplex", "delta_mat"),
    "cosimplicial.d_mat": ("cosimplicial.HochschildComplex", "d_mat"),
    "cosimplicial.ss_pages": ("cosimplicial", "ss_pages"),
    "cosimplicial.SpectralSequence.pages": ("cosimplicial.SpectralSequence", "pages"),
    "cosimplicial.SpectralSequence.D": ("cosimplicial.SpectralSequence", "D"),
    "cosimplicial.zigzag_dr": ("cosimplicial", "zigzag_dr"),
    "cosimplicial.einfty_vs_total": ("cosimplicial", "einfty_vs_total"),
    "gerstenhaber.bracket": ("gerstenhaber", "bracket"),
    "gerstenhaber.bracket_on_classes": ("gerstenhaber", "bracket_on_classes"),
    "gerstenhaber.class_is_zero": ("gerstenhaber", "class_is_zero"),
    "obstruction.omega": ("obstruction", "omega"),
    "obstruction.run_pipeline": ("obstruction", "run_pipeline"),
    "obstruction.compare_with_d2": ("obstruction", "compare_with_d2"),
    "audit.framed_tensor_check": ("audit", "framed_tensor_check"),
}

ORIGINAL = "__bench_original__"


def operadlab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if (name == "operadlab" or name.startswith("operadlab.")) and m is not None]


def _owner(path: str):
    module, _, cls = path.partition(".")
    obj = sys.modules.get(f"operadlab.{module}")
    return getattr(obj, cls, None) if cls and obj is not None else obj


def wrapped_names() -> list:
    """Names in operadlab modules, or in their classes, bound to a wrapper."""
    found = []
    for mod in operadlab_modules():
        for name, value in list(vars(mod).items()):
            if hasattr(value, ORIGINAL):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in list(vars(value).items()):
                    if hasattr(member, ORIGINAL):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found


class _Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Records spans of the wrapped operadlab functions while installed."""

    def __init__(self):
        self.stats = {name: _Stat() for name in TARGETS}
        self.counters = dict.fromkeys(
            ("cells", "nnz_in", "nosolution", "terms_out", "kept", "delta_nnz"), 0)
        self._matrices: set = set()
        self._arity_inputs: set = set()
        self._keep: list = []  # holds keyed objects alive so ids stay unique
        self._delta_seen: set = set()
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)
        self.ops_s = 0.0
        self.unwrapped_s = 0.0
        self.bookkeeping_s = 0.0
        self.outside_calls = 0
        self.missing: list = []
        self.hook_errors = 0

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def op(self):
        """Root span around one timed call into operadlab."""
        frame = [0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - t0
            self._stack.pop()
            self.ops_s += elapsed
            self.unwrapped_s += elapsed - frame[0]

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        pre, post, on_error = _HOOKS.get(name, (None, None, None))
        stack = self._stack

        def wrapper(*args, **kwargs):
            b0 = perf_counter()
            if not stack:
                self.outside_calls += 1
                return fn(*args, **kwargs)
            if pre is not None:
                self._hook(pre, args)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter()
                stack.pop()
                if on_error is not None:
                    self._hook(on_error, exc)
                self._close(stat, frame, b0, t0, t1)
                raise
            t1 = perf_counter()
            stack.pop()
            if post is not None:
                self._hook(post, args, result)
            self._close(stat, frame, b0, t0, t1)
            return result

        setattr(wrapper, ORIGINAL, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _hook(self, fn, *args):
        # a counter must never break the traced program: a later operadlab
        # may change a signature or a matrix type the hooks read
        try:
            fn(self, *args)
        except Exception:
            self.hook_errors += 1

    def _close(self, stat, frame, b0, t0, t1):
        elapsed = t1 - t0
        stat.calls += 1
        stat.self_s += elapsed - frame[0]
        overhead = (t0 - b0) + (perf_counter() - t1)
        self.bookkeeping_s += overhead
        # the parent's self time excludes this span and its bookkeeping
        self._stack[-1][0] += elapsed + overhead

    # -- install / restore ---------------------------------------------------

    def install(self) -> None:
        if self._patches or wrapped_names():
            raise RuntimeError("tracer already installed")
        modules = operadlab_modules()
        for name, (path, attr) in TARGETS.items():
            owner = _owner(path)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                # a later version of operadlab may drop or rename a target;
                # its metrics then read zero and the report names it
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            self._patch(owner, attr, original, wrapper)
            if isinstance(owner, type):
                continue
            # rebind the name in every module that imported it
            for mod in modules:
                if mod is owner:
                    continue
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, bound, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        left = wrapped_names()
        if left:
            raise RuntimeError(f"wrappers left after restore: {left}")

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: calls and self_s per target, sizes and ratios."""
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = (stat.calls, "count")
            out[f"{name}.self_s"] = (stat.self_s, "s")
        c, s = self.counters, self.stats

        def ratio(num, den):
            return num / den if den else 0.0

        out["linalg.row_reduce.cells"] = (c["cells"], "count")
        out["linalg.row_reduce.nnz_in"] = (c["nnz_in"], "count")
        out["linalg.row_reduce.unique_ratio"] = (
            ratio(len(self._matrices), s["linalg.row_reduce"].calls), "ratio")
        out["linalg.solve_particular.nosolution_ratio"] = (
            ratio(c["nosolution"], s["linalg.solve_particular"].calls), "ratio")
        out["operads.compose.terms_out"] = (c["terms_out"], "count")
        out["instances.arity_complex.unique_ratio"] = (
            ratio(len(self._arity_inputs), s["instances.arity_complex"].calls), "ratio")
        out["cosimplicial.normalize.kept_ratio"] = (
            ratio(c["kept"], s["cosimplicial.is_normal_label"].calls), "ratio")
        out["cosimplicial.delta_mat.nnz"] = (c["delta_nnz"], "count")
        out["bench.unwrapped.self_s"] = (self.unwrapped_s, "s")
        out["bench.unwrapped.share"] = (ratio(self.unwrapped_s, self.ops_s), "ratio")
        out["trace.self_s"] = (self.bookkeeping_s, "s")
        return out

    def self_sum(self) -> float:
        """Self times of every layer, the unwrapped remainder and the
        tracer's bookkeeping; equals ``ops_s`` up to rounding, by
        construction."""
        return (sum(st.self_s for st in self.stats.values())
                + self.unwrapped_s + self.bookkeeping_s)


# -- counters at the layer boundaries ----------------------------------------


def _row_reduce_pre(tr, args):
    M = args[0]
    tr.counters["cells"] += M.rows * M.cols
    tr.counters["nnz_in"] += len(M.entries)


def _row_reduce_post(tr, args, result):
    M = args[0]
    tr._matrices.add(hash((M.rows, M.cols, frozenset(M.entries.items()))))


def _solve_error(tr, exc):
    if type(exc).__name__ == "NoSolution":
        tr.counters["nosolution"] += 1


def _compose_post(tr, args, result):
    tr.counters["terms_out"] += len(result.coeffs)


def _arity_pre(tr, args):
    op, n = args[0], args[1]
    if (id(op), n) not in tr._arity_inputs:
        tr._keep.append(op)
        tr._arity_inputs.add((id(op), n))


def _normal_post(tr, args, result):
    tr.counters["kept"] += bool(result)


def _delta_post(tr, args, result):
    if id(result) not in tr._delta_seen:
        tr._keep.append(result)
        tr._delta_seen.add(id(result))
        tr.counters["delta_nnz"] += len(result.entries)


_HOOKS = {
    "linalg.row_reduce": (_row_reduce_pre, _row_reduce_post, None),
    "linalg.solve_particular": (None, None, _solve_error),
    "operads.compose": (None, _compose_post, None),
    "instances.arity_complex": (_arity_pre, None, None),
    "cosimplicial.is_normal_label": (None, _normal_post, None),
    "cosimplicial.delta_mat": (None, _delta_post, None),
}
