"""operadlab benchmark: one workload per invocation.

Run from the repository root:

    python3 bench/run.py --workload sphere-table --seed 1 --seconds 20 --trace 0

Workloads: sphere-table, framed-e2, witness-pipeline (see bench/README.md).
The benchmark imports operadlab from ./src, never from an installed copy,
and exits with code 2 without a result when ./src/operadlab is missing.

With --trace 0 it times the workload untraced and prints the end-to-end
metrics: CPU time of this (single) thread, scaled to the speed of a reference
machine by a calibration kernel timed throughout the run (see
bench/README.md, "Clock"); with --trace 1 it runs one untraced and one traced pass and
prints the per-layer metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it is a JSON report of the run (seed, environment, query counts,
failures, negative controls).
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import types
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, thread_time

import tracer as tracing
from calibrate import Calibration
from workloads import WORKLOADS, inputs_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAYERS = ("linalg", "complexes", "operads", "hopf", "instances", "cosimplicial",
          "gerstenhaber", "obstruction", "audit")
SETUP_REPS = 21
# the traced pass must attribute all but this share of the traced
# operation time to wrapped layers (or to the tracer's bookkeeping)
MAX_UNWRAPPED_SHARE = 0.05
# a later pass this much faster than the first one points to state kept
# across passes, which a CLI session (one process per command) never has
WARM_PASS_RATIO = 0.7


class MissingProgram(Exception):
    pass


def import_api() -> types.SimpleNamespace:
    """Import operadlab's layers from ./src."""
    if not (SRC / "operadlab" / "__init__.py").is_file():
        raise MissingProgram(f"no operadlab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"operadlab.{name}") for name in LAYERS}
    origin = Path(modules["linalg"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingProgram(f"operadlab imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(**modules)


def purge_operadlab() -> None:
    for name in [n for n in sys.modules if n == "operadlab" or n.startswith("operadlab.")]:
        del sys.modules[name]


class Clock:
    """Times calls into operadlab, in CPU seconds of this thread
    (``samples``) and in wall seconds (``wall``), each without the
    calibration kernel timings that ran inside the call; ``spans`` holds
    each call's CPU-time interval.  Under a tracer each call is a root
    span.  After each call the calibration may time its kernel."""

    def __init__(self, cal: Calibration | None = None, tracer=None):
        self.cal = cal
        self.tracer = tracer
        self.samples = collections.defaultdict(list)
        self.wall = collections.defaultdict(list)
        self.spans = collections.defaultdict(list)

    @contextmanager
    def measure(self, kind: str):
        w0, t0 = perf_counter(), thread_time()
        try:
            if self.tracer is None:
                yield
            else:
                with self.tracer.op():
                    yield
        finally:
            t1, w1 = thread_time(), perf_counter()
            cal_cpu, cal_wall = self.cal.inside(t0, t1) if self.cal else (0.0, 0.0)
            self.samples[kind].append(t1 - t0 - cal_cpu)
            self.wall[kind].append(w1 - w0 - cal_wall)
            self.spans[kind].append((t0, t1))
            if self.cal:
                self.cal.follow()

    def scaled(self, kind: str) -> list:
        """The CPU times of ``kind``, each scaled to the reference machine
        by the calibration timings during and around its call."""
        return [t * self.cal.factor(*span)
                for t, span in zip(self.samples[kind], self.spans[kind])]


def measure_setup(workload, clock: Clock) -> None:
    """Times SETUP_REPS fresh imports of every layer plus the workload's
    instance construction, as ``setup`` calls of ``clock``.  One untimed
    import first compiles bytecode when the checkout has none."""
    import_api()
    for _ in range(SETUP_REPS):
        purge_operadlab()
        gc.collect()
        with clock.measure("setup"):
            workload.construct(import_api())


def tail(values: list) -> tuple[float, float]:
    """Highest percentile with at least ten values beyond it: (value, pct)."""
    xs = sorted(values)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * (k + 1) / len(xs)


def environment() -> dict:
    """What a result depends on besides the inputs.  The commit is read only
    when the checkout is a git repository; the source digest always is."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "operadlab").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Tally:
    """Operations attempted and failed.  An operation fails when it raised
    or its check found errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def add(self, table_errors: list, query_errors: list) -> None:
        for errors in [table_errors, *query_errors]:
            self.attempted += 1
            if errors:
                self.failed += 1
                self.messages.extend(errors[:3])


def pass_rng(seed: int, index: int) -> random.Random:
    """The generator of pass ``index``: every pass of a run gets its own
    inputs, and the same seed gives the same inputs."""
    return random.Random(f"{seed}:{index}")


def run_passes(workload, seed, indices, tally, cal, tracer=None):
    """Runs one pass per index and checks every record.  Each pass starts
    from a fresh import of operadlab, so no module-level state survives
    from one pass to the next, as none survives between CLI commands.
    Under a tracer, the wrappers are installed on that import and removed
    after the pass.  Returns one timing dict per pass ({"cpu", "tables",
    "queries"} in CPU seconds, "wall" in wall seconds, and the pass's
    "clock"), the digests of the passes' inputs, and the first pass's
    records."""
    timings, digests, first = [], [], None
    for index in indices:
        purge_operadlab()
        api = import_api()
        inputs = workload.make_inputs(api, pass_rng(seed, index))
        digests.append(inputs_digest(inputs))
        clock = Clock(cal, tracer)
        if tracer is not None:
            tracer.install()
        try:
            table, queries = workload.run_pass(api, inputs, clock)
        finally:
            if tracer is not None:
                tracer.restore()
        got = clock.samples
        timings.append({"cpu": sum(got["table"]) + sum(got["query"]),
                        "wall": sum(clock.wall["table"]) + sum(clock.wall["query"]),
                        "tables": got["table"], "queries": got["query"], "clock": clock})
        tally.add(*workload.check(table, queries))
        if first is None:
            first = (table, queries)
    return timings, digests, first


def negative_controls(workload, table, queries) -> dict:
    """Every corrupted copy must fail its check, through the same tally."""
    out = {}
    for name, bad_table, bad_queries in workload.controls(table, queries):
        tally = Tally()
        tally.add(*workload.check(bad_table, bad_queries))
        out[name] = tally.failed > 0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workload = WORKLOADS[args.workload]
    load_before = os.getloadavg()
    try:
        import_api()
    except (MissingProgram, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment()
    tally = Tally()
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env}
    problems = []

    leftover = tracing.wrapped_names()
    if leftover:
        problems.append(f"wrappers installed before untraced timing: {leftover}")
    passes = 1 if args.trace else workload.passes(args.seconds)
    # the traced run reports no end-to-end time, so it needs no calibration
    cal = None if args.trace else Calibration()
    setup = Clock(cal)
    if cal is not None:
        cal.start()
    try:
        measure_setup(workload, setup)
        timings, digests, (table, queries) = run_passes(
            workload, args.seed, range(passes), tally, cal)
    finally:
        if cal is not None:
            cal.stop()
    cpus = [t["cpu"] for t in timings]
    walls = [t["wall"] for t in timings]
    report.update(inputs_sha256=digests, pass_cpu_s=cpus, pass_wall_s=walls,
                  pass_table_s=[sum(t["tables"]) for t in timings],
                  pass_query_s=[sum(t["queries"]) for t in timings],
                  wall_over_cpu=sum(walls) / sum(cpus),
                  warnings=[f"pass {k} took {c / cpus[0]:.2f} of the first pass"
                            for k, c in enumerate(cpus) if c < WARM_PASS_RATIO * cpus[0]])
    if tally.failed:
        controls = {}
        problems.append("negative controls not run: an operation failed")
    else:
        controls = negative_controls(workload, table, queries)
        problems += [f"negative control not detected: {n}"
                     for n, ok in controls.items() if not ok]

    if args.trace:
        # the traced pass repeats the untraced pass's inputs
        tr = tracing.Tracer()
        traced_timings, _, _ = run_passes(workload, args.seed, [0], tally, None, tr)
        metrics = tr.metrics()
        untraced_s, traced_s = timings[0]["cpu"], traced_timings[0]["cpu"]
        metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
        report["traced"] = {"ops_s": tr.ops_s, "self_sum_s": tr.self_sum(),
                           "untraced_cpu_s": untraced_s, "traced_cpu_s": traced_s,
                           "untraced_wall_s": timings[0]["wall"],
                           "traced_wall_s": traced_timings[0]["wall"],
                           "calls_outside_ops": tr.outside_calls,
                           "missing_targets": tr.missing, "hook_errors": tr.hook_errors}
        share = metrics["bench.unwrapped.share"][0]
        if share > MAX_UNWRAPPED_SHARE:
            problems.append(f"wrapped layers cover only {1 - share:.3f} of the traced "
                            f"operation time (at least {1 - MAX_UNWRAPPED_SHARE} needed)")
    else:
        # ops: median over passes; table and query quantiles: over all
        # calls of the run, a number fixed by the workload and --seconds;
        # every time scaled to the reference machine (bench/calibrate.py)
        def summary(ops, setups, tables, queries):
            tail_s, _ = tail(queries)
            return {"ops_s": statistics.median(ops),
                    "setup_s": statistics.median(setups),
                    "table_s": statistics.median(tables),
                    "query_p50_ms": 1e3 * statistics.median(queries),
                    "query_tail_ms": 1e3 * tail_s}

        clocks = [t["clock"] for t in timings]
        scaled = summary(
            [sum(c.scaled("table")) + sum(c.scaled("query")) for c in clocks],
            setup.scaled("setup"),
            [x for c in clocks for x in c.scaled("table")],
            [x for c in clocks for x in c.scaled("query")])
        queries_s = [q for t in timings for q in t["queries"]]
        cpu = summary(cpus, setup.samples["setup"],
                      [x for t in timings for x in t["tables"]], queries_s)
        metrics = {name: (value, "ms" if name.endswith("_ms") else "s")
                   for name, value in scaled.items()}
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        report.update(passes=passes, tables=sum(len(t["tables"]) for t in timings),
                      queries=len(queries_s), query_tail_percentile=tail(queries_s)[1],
                      cpu=cpu, speed_factor=scaled["ops_s"] / cpu["ops_s"],
                      calibration_s={"timings": len(cal.cpu),
                                     "median": statistics.median(cal.cpu),
                                     "min": min(cal.cpu), "max": max(cal.cpu),
                                     "total": sum(cal.cpu)})

    report.update(
        attempted=tally.attempted, failed=tally.failed,
        fail_ratio=tally.failed / tally.attempted, failures=tally.messages[:20],
        negative_controls=controls, problems=problems,
        loadavg_before=load_before, loadavg_after=os.getloadavg())
    print(json.dumps({"report": report}, default=str))
    for msg in problems + tally.messages[:20]:
        print(f"benchmark: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
