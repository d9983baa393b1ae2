"""The benchmark's framed-e2 and witness-pipeline checks, run on one pass.

``bench/workloads.py`` checks every table and query against answers
derived without operadlab.  A wrong page, obstruction class or framed
entry would otherwise first show up as a failed benchmark run; here one
seeded pass of each workload must pass its check, and every corrupted
copy the workload offers as a negative control must fail it.
"""

import contextlib
import importlib.util
import pathlib
import random
import sys
import types

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
LAYERS = ("linalg", "complexes", "operads", "hopf", "instances", "cosimplicial",
          "gerstenhaber", "obstruction", "audit")


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCH))  # workloads.py imports its reference by name
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


class _Clock:
    """Stands in for the bench clock: nothing is timed."""

    def measure(self, name):
        return contextlib.nullcontext()


@pytest.mark.parametrize("name", ["framed-e2", "witness-pipeline"])
def test_one_pass_passes_its_check_and_every_control_fails(name):
    w = _workloads().WORKLOADS[name]
    api = types.SimpleNamespace(
        **{layer: importlib.import_module(f"operadlab.{layer}") for layer in LAYERS})
    inputs = w.make_inputs(api, random.Random("1:0"))
    table, queries = w.run_pass(api, inputs, _Clock())
    table_errors, query_errors = w.check(table, queries)
    assert table_errors == [] and all(e == [] for e in query_errors)
    assert len(query_errors) == len(inputs)
    controls = w.controls(table, queries)
    assert controls
    for control, bad_table, bad_queries in controls:
        bad_table_errors, bad_query_errors = w.check(bad_table, bad_queries)
        assert bad_table_errors or any(bad_query_errors), control
