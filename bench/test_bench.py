"""Tests of the benchmark itself: seeded inputs, checks and negative
controls, and the tracer's install/restore hygiene.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import random
import signal
import sys
import time

import pytest

import run
import tracer as tracing
import workloads
from calibrate import EVERY_S, REFERENCE_S, Calibration


def _api():
    """The operadlab modules currently imported; run_passes replaces them."""
    return run.import_api()


class SmallSphere(workloads.SphereTable):
    N_MAX, Q_MAX = 6, 12  # every position of this window is reliable


def _members():
    """Every module attribute and class member of operadlab, by identity."""
    out = {}
    for mod in tracing.operadlab_modules():
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[(mod.__name__, name, attr)] = member
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeded_inputs_repeat_and_vary(name):
    w, api = workloads.WORKLOADS[name], _api()
    a, b, c, d = (w.make_inputs(api, run.pass_rng(s, k))
                  for s, k in ((1, 0), (1, 0), (2, 0), (1, 1)))
    assert workloads.inputs_digest(a) == workloads.inputs_digest(b)
    assert repr(a) == repr(b)
    # another seed, or another pass of the same run, gives other inputs
    assert workloads.inputs_digest(a) != workloads.inputs_digest(c)
    assert workloads.inputs_digest(a) != workloads.inputs_digest(d)
    assert len(a) == len(c) == len(d)


def test_sphere_queries_cover_the_window_pairs_once_with_scales():
    w = workloads.WORKLOADS["sphere-table"]
    inputs = w.make_inputs(_api(), random.Random(7))
    pairs = [(a, b) for a, _, b, _ in inputs]
    assert len(pairs) == len(set(pairs)) == 27
    assert all(ka != 0 and kb != 0 for _, ka, _, kb in inputs)


def test_witness_perturbations_are_cycles():
    w, api = workloads.WORKLOADS["witness-pipeline"], _api()
    op = w.construct(api).operad
    inputs = w.make_inputs(api, random.Random(3))
    assert sorted(k for k, _ in inputs) == ["h"] * 20 + ["xi"] * 20
    for _, z in inputs:
        assert not z.is_zero()
        assert op.differential(z).is_zero()


def test_checks_pass_and_controls_fail_on_a_small_window():
    w, api = SmallSphere(), _api()
    clock = run.Clock(Calibration())
    inputs = w.make_inputs(api, random.Random(5))
    table, queries = w.run_pass(api, inputs, clock)
    table_errors, query_errors = w.check(table, queries)
    assert table_errors == [] and all(e == [] for e in query_errors)
    assert len(clock.samples["table"]) == 1
    assert len(clock.samples["query"]) == len(inputs)
    controls = run.negative_controls(w, table, queries)
    assert controls and all(controls.values())


def test_framed_bracket_checks_need_the_right_answer():
    w, api = workloads.WORKLOADS["framed-e2"], _api()
    op = w.construct(api).operad
    recs = []
    for x, cx, y, cy in w.make_inputs(api, random.Random(4)):
        res = api.gerstenhaber.bracket(
            op, api.operads.OpElement.make(x[0], cx), api.operads.OpElement.make(y[0], cy))
        recs.append({"x": x, "cx": cx, "y": y, "cy": cy, "terms": dict(res.coeffs)})
    assert all(e == [] for e in workloads.ref.check_framed_queries(recs, w.D))
    # antisymmetric wrong answers: every bracket zero, or every one doubled
    for bad in ([{**r, "terms": {}} for r in recs],
                [{**r, "terms": {l: 2 * c for l, c in r["terms"].items()}} for r in recs]):
        assert any(workloads.ref.check_framed_queries(bad, w.D))


def test_each_pass_starts_from_a_fresh_import():
    seen = []

    class Recording(SmallSphere):
        def run_pass(self, api, inputs, clock):
            seen.append((api.linalg, workloads.inputs_digest(inputs)))
            return super().run_pass(api, inputs, clock)

    tally = run.Tally()
    timings, digests, _ = run.run_passes(Recording(), 5, range(2), tally, Calibration())
    assert tally.failed == 0 and len(timings) == 2
    (mod0, dig0), (mod1, dig1) = seen
    assert mod0 is not mod1
    assert dig0 != dig1 and digests == [dig0, dig1]


def test_clock_charges_cpu_time_not_waiting():
    clock = run.Clock(Calibration())
    with clock.measure("query"):
        time.sleep(0.05)
    assert clock.wall["query"][0] >= 0.05
    assert clock.samples["query"][0] < 0.02


def test_calibration_times_inside_calls_and_scales_to_the_reference():
    cal = Calibration()
    clock = run.Clock(cal)
    handler = signal.getsignal(signal.SIGPROF)
    cal.start()
    try:
        with clock.measure("table"):
            end = time.thread_time() + 3 * EVERY_S
            while time.thread_time() < end:
                pass
    finally:
        cal.stop()
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) == handler
    (t0, t1), = clock.spans["table"]
    inside, _ = cal.inside(t0, t1)
    assert len(cal.cpu) >= 4 and inside > 0
    assert clock.samples["table"][0] == pytest.approx(t1 - t0 - inside)
    # a machine on which the kernel takes twice as long halves every time
    cal.cpu = [2 * REFERENCE_S] * len(cal.cpu)
    assert clock.scaled("table")[0] == pytest.approx(clock.samples["table"][0] / 2)


def test_a_raising_operation_counts_as_failed(monkeypatch):
    w = SmallSphere()
    inputs = w.make_inputs(_api(), run.pass_rng(5, 0))
    real_import = run.import_api

    def boom(*args, **kwargs):
        raise ValueError("injected")

    def broken_import():
        api = real_import()
        monkeypatch.setattr(api.gerstenhaber, "class_is_zero", boom)
        return api

    monkeypatch.setattr(run, "import_api", broken_import)
    tally = run.Tally()
    run.run_passes(w, 5, [0], tally, Calibration())
    assert tally.attempted == len(inputs) + 1
    assert tally.failed == len(inputs)


def test_tracer_restores_every_original():
    before = _members()
    assert tracing.wrapped_names() == []
    tr = tracing.Tracer()
    tr.install()
    try:
        assert tr.missing == []
        wrapped = tracing.wrapped_names()
        assert "operadlab.linalg.row_reduce" in wrapped
        # names imported by other modules are patched there too
        assert "operadlab.complexes.kernel_basis" in wrapped
        assert "operadlab.obstruction.zigzag_dr" in wrapped
        api = _api()
        M = api.instances.sphere_multiplicative(5, 4, 8)
        with tr.op():
            api.cosimplicial.hochschild_homology(M, 4, 8)
    finally:
        tr.restore()
    assert tracing.wrapped_names() == []
    after = _members()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tr.hook_errors == 0
    m = tr.metrics()
    assert m["linalg.row_reduce.calls"][0] > 0
    assert m["cosimplicial.is_normal_label.calls"][0] > 0
    # holds by construction; coverage is what can fail
    assert tr.self_sum() == pytest.approx(tr.ops_s, rel=1e-9)
    assert m["bench.unwrapped.share"][0] < run.MAX_UNWRAPPED_SHARE


def test_missing_program_exits_without_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.HERE / "no-such-src")
    saved = {k: v for k, v in sys.modules.items() if k.startswith("operadlab")}
    try:
        code = run.main(["--workload", "framed-e2", "--seed", "1", "--seconds", "1"])
    finally:
        sys.modules.update(saved)
    assert code == 2
    assert capsys.readouterr().out == ""
