"""The benchmark's per-layer metrics name functions that still exist.

``bench/tracer.py`` wraps each entry of its ``TARGETS`` table; an entry
that no longer resolves reads zero in every traced run.  The bench's own
tests sit outside this suite, so a rename in ``src/`` is caught here.
"""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name,target", sorted(_targets().items()))
def test_target_is_a_function_defined_in_operadlab(name, target):
    path, attr = target
    module_name, _, cls_name = path.partition(".")
    owner = importlib.import_module(f"operadlab.{module_name}")
    if cls_name:
        owner = vars(owner)[cls_name]
        assert inspect.isclass(owner)
    # a method must be defined on the class itself, not inherited
    fn = vars(owner).get(attr)
    assert inspect.isfunction(fn), f"{name}: {path}.{attr} is not a function"
    assert fn.__module__.startswith("operadlab.")
