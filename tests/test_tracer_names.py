"""The benchmark's traced run finds every library name it wraps.

bench/tracer.py looks up functions by (module, name) and reports a name it
cannot find as unmeasured, which turns the layer's metric into null. This
test loads the tracer from its file (without running or changing it) and
checks each name against the package, so a rename or deletion in the
package shows here rather than in a traced benchmark run.
"""

import importlib
import types
from functools import cached_property
from pathlib import Path

import pytest

from spindles import SpaceInstance

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    # Compiled from source, so no bytecode cache is written next to it.
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


TRACER = load_tracer()
WRAPPED = TRACER.SPAN_LAYERS + TRACER.COUNT_LAYERS + (("linalg", "RationalAngle"),)


@pytest.mark.parametrize("module, name", WRAPPED, ids=lambda x: x)
def test_wrapped_name_exists(module, name):
    mod = importlib.import_module(f"{TRACER.PACKAGE}.{module}")
    assert callable(getattr(mod, name, None)), f"{module}.{name} is gone"


def test_verify_stages_are_spans():
    spans = {f"{module}.{name}" for module, name in TRACER.SPAN_LAYERS}
    assert set(TRACER.VERIFY_STAGES) <= spans


@pytest.mark.parametrize("attr", ["basis_tensor", "basis_vecs"])
def test_basis_is_cached_on_the_instance(attr):
    # The tracer measures the basis from the instance dict, where a
    # cached_property stores its value.
    assert isinstance(vars(SpaceInstance)[attr], cached_property)
