"""The traced benchmark (perfbench/tracing.py) wraps package entry points
by module and attribute name. These checks fail when a refactor renames
or rebinds one of them, instead of the traced run failing later. They
only read perfbench/."""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _ in module.LAYERS]


@pytest.mark.parametrize("module, attribute", load_layers(),
                         ids=lambda v: v)
def test_traced_layer_resolves(module, attribute):
    namespace = importlib.import_module(f"sandpiles.{module}")
    target = functools.reduce(getattr, attribute.split("."), namespace)
    assert callable(target)


def test_experiments_binds_the_scalar_kernel_by_name():
    from sandpiles import cbtw, experiments
    assert experiments._add_inplace is cbtw._add_inplace
