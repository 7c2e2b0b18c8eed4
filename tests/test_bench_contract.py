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


def test_relaxation_reference_uses_neither_checked_kernel(monkeypatch):
    # large_box checks stabilize_many against a btw_stabilize reference and
    # btw_add drops against stabilize_from; the reference must run neither.
    import numpy as np
    from sandpiles import btw, lattice

    def forbidden(*args, **kwargs):
        raise AssertionError("btw_stabilize called a kernel it is checked against")

    monkeypatch.setattr(btw, "stabilize_many", forbidden)
    monkeypatch.setattr(btw, "stabilize_from", forbidden)
    lat = lattice.build_lattice([8, 8])
    stable, od = btw.btw_stabilize(lat, np.full(lat.n_sites, 6, dtype=np.int64))
    assert (stable < lat.threshold).all() and od.sum() > 0
