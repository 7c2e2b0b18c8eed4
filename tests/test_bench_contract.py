"""The traced benchmark (perfbench/tracing.py) wraps package entry points
by module and attribute name. These checks fail when a refactor renames
or rebinds one of them, instead of the traced run failing later. They
only read perfbench/."""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_layers():
    return [(mod, attr) for mod, attr, _ in load_perfbench("tracing").LAYERS]


@pytest.mark.parametrize("module, attribute", load_layers(),
                         ids=lambda v: v)
def test_traced_layer_resolves(module, attribute):
    namespace = importlib.import_module(f"sandpiles.{module}")
    target = functools.reduce(getattr, attribute.split("."), namespace)
    assert callable(target)


def test_relaxation_reference_uses_neither_checked_kernel(monkeypatch):
    # large_box checks stabilize_many on a box against a btw_stabilize
    # reference and btw_add drops against stabilize_from; on a box the
    # reference must run neither, nor the box slices (`_relax_block`, which
    # builds them from `_shifts`).
    import numpy as np
    from sandpiles import btw, lattice

    def forbidden(*args, **kwargs):
        raise AssertionError("btw_stabilize called a kernel it is checked against")

    for name in ("stabilize_many", "stabilize_from", "_relax_block", "_shifts"):
        monkeypatch.setattr(btw, name, forbidden)
    lat = lattice.build_lattice([8, 8])
    stable, od = btw.btw_stabilize(lat, np.full(lat.n_sites, 6, dtype=np.int64))
    assert (stable < lat.threshold).all() and od.sum() > 0


def test_drop_reference_matches_an_independent_oracle():
    # large_box checks btw_add drops against stabilize_from, the kernel
    # btw_add itself runs; here stabilize_from meets the stack-order oracle.
    import numpy as np
    import oracles
    from sandpiles import btw, lattice

    lat = lattice.build_lattice([32, 32])
    h = btw.btw_stabilize(lat, np.full(lat.n_sites, 4, dtype=np.int64))[0]
    topplings = 0
    for x in np.random.default_rng(1201).integers(lat.n_sites, size=50).tolist():
        h[x] += 1
        ref, od_ref = oracles.lifo_stabilize(lat, h)
        od = btw.stabilize_from(lat, h, (x,))
        assert np.array_equal(h, ref)
        assert np.array_equal(od, od_ref)
        topplings += int(od.sum())
    assert topplings > 0


def test_every_workload_runs_one_checked_round(monkeypatch, tmp_path):
    # Every call the benchmark makes into the package must still resolve
    # and pass the workload's own checks.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name, workload in load_perfbench("workloads").WORKLOADS.items():
        out_dir = tmp_path / name
        out_dir.mkdir()
        state = workload.setup(11, out_dir)
        assert workload.check(state, workload.run_round(state)) == [], name
