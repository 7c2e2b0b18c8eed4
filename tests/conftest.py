import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sandpiles import btw, build_lattice


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def path1():
    return build_lattice([1])


@pytest.fixture
def path2():
    return build_lattice([2])


@pytest.fixture
def path3():
    return build_lattice([3])


@pytest.fixture
def grid22():
    return build_lattice([2, 2])


@pytest.fixture
def grid33():
    return build_lattice([3, 3])


@pytest.fixture
def each_block(monkeypatch):
    """runs(n_sites, run): run() at the default replica block, at one row
    per block and at three-row blocks (a ragged last block), as a list."""
    def runs(n_sites, run):
        outs = [run()]
        for cells in (n_sites, 3 * n_sites):
            monkeypatch.setattr(btw, "BLOCK_CELLS", cells)
            outs.append(run())
        return outs
    return runs
