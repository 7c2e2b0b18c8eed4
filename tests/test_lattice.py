from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandpiles import (CapacityError, DomainError, GeometryError, Lattice, TopplingMatrix,
                       btw, build_lattice, determinant_exact, enumerate_recurrent,
                       toppling_matrix)
from oracles import cofactor_determinant


def test_box_sites_row_major():
    lat = build_lattice([2, 3])
    assert lat.sites == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
    assert lat.d == 2
    assert lat.dims == (2, 3)
    assert lat.n_sites == 6


def test_path_adjacency_and_boundary():
    lat = build_lattice([3])
    assert [list(a) for a in lat.adjacency] == [[1], [0, 2], [1]]
    assert list(lat.boundary_degree) == [1, 0, 1]
    assert lat.threshold == 2


def test_grid_adjacency_symmetric_and_degree_complement():
    lat = build_lattice([2, 2])
    for i in range(4):
        for j in lat.adjacency[i]:
            assert i in lat.adjacency[j]
        assert len(lat.adjacency[i]) + lat.boundary_degree[i] == 2 * lat.d


def test_cube_corner_has_three_neighbours():
    lat = build_lattice([2, 2, 2])
    assert lat.n_sites == 8
    assert all(len(lat.adjacency[i]) == 3 for i in range(8))
    assert all(lat.boundary_degree[i] == 3 for i in range(8))


def test_single_site():
    lat = build_lattice([1])
    assert lat.adjacency[0] == ()
    assert lat.boundary_degree[0] == 2


@given(dims=st.lists(st.integers(1, 4), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_adjacency_symmetry_property(dims):
    lat = build_lattice(dims)
    for i in range(lat.n_sites):
        assert i not in lat.adjacency[i]
        for j in range(lat.n_sites):
            assert (j in lat.adjacency[i]) == (i in lat.adjacency[j])
        assert len(lat.adjacency[i]) + lat.boundary_degree[i] == 2 * lat.d


def test_lattice_from_sites_keeps_order():
    lat = Lattice(2, [(0, 0), (1, 0), (1, 1)])
    assert lat.sites == ((0, 0), (1, 0), (1, 1))
    assert lat.dims is None
    assert list(lat.adjacency[1]) == [0, 2]


def test_lattice_rejects_dims_unless_sites_are_that_box_in_row_major_order():
    box = list(build_lattice([2, 3]).sites)
    assert Lattice(2, box, dims=(2, 3)).dims == (2, 3)
    for sites in (box[:4] + [box[5], box[4]], box[:5], box + [(2, 0)]):
        with pytest.raises(GeometryError):
            Lattice(2, sites, dims=(2, 3))
    with pytest.raises(GeometryError):
        Lattice(2, box, dims=(3, 2))


def test_lattice_tables_are_linear_in_sites():
    lat = build_lattice([128, 128])
    for value in vars(lat).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                assert item.size <= lat.n_sites


@pytest.mark.parametrize("lat", [
    build_lattice([3, 4]),
    build_lattice([2, 2, 2]),
    Lattice(2, [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2), (5, 5)]),
    Lattice(2, [(0, 0), (1, 1), (2, 0)]),
], ids=["box", "cube", "irregular-with-island", "no-bonds"])
def test_neighbour_table_pads_with_the_sink(lat):
    assert "neighbour_table" not in vars(lat)
    table = lat.neighbour_table
    rows = max(len(ys) for ys in lat.adjacency)
    assert table.shape == (rows, lat.n_sites)
    for i, ys in enumerate(lat.adjacency):
        assert table[:, i].tolist() == list(ys) + [lat.n_sites] * (rows - len(ys))
    assert lat.neighbour_table is table
    assert not table.flags.writeable


@pytest.mark.parametrize("lat", [
    build_lattice([2]),
    build_lattice([2, 3]),
    Lattice(2, [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)]),
], ids=["path2", "box2x3", "irregular5"])
def test_recurrent_is_scanned_once_on_first_read(monkeypatch, lat):
    assert "recurrent" not in vars(lat)
    scans = []
    scan = btw.enumerate_recurrent
    monkeypatch.setattr(btw, "enumerate_recurrent", lambda l: scans.append(l) or scan(l))
    table = lat.recurrent
    assert table.dtype == np.int64 and np.array_equal(table, scan(lat))
    assert lat.recurrent is table
    assert scans == [lat]
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1


def test_recurrent_past_the_cap_raises_on_every_read():
    lat = build_lattice([4, 4])
    for _ in range(2):
        with pytest.raises(CapacityError):
            lat.recurrent
        assert "recurrent" not in vars(lat)


def test_enumerate_recurrent_keeps_nothing_on_the_lattice():
    lat = build_lattice([2, 2])
    before = set(vars(lat))
    enumerate_recurrent(lat)
    assert set(vars(lat)) == before and "recurrent" not in before


def test_geometry_errors():
    with pytest.raises(GeometryError):
        build_lattice([])
    with pytest.raises(GeometryError):
        build_lattice([2, 0])
    with pytest.raises(GeometryError):
        Lattice(1, [(0,), (0,)])
    with pytest.raises(GeometryError):
        Lattice(2, [(0, 0, 0)])
    with pytest.raises(GeometryError):
        Lattice(1, [])


@pytest.mark.parametrize("build", [
    lambda: build_lattice([2.5]),
    lambda: build_lattice([True, 2]),
    lambda: build_lattice(np.array([2.9, 3.1])),
    lambda: build_lattice("23"),
    lambda: Lattice(2, [(0.5, 0), (1, 0)]),
    lambda: Lattice(2, [(0, 0), (np.float64(1), 0)]),
    lambda: Lattice(1, [(False,), (1,)]),
    lambda: Lattice(2.0, [(0, 0), (0, 1)]),
    lambda: Lattice(np.True_, [(0,)]),
    lambda: Lattice(2, [(0, 0), (0, 1)], dims=(1, 2.0)),
], ids=["side-2.5", "side-bool", "sides-float-array", "sides-str", "coordinate-0.5",
        "coordinate-float64", "coordinate-bool", "d-2.0", "d-numpy-bool", "dims-float"])
def test_non_integer_geometry_is_rejected_not_truncated(build):
    with pytest.raises(GeometryError, match="must be an integer"):
        build()


def test_numpy_integer_geometry_is_accepted():
    lat = build_lattice(np.array([2, 3]))
    assert lat.dims == (2, 3) and type(lat.dims[0]) is int
    lat = Lattice(np.int64(2), [np.array([0, 1]), (np.int32(1), 1)])
    assert lat.d == 2 and lat.sites == ((0, 1), (1, 1))
    assert all(type(c) is int for p in lat.sites for c in p)


def test_toppling_matrix_entries():
    lat = build_lattice([2])
    tm = toppling_matrix(lat, "integer")
    assert tm.entries == [[Fraction(2), Fraction(-1)], [Fraction(-1), Fraction(2)]]
    tc = toppling_matrix(lat, "continuous")
    assert tc.entries == [[Fraction(1), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(1)]]
    with pytest.raises(DomainError):
        toppling_matrix(lat, "other")


def test_integer_matrix_is_2d_times_continuous():
    for dims in ([3], [2, 2], [2, 1, 2]):
        lat = build_lattice(dims)
        ti = toppling_matrix(lat, "integer")
        tc = toppling_matrix(lat, "continuous")
        for ri, rc in zip(ti.entries, tc.entries):
            assert ri == [2 * lat.d * v for v in rc]


# Determinants frozen from the independent cofactor oracle (and the path
# closed form n+1): see tests/oracles.py.

def test_path_determinants_frozen():
    for n in range(1, 9):
        lat = build_lattice([n])
        det = determinant_exact(toppling_matrix(lat, "integer"))
        assert det == n + 1


def test_grid_determinants_frozen():
    assert determinant_exact(toppling_matrix(build_lattice([2, 2]), "integer")) == 192
    assert determinant_exact(toppling_matrix(build_lattice([2, 3]), "integer")) == 2415


def test_continuous_determinant_frozen():
    lat = build_lattice([2, 2])
    assert determinant_exact(toppling_matrix(lat, "continuous")) == Fraction(3, 4)
    lat = build_lattice([2])
    assert determinant_exact(toppling_matrix(lat, "continuous")) == Fraction(3, 4)


def test_determinant_matches_cofactor_oracle():
    shapes = ([1], [4], [7], [2, 2], [2, 3], [2, 2, 2])
    for dims in shapes:
        lat = build_lattice(dims)
        for variant in ("integer", "continuous"):
            tm = toppling_matrix(lat, variant)
            assert determinant_exact(tm) == cofactor_determinant(tm.entries)
    irregular = Lattice(2, [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)])
    for variant in ("integer", "continuous"):
        tm = toppling_matrix(irregular, variant)
        assert determinant_exact(tm) == cofactor_determinant(tm.entries)


@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=2))
@settings(max_examples=25, deadline=None)
def test_volume_identity_property(dims):
    lat = build_lattice(dims)
    det_int = determinant_exact(toppling_matrix(lat, "integer"))
    det_cont = determinant_exact(toppling_matrix(lat, "continuous"))
    assert det_int == det_cont * Fraction(2 * lat.d) ** lat.n_sites


def test_singular_matrix_determinant_zero():
    tm = TopplingMatrix(variant="integer", d=1,
                        entries=[[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert determinant_exact(tm) == 0


def test_determinant_with_zero_pivot_row_swap():
    tm = TopplingMatrix(variant="integer", d=1,
                        entries=[[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    assert determinant_exact(tm) == -1


@pytest.mark.parametrize("entries", [
    [[1, 2, 3], [4, 5, 6]],
    [[1], [2]],
    [[1, 2], [3]],
    [[]],
], ids=["2x3", "2x1", "ragged", "one-empty-row"])
def test_determinant_rejects_non_square_entries(entries):
    with pytest.raises(DomainError):
        determinant_exact(TopplingMatrix(variant="integer", d=1, entries=entries))


def test_determinant_of_empty_matrix_is_one():
    assert determinant_exact(TopplingMatrix(variant="integer", d=1, entries=[])) == 1


# Mostly zeros, so singular matrices, zero leading pivots and row swaps in
# mid-elimination are all common.
_sparse_value = st.one_of(st.just(0), st.just(0), st.integers(-4, 4),
                          st.fractions(min_value=-3, max_value=3, max_denominator=6))


@given(data=st.data(), n=st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_determinant_matches_cofactor_oracle_on_sparse_matrices(data, n):
    entries = data.draw(st.lists(st.lists(_sparse_value, min_size=n, max_size=n),
                                 min_size=n, max_size=n))
    tm = TopplingMatrix(variant="integer", d=1, entries=entries)
    assert determinant_exact(tm) == cofactor_determinant(entries)
