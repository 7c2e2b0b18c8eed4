from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandpiles import (GeometryError, TopplingMatrix, build_lattice,
                       determinant_exact, lattice_from_sites, toppling_matrix)
from oracles import cofactor_determinant


def test_box_sites_row_major():
    lat = build_lattice([2, 3])
    assert lat.sites == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
    assert lat.d == 2
    assert lat.dims == (2, 3)
    assert len(lat) == 6


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
        assert lat.degree(i) + lat.boundary_degree[i] == 2 * lat.d
    assert lat.adjacency_matrix.sum() == sum(lat.degree(i) for i in range(4))
    assert (lat.adjacency_matrix == lat.adjacency_matrix.T).all()


def test_cube_corner_has_three_neighbours():
    lat = build_lattice([2, 2, 2])
    assert lat.n_sites == 8
    assert all(lat.degree(i) == 3 for i in range(8))
    assert all(lat.boundary_degree[i] == 3 for i in range(8))


def test_single_site():
    lat = build_lattice([1])
    assert lat.adjacency[0].size == 0
    assert lat.boundary_degree[0] == 2


@given(dims=st.lists(st.integers(1, 4), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_adjacency_symmetry_property(dims):
    lat = build_lattice(dims)
    amat = lat.adjacency_matrix
    assert (amat == amat.T).all()
    assert (np.diag(amat) == 0).all()
    for i in range(lat.n_sites):
        assert lat.degree(i) + lat.boundary_degree[i] == 2 * lat.d


def test_lattice_from_sites_keeps_order():
    lat = lattice_from_sites(2, [(0, 0), (1, 0), (1, 1)])
    assert lat.sites == ((0, 0), (1, 0), (1, 1))
    assert lat.dims is None
    assert list(lat.adjacency[1]) == [0, 2]


def test_grid_layout():
    box = build_lattice([2, 3])
    assert box.grid_shape == (2, 3)
    assert box.cells is None
    lat = lattice_from_sites(2, [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)])
    assert lat.grid_shape == (3, 3)
    assert lat.cells.tolist() == [0, 1, 4, 7, 8]
    shifted = lattice_from_sites(1, [(5,), (3,)])
    assert shifted.grid_shape == (3,)
    assert shifted.cells.tolist() == [2, 0]


def test_lattice_tables_are_linear_in_sites():
    lat = build_lattice([128, 128])
    for value in vars(lat).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                assert item.size <= lat.n_sites
    assert "adjacency_matrix" not in vars(lat)


@pytest.mark.parametrize("lat", [
    build_lattice([3, 4]),
    lattice_from_sites(2, [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)]),
], ids=["box", "irregular"])
def test_adjacency_matrix_matches_adjacency(lat):
    amat = lat.adjacency_matrix
    for i in range(lat.n_sites):
        assert np.flatnonzero(amat[i]).tolist() == list(lat.adjacency[i])
        assert list(lat.neighbours[i]) == list(lat.adjacency[i])
    assert lat.adjacency_matrix is amat
    assert not amat.flags.writeable


@pytest.mark.parametrize("lat", [
    build_lattice([3, 4]),
    build_lattice([2, 2, 2]),
    lattice_from_sites(2, [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2), (5, 5)]),
], ids=["box", "cube", "irregular-with-island"])
def test_neighbour_table_pads_with_the_sink(lat):
    assert "neighbour_table" not in vars(lat)
    table = lat.neighbour_table
    assert table.shape == (lat.threshold, lat.n_sites)
    for i, ys in enumerate(lat.neighbours):
        assert table[:, i].tolist() == list(ys) + [lat.n_sites] * (lat.threshold - len(ys))
    assert lat.neighbour_table is table
    assert not table.flags.writeable


def test_geometry_errors():
    with pytest.raises(GeometryError):
        build_lattice([])
    with pytest.raises(GeometryError):
        build_lattice([2, 0])
    with pytest.raises(GeometryError):
        lattice_from_sites(1, [(0,), (0,)])
    with pytest.raises(GeometryError):
        lattice_from_sites(2, [(0, 0, 0)])
    with pytest.raises(GeometryError):
        lattice_from_sites(1, [])


def test_toppling_matrix_entries():
    lat = build_lattice([2])
    tm = toppling_matrix(lat, "integer")
    assert tm.entries == [[Fraction(2), Fraction(-1)], [Fraction(-1), Fraction(2)]]
    tc = toppling_matrix(lat, "continuous")
    assert tc.entries == [[Fraction(1), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(1)]]
    with pytest.raises(ValueError):
        toppling_matrix(lat, "other")


def test_integer_matrix_is_2d_times_continuous():
    for dims in ([3], [2, 2], [2, 1, 2]):
        lat = build_lattice(dims)
        ti = toppling_matrix(lat, "integer")
        tc = toppling_matrix(lat, "continuous")
        for ri, rc in zip(ti.entries, tc.entries):
            assert ri == [2 * lat.d * v for v in rc]


def test_as_array_matches_entries():
    lat = build_lattice([2])
    arr = toppling_matrix(lat, "continuous").as_array()
    assert arr.dtype == np.float64
    assert np.allclose(arr, [[1.0, -0.5], [-0.5, 1.0]])


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
    irregular = lattice_from_sites(2, [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)])
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
