import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandpiles import (CapacityError, DomainError, addition_order, btw_add,
                       btw_inverse_add, btw_stabilize, btw_topple,
                       build_lattice, enumerate_recurrent,
                       is_allowed_bruteforce, is_recurrent_burning, is_stable,
                       Lattice, determinant_exact, max_stable, stabilize_from,
                       stabilize_many, toppling_matrix)
from sandpiles import btw
from sandpiles.cbtw import CbtwConfig, cbtw_add, cbtw_inverse_add
import oracles
from oracles import lifo_stabilize, random_order_stabilize, stable_configurations


def total_outflow(lat, odometer):
    return int(np.dot(odometer, lat.boundary_degree))


def fifo_stabilize(lat, heights):
    """The FIFO reference, `stabilize_from` seeded at every site: off a box
    `stabilize_many` and `btw_stabilize` share `_table_rounds`."""
    h = np.array(heights, dtype=np.int64)
    return h, stabilize_from(lat, h, range(lat.n_sites))


def test_topple_moves_grains(path3):
    new, legal = btw_topple(path3, [2, 0, 0], 0)
    assert legal
    assert list(new) == [0, 1, 0]


def test_topple_illegal_without_force(path3):
    new, legal = btw_topple(path3, [1, 0, 0], 0)
    assert not legal
    assert list(new) == [1, 0, 0]


def test_topple_interior_conserves_grains(path3):
    new, _ = btw_topple(path3, [0, 2, 0], 1)
    assert list(new) == [1, 0, 1]
    assert new.sum() == 2


def test_stable_predicates(path2):
    assert is_stable(path2, [1, 1])
    assert not is_stable(path2, [2, 0])
    assert list(max_stable(path2)) == [1, 1]
    assert list(max_stable(build_lattice([2, 2]))) == [3, 3, 3, 3]


def test_stabilize_already_stable_is_identity(path3):
    stable, od = btw_stabilize(path3, [1, 0, 1])
    assert list(stable) == [1, 0, 1]
    assert list(od) == [0, 0, 0]


def test_stabilize_cascade_frozen(path2):
    # (2,1): left topples to (0,2), right topples to (1,0).
    stable, od = btw_stabilize(path2, [2, 1])
    assert list(stable) == [1, 0]
    assert list(od) == [1, 1]


def test_stabilize_conserves_grains_up_to_outflow(grid33, rng):
    for _ in range(50):
        h = rng.integers(0, 12, size=9)
        stable, od = btw_stabilize(grid33, h)
        assert (stable >= 0).all() and (stable < 4).all()
        assert h.sum() == stable.sum() + total_outflow(grid33, od)


def test_stabilize_matches_random_order_oracle(grid33, rng):
    for _ in range(50):
        h = rng.integers(0, 10, size=9)
        ours, od_ours = btw_stabilize(grid33, h)
        ref, od_ref = random_order_stabilize(grid33, h, rng)
        assert np.array_equal(ours, ref)
        assert np.array_equal(od_ours, od_ref)


def test_stabilize_matches_lifo_oracle(path3, rng):
    for _ in range(100):
        h = rng.integers(0, 8, size=3)
        ours, od_ours = btw_stabilize(path3, h)
        ref, od_ref = lifo_stabilize(path3, h)
        assert np.array_equal(ours, ref)
        assert np.array_equal(od_ours, od_ref)


@given(heights=st.lists(st.integers(0, 15), min_size=4, max_size=4),
       seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_stabilize_order_independent_property(heights, seed):
    lat = build_lattice([2, 2])
    ours, od_ours = btw_stabilize(lat, heights)
    ref, od_ref = random_order_stabilize(lat, heights, np.random.default_rng(seed))
    assert np.array_equal(ours, ref)
    assert np.array_equal(od_ours, od_ref)


# A 4x4 box without its site (1, 2), plus a site with no in-set neighbour:
# the neighbour table pads both with the sink.
HOLE_AND_ISLAND = [(i, j) for i in range(4) for j in range(4) if (i, j) != (1, 2)] + [(6, 6)]


@pytest.mark.parametrize("lat, rows", [
    (build_lattice([5]), 20),
    (build_lattice([2, 2, 3]), 6),
    (Lattice(2, HOLE_AND_ISLAND), 6),
], ids=["d1", "d3", "hole-and-island"])
def test_stabilize_rounds_match_oracles_on(lat, rows, rng):
    # heights up to 50 * 2d, so a site topples many times in one round
    for _ in range(rows):
        h = rng.integers(0, 50 * lat.threshold + 1, size=lat.n_sites)
        ours, od_ours = btw_stabilize(lat, h)
        for ref, od_ref in (lifo_stabilize(lat, h), random_order_stabilize(lat, h, rng)):
            assert np.array_equal(ours, ref)
            assert np.array_equal(od_ours, od_ref)


def test_stabilize_rounds_match_fifo_on_32x32():
    lat = build_lattice([32, 32])
    h = np.full(lat.n_sites, 6, dtype=np.int64)
    ours, od_ours = btw_stabilize(lat, h)
    ref = h.copy()
    od_ref = stabilize_from(lat, ref, range(lat.n_sites))
    assert np.array_equal(ours, ref)
    assert np.array_equal(od_ours, od_ref)
    assert od_ours.sum() == 154_856


def test_stabilize_many_matches_scalar(grid33, rng):
    batch = rng.integers(0, 10, size=(64, 9))
    work = batch.copy()
    od = stabilize_many(grid33, work)
    for row_in, row_out, row_od in zip(batch, work, od):
        ref, od_ref = btw_stabilize(grid33, row_in)
        assert np.array_equal(row_out, ref)
        assert np.array_equal(row_od, od_ref)


IRREGULAR = [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)]
# Two clusters far apart: their bounding box has 202x202 cells.
TWO_CLUSTERS = Lattice(2, [(0, 0), (0, 1), (1, 0), (200, 200), (200, 201), (201, 200)])


@pytest.mark.parametrize("lat, rows, high", [
    (Lattice(2, IRREGULAR), 200, 12),
    (Lattice(2, [(i, j) for i in (2, 1, 0) for j in (0, 1, 2)]), 50, 10),
    (build_lattice([32, 32]), 8, 8),
    (Lattice(2, HOLE_AND_ISLAND), 200, 12),
    (TWO_CLUSTERS, 200, 12),
    # Many C-ordered int64 replicas: the box slices along the leading axes
    # in 1, 2 and 3 dimensions, over two row blocks, the last one partial.
    (build_lattice([2]), 20_000, 6),
    (build_lattice([2, 2]), 10_000, 12),
    (build_lattice([2, 2, 2]), 5000, 18),
], ids=["irregular", "box-out-of-order", "32x32", "hole-and-island", "two-clusters",
        "path2-many", "2x2-many", "2x2x2-many"])
def test_stabilize_many_matches_scalar_on(lat, rows, high, rng):
    batch = rng.integers(0, high, size=(rows, lat.n_sites))
    work = batch.copy()
    od = stabilize_many(lat, work)
    for row_in, row_out, row_od in zip(batch, work, od):
        ref, od_ref = fifo_stabilize(lat, row_in)
        assert np.array_equal(row_out, ref)
        assert np.array_equal(row_od, od_ref)


def test_stabilize_many_writes_through_strided_view(grid22, rng):
    batch = rng.integers(0, 12, size=(10, 8))
    view = batch[:, ::2]
    expected = [btw_stabilize(grid22, row)[0] for row in view]
    stabilize_many(grid22, view)
    assert np.array_equal(batch[:, ::2], expected)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
@pytest.mark.parametrize("lat", [build_lattice([3, 3]), Lattice(2, IRREGULAR)],
                         ids=repr)
def test_stabilize_many_relaxes_column_major_batch_in_place(lat, dtype, rng):
    # enumerate_recurrent relaxes column-major uint8 chunks, or uint16
    # ones past d = 64.
    batch = rng.integers(0, 3 * lat.threshold, size=(100, lat.n_sites)).astype(dtype)
    f_order = np.asfortranarray(batch)
    c_order = batch.copy()
    od_f = stabilize_many(lat, f_order)
    od_c = stabilize_many(lat, c_order)
    assert f_order.flags.f_contiguous and f_order.dtype == dtype
    assert np.array_equal(f_order, [fifo_stabilize(lat, row)[0] for row in batch])
    assert np.array_equal(f_order, c_order)
    assert np.array_equal(od_f, od_c)


def test_stabilize_rejects_bad_input(path2):
    with pytest.raises(DomainError):
        btw_stabilize(path2, [1, -1])
    with pytest.raises(DomainError):
        btw_stabilize(path2, [1, 1, 1])
    with pytest.raises(DomainError):
        btw_stabilize(path2, [0.5, 0.5])


@pytest.mark.parametrize("batch", [
    np.array([[-5, 0]]), np.array([1, 0]), np.array([[1, 0, 0]]), np.array([[1.0, 0.0]]),
    np.array([[True, False]]), [[3, 0]],
], ids=["negative", "1-d", "wrong-width", "float", "bool", "list"])
def test_stabilize_many_rejects_bad_batches(path2, batch):
    for lat in (path2, Lattice(1, [(0,), (1,)])):
        before = np.array(batch, copy=True)
        with pytest.raises(DomainError):
            stabilize_many(lat, batch)
        assert np.array_equal(batch, before)


def test_stabilize_many_rejects_read_only_batch(path2):
    batch = np.array([[3, 0]])
    batch.flags.writeable = False
    with pytest.raises(DomainError):
        stabilize_many(path2, batch)


def test_stabilize_many_counts_past_narrow_dtypes():
    # uint8 heights relax right, but 460,064 topplings in uint8 counts
    # read 191,776 (mod 256) unless the rows relax in a dtype that holds
    # the counts (int16 here) and the odometer comes back in int64.
    lat = build_lattice([40, 40])
    batch = np.full((2, lat.n_sites), 7, dtype=np.uint8)
    od = stabilize_many(lat, batch)
    ref, od_ref = btw_stabilize(lat, np.full(lat.n_sites, 7))
    assert od.dtype == np.int64 and batch.dtype == np.uint8
    assert od[0].sum() == 460_064
    assert np.array_equal(od, [od_ref, od_ref]) and np.array_equal(batch, [ref, ref])


def test_stabilize_many_relaxes_narrow_heights_without_wrapping():
    # A uint8 centre of 251 with six neighbours at 252 must keep all 83
    # grains the box does not lose; relaxed in uint8 it kept 67.
    lat = build_lattice([3, 3, 3])
    h = np.zeros(lat.n_sites, dtype=np.uint8)
    h[13] = 251
    h[list(lat.adjacency[13])] = 252
    for order in ("C", "F"):
        batch = np.array([h, h], order=order)
        od = stabilize_many(lat, batch)
        ref, od_ref = btw_stabilize(lat, h)
        assert ref.sum() == 83
        assert np.array_equal(batch, [ref, ref]) and np.array_equal(od, [od_ref, od_ref])
        assert batch.dtype == np.uint8 and batch.flags[f"{order}_CONTIGUOUS"]


@pytest.mark.parametrize("lat, batch", [
    (Lattice(65, [(0,) * 65]), np.array([[5]], dtype=np.int8)),
    (build_lattice([2]), np.array([[2**63 - 1, 0]])),
    (build_lattice([2]), np.array([[0, 2**63 - 1]], dtype=np.uint64)),
    (build_lattice([2]), np.array([[2**63, 0]], dtype=np.uint64)),
    (build_lattice([2, 2]), np.array([[0, 0, 2**63 - 3, 0]])),
], ids=["int8-below-2d-1", "int64-top", "uint64-top", "uint64-past-int64", "int64-d2"])
def test_stabilize_many_rejects_heights_it_cannot_hold(lat, batch):
    before = batch.copy()
    with pytest.raises(DomainError):
        stabilize_many(lat, batch)
    assert np.array_equal(batch, before) and batch.dtype == before.dtype


@pytest.mark.parametrize("lat, top", [(build_lattice([2]), 2**63 - 2),
                                      (build_lattice([2, 2]), 2**63 - 4)], ids=repr)
def test_stabilize_many_relaxes_heights_at_the_int64_bound(lat, top):
    for dtype in (np.int64, np.uint64):
        batch = np.zeros((1, lat.n_sites), dtype=dtype)
        batch[0, -1] = top
        od = stabilize_many(lat, batch)
        assert (batch < lat.threshold).all()
        assert int(np.dot(od[0], lat.boundary_degree)) + int(batch.sum()) == top


def test_relaxations_reject_heights_whose_odometer_passes_int64():
    # 2^62 grains per site on 16x16 topple the centre about 21 * 2^62
    # times: the odometers wrapped to -9068450705162245648 silently.
    lat = build_lattice([16, 16])
    h = np.full(lat.n_sites, 2**62, dtype=np.int64)
    batch = h[None, :].copy()
    with pytest.raises(DomainError):
        btw_stabilize(lat, h)
    with pytest.raises(DomainError):
        stabilize_many(lat, batch)
    assert (h == 2**62).all() and (batch == 2**62).all()


def test_relaxations_take_heights_up_to_the_odometer_bound():
    # On a 16-site path Delta^-1 1 peaks at 36 = 8 * 9 / 2, the bound
    # itself, so 72 * high <= 2^64 - 2 decides what the rounds take.
    lat = build_lattice([16])
    high = (2**64 - 2) // 72
    for top in (high, high + 1):
        h = np.full(lat.n_sites, top, dtype=np.int64)
        if top > high:
            with pytest.raises(DomainError):
                btw_stabilize(lat, h)
            continue
        stable, od = btw_stabilize(lat, h)
        assert od.max() > 2**62 and (stable < lat.threshold).all()
        laplacian = 2 * od.astype(object)
        laplacian[1:] -= od[:-1].astype(object)
        laplacian[:-1] -= od[1:].astype(object)
        assert list(h.astype(object) - stable.astype(object)) == list(laplacian)
        batch = h[None, :].copy()
        assert np.array_equal(stabilize_many(lat, batch)[0], od)
        assert np.array_equal(batch[0], stable)


BOX33 = build_lattice([3, 3])
# The largest height each lattice relaxes in int8, int16 and int32: on the
# path the counts bind (Delta^-1 1 peaks at 3 = 2 * 3 / 2), on both 3x3
# lattices the bound of their narrowest side, 2 = 2 * 2 / 2.
ROUND_EDGES = [
    (build_lattice([4]), (42, 10_922, 715_827_882)),
    (BOX33, (63, 16_383, 1_073_741_823)),
    (Lattice(2, [tuple(s) for s in BOX33.sites[:-1]]), (63, 16_383, 1_073_741_823)),
]


@pytest.mark.parametrize("lat, edges", ROUND_EDGES, ids=["path", "box", "box-minus-corner"])
@pytest.mark.parametrize("width", [0, 1, 2], ids=["int8", "int16", "int32"])
def test_rounds_at_each_dtype_edge_match_the_single_topplings(lat, edges, width):
    # Both rows of the batch peak at `high`, the first at every site: at
    # the edge the rounds run in the narrow dtype, one more grain widens
    # them. At the int32 edge LIFO would take billions of single
    # topplings, so the FIFO of `stabilize_from`, which topples h // 2d at
    # once, stands in.
    signed = (np.int8, np.int16, np.int32)[width]
    wider = (np.int16, np.int32, np.int64)[width]
    oracle = fifo_stabilize if signed is np.int32 else lifo_stabilize
    for high, dtype in ((edges[width], signed), (edges[width] + 1, wider)):
        assert btw._round_dtype(lat, high) == dtype
        rows = np.full((2, lat.n_sites), high)
        rows[1] = np.random.default_rng(high).integers(0, high + 1, size=lat.n_sites)
        rows[1, -1] = high
        refs = [oracle(lat, row) for row in rows]
        stable, od = btw_stabilize(lat, rows[0])
        assert stable.dtype == od.dtype == np.int64
        assert np.array_equal(stable, refs[0][0]) and np.array_equal(od, refs[0][1])
        for batch_dtype in (signed, np.dtype(signed).str.replace("i", "u")):
            for order in ("C", "F"):
                batch = np.array(rows, dtype=batch_dtype, order=order)
                od = stabilize_many(lat, batch)
                assert od.dtype == np.int64 and batch.dtype == batch_dtype
                assert np.array_equal(batch, [s for s, _ in refs])
                assert np.array_equal(od, [o for _, o in refs])


def _two_step_topplings_fit(lat, high, room):
    # The rule before Lattice.width: the n_sites bound first, then the
    # narrowest side of the box or of the bounding box, from the sites.
    w = lat.n_sites
    if high * (w + 1) ** 2 > 8 * room:
        w = min(w, min(lat.dims) if lat.dims else int(np.ptp(lat.sites, axis=0).min()) + 1)
    return high * ((w + 1) // 2) * ((w + 2) // 2) <= 2 * room


BOX64 = build_lattice([64, 64])


@pytest.mark.parametrize("lat, width", [
    (BOX64, 64),
    (Lattice(2, BOX64.sites[:-1]), 64),
    (Lattice(2, IRREGULAR), 3),
    (Lattice(2, HOLE_AND_ISLAND), 7),
    (TWO_CLUSTERS, 6),
    (build_lattice([7, 3, 5]), 3),
], ids=["box", "box-minus-site", "irregular", "hole-and-island", "two-clusters", "box3"])
def test_width_keeps_the_two_step_toppling_rule(lat, width):
    assert lat.width == width
    highs = [0, 1, 2, 3, 4, 7, 63, 64, 1000, 2**20, 2**40, 2**62]
    rooms = [0, 1, 2, 3, 100, 1000, 2**15, 2**20, 2**31, 2**40, 2**62]
    for high in highs:
        for room in rooms + [high * k for k in (1, 2, 8, 100, 1000, 1100)]:
            assert btw._topplings_fit(lat, high, room) == _two_step_topplings_fit(lat, high, room)


def test_large_box_rounds_run_in_int16(monkeypatch):
    # The benchmark's relaxations, 64x64 at 4 grains and 32x32 at 6: their
    # heights stay at most 7 and 9 and their counts at most 2,112 and 816,
    # so the rounds must not widen past int16.
    seen = []

    def recording(kernel):
        def run(lat, h):
            seen.append((kernel.__name__, h.dtype))
            return kernel(lat, h)
        return run

    for name in ("_table_rounds", "_relax_block"):
        monkeypatch.setattr(btw, name, recording(getattr(btw, name)))
    big, small = build_lattice([64, 64]), build_lattice([32, 32])
    assert btw._round_dtype(big, 4) == btw._round_dtype(small, 6) == np.int16
    btw_stabilize(big, np.full(big.n_sites, 4))
    stabilize_many(small, np.full((1, small.n_sites), 6))
    assert seen == [("_table_rounds", np.int16), ("_relax_block", np.int16)]


def test_replica_blocks_relax_site_major_with_one_copy(monkeypatch):
    # Both round kernels take one layout: a C-contiguous (n_sites, rows)
    # block in the rounds' dtype. stabilize_many copies a C-ordered int64
    # batch once into it and hands a column-major batch already in that
    # dtype over as a view; the enumeration's buffer relaxes with no copy.
    seen, relax = [], btw._relax_block

    def recording(lat, h):
        seen.append(h)
        return relax(lat, h)

    monkeypatch.setattr(btw, "_relax_block", recording)
    for lat in (BOX33, Lattice(2, [tuple(s) for s in BOX33.sites[:-1]])):
        batch = np.random.default_rng(5).integers(0, 3 * lat.threshold, size=(100, lat.n_sites))
        dtype = btw._round_dtype(lat, int(batch.max()))
        for work in (batch.copy(), np.asfortranarray(batch, dtype=dtype)):
            seen.clear()
            stabilize_many(lat, work)
            [h] = seen
            assert h.shape == (lat.n_sites, 100) and h.dtype == dtype and h.flags.c_contiguous
            assert np.shares_memory(h, work) == (work.dtype == dtype)
        seen.clear()
        assert len(enumerate_recurrent(lat)) == determinant_exact(toppling_matrix(lat, "integer"))
        assert len(seen) > 1
        for h in seen:
            assert h.flags.c_contiguous and h.shape[0] == lat.n_sites and h.dtype == np.uint8
            assert np.shares_memory(h, seen[0]) and h.base is not None


def test_fifo_rejects_heights_it_may_overflow_before_any_write(grid33, path3):
    # Eight sites at 2^63 - 100 and the centre at 3: the FIFO wrote a site
    # and then failed in its memoryview with a bare ValueError.
    h = np.full(9, 2**63 - 100, dtype=np.int64)
    h[4] = 3
    before = h.copy()
    with pytest.raises(DomainError):
        stabilize_from(grid33, h, range(9))
    with pytest.raises(DomainError):
        btw_add(grid33, h, 4)
    assert np.array_equal(h, before)
    # An int8 centre may reach 100 + 50 + 50 grains.
    narrow = np.array([100, 100, 100], dtype=np.int8)
    with pytest.raises(DomainError):
        stabilize_from(path3, narrow, range(3))
    assert list(narrow) == [100, 100, 100]


def test_fifo_rule_takes_stable_narrow_heights_on_a_long_path():
    # Heights below 2d topple nowhere, so the FIFO rule asks only that they
    # fit their dtype. On a 40-site path the odometer bound alone refuses
    # uint8 heights of 1, which no relaxation needs; one of 2 may topple.
    lat = build_lattice([40])
    stable = np.ones(40, dtype=np.uint8)
    assert not stabilize_from(lat, stable, range(40)).any()
    with pytest.raises(DomainError):
        stabilize_from(lat, np.full(40, 2, dtype=np.uint8), range(40))
    cfg = CbtwConfig(1, np.zeros(40, dtype=np.uint8), np.full(40, 0.49))
    assert list(cbtw_add(lat, cfg, 0, 0.3).quanta[:2]) == [1, 0]
    # A stable height must still fit: a carry to 128 in int8 quanta in Z^65.
    cfg = CbtwConfig(65, np.array([127], dtype=np.int8), np.array([0.0075]))
    with pytest.raises(DomainError):
        cbtw_add(Lattice(65, [(0,) * 65]), cfg, 0, 0.003)


@pytest.mark.parametrize("lat, rows", [
    (build_lattice([3, 3]), 100),
    (Lattice(2, [(i, j) for i in (2, 1, 0) for j in (0, 1, 2)]), 50),
    (Lattice(2, IRREGULAR), 100),
    (build_lattice([3, 3]), 0),
], ids=["box", "box-out-of-order", "irregular", "zero-rows"])
@pytest.mark.parametrize("layout", ["int64", "uint8-column-major", "strided"])
def test_stabilize_many_is_blind_to_the_block_size(lat, rows, layout, each_block):
    batch = np.random.default_rng(3).integers(0, 4 * lat.threshold, size=(rows, lat.n_sites))

    def run():
        if layout == "int64":
            work = batch.copy()
        elif layout == "uint8-column-major":
            work = np.asfortranarray(batch, dtype=np.uint8)
        else:
            work = np.zeros((rows, 2 * lat.n_sites), dtype=np.int64)[:, ::2]
            work[...] = batch
        od = stabilize_many(lat, work)
        return work, od

    outs = each_block(lat.n_sites, run)
    for work, od in outs:
        assert od.dtype == np.int64 and od.shape == batch.shape
        assert np.array_equal(work, outs[0][0]) and np.array_equal(od, outs[0][1])
    for row_in, row_out, row_od in zip(batch, *outs[0]):
        ref, od_ref = fifo_stabilize(lat, row_in)
        assert np.array_equal(row_out, ref) and np.array_equal(row_od, od_ref)


def test_enumeration_relaxes_its_chunks_without_stabilize_many(grid22, monkeypatch):
    # The scan's uint8 chunk relaxes in place through the rounds' kernel:
    # no site topples twice, so nothing wraps and no copy is needed.
    def forbidden(*args, **kwargs):
        raise AssertionError("enumeration copied its chunk through stabilize_many")

    monkeypatch.setattr(btw, "stabilize_many", forbidden)
    assert len(enumerate_recurrent(grid22)) == 192


@pytest.mark.parametrize("amount", [1.5, True, np.float64(2.0), 2**63, 2**63 - 1])
def test_add_rejects_bad_amounts(path2, amount):
    with pytest.raises(DomainError):
        btw_add(path2, [1, 0], 0, amount=amount)


def test_add_examples_frozen(path2):
    # Addition orbit at the left site: (0,1) -> (1,1) -> (1,0) -> (0,1).
    assert list(btw_add(path2, [0, 1], 0)) == [1, 1]
    assert list(btw_add(path2, [1, 1], 0)) == [1, 0]
    assert list(btw_add(path2, [1, 0], 0)) == [0, 1]
    # five single additions at the left site walk (0,0) -> (1,0) -> (0,1)
    # -> (1,1) -> (1,0) -> (0,1)
    assert list(btw_add(path2, [0, 0], 0, amount=5)) == [0, 1]
    with pytest.raises(DomainError):
        btw_add(path2, [0, 0], 0, amount=-1)


def test_add_to_unstable_input_stabilizes_fully(path3, grid33):
    assert list(btw_add(path3, [5, 0, 0], 2)) == list(btw_stabilize(path3, [5, 0, 1])[0])
    h = np.full(9, 7, dtype=np.int64)
    out = btw_add(grid33, h, 4)
    h[4] += 1
    assert np.array_equal(out, btw_stabilize(grid33, h)[0])
    assert is_stable(grid33, out)


def _recording_handovers(monkeypatch):
    """Spy on `btw._relax`: the list of the waves it hands over."""
    waves, relax = [], btw._relax

    def recording(*args):
        wave = relax(*args)
        if wave:
            waves.append(list(wave))
        return wave

    monkeypatch.setattr(btw, "_relax", recording)
    return waves


def test_drops_match_the_fifo_and_conserve_mass(monkeypatch):
    # Seeded single-grain drops on the relaxed 32x32 box of 4 grains a
    # site: each equals `stabilize_from` seeded at the drop, loses exactly
    # its boundary outflow, and some avalanche finishes on a list.
    lat = build_lattice([32, 32])
    h = btw_stabilize(lat, np.full(lat.n_sites, 4, dtype=np.int64))[0]
    waves = _recording_handovers(monkeypatch)
    for x in np.random.default_rng(31).integers(lat.n_sites, size=300).tolist():
        out = btw_add(lat, h, x)
        ref = h.copy()
        ref[x] += 1
        od = stabilize_from(lat, ref, (x,))
        assert out.dtype == np.int64 and np.array_equal(out, ref)
        assert int(h.sum()) + 1 == int(out.sum()) + total_outflow(lat, od)
        h = out
    assert waves and all(len(w) > btw.WIDE_WAVE for w in waves)


@pytest.mark.parametrize("lat, high", [
    (build_lattice([8, 8]), 4),
    # 2d = 258 > 256: relaxed heights of 256 and 257 are written back
    # without a bytearray.
    (Lattice(129, [(i,) + (0,) * 128 for i in range(20)]), 512),
], ids=["8x8", "path-in-Z^129"])
def test_drop_on_an_all_unstable_input_hands_over_its_first_wave(lat, high, monkeypatch):
    waves = _recording_handovers(monkeypatch)
    h = np.full(lat.n_sites, high, dtype=np.int64)
    out = btw_add(lat, h, 3)
    h[3] += 1
    assert waves[0] == list(range(lat.n_sites))
    assert np.array_equal(out, btw_stabilize(lat, h)[0]) and out.max() == lat.threshold - 1


def test_drops_of_many_grains_match_the_fifo(rng):
    lat = build_lattice([16, 16])
    h = btw_stabilize(lat, np.full(lat.n_sites, 4, dtype=np.int64))[0]
    for amount in (2, 7, 50, 1000):
        x = int(rng.integers(lat.n_sites))
        ref = h.copy()
        ref[x] += amount
        od = stabilize_from(lat, ref, (x,))
        out = btw_add(lat, h, x, amount=amount)
        assert np.array_equal(out, ref)
        assert int(h.sum()) + amount == int(out.sum()) + total_outflow(lat, od)
        h = out


def test_drops_leave_narrow_and_strided_inputs_unchanged():
    lat = build_lattice([8, 8])
    h = btw_stabilize(lat, np.full(lat.n_sites, 5, dtype=np.int64))[0]
    narrow = h.astype(np.int8)
    batch = np.stack([h, 3 - h % 4], axis=1)
    before = batch.copy()
    for x in range(lat.n_sites):
        want = btw_add(lat, h, x)
        for heights in (narrow, batch[:, 0]):
            out = btw_add(lat, heights, x)
            assert out.dtype == np.int64 and np.array_equal(out, want)
            assert not np.shares_memory(out, heights)
        assert np.array_equal(narrow, h) and np.array_equal(batch, before)


def test_uint64_heights_past_int64_are_rejected(path2):
    # They wrapped into negative int64: btw_add returned a negative
    # height, btw_stabilize ([1, 0], [3, 2]), is_stable True and the
    # burning test False.
    h = np.array([2**63 + 5, 1], dtype=np.uint64)
    for run in (lambda: btw_add(path2, h, 1), lambda: btw_stabilize(path2, h),
                lambda: is_stable(path2, h), lambda: is_recurrent_burning(path2, h)):
        with pytest.raises(DomainError):
            run()
    assert not is_stable(path2, np.array([2**63 - 1, 1], dtype=np.uint64))
    assert list(btw_add(path2, np.array([0, 1], dtype=np.uint64), 1)) == [1, 0]


def test_fifo_topples_reached_unstable_sites():
    # Site 1 is unstable but no seed: the avalanche from site 0 reaches it.
    lat = build_lattice([5])
    h = np.array([2, 3, 0, 0, 0], dtype=np.int64)
    od = stabilize_from(lat, h, [0])
    assert list(h) == [1, 0, 1, 1, 0]
    assert list(od) == [2, 3, 1, 0, 0]


def test_fifo_leaves_unreached_unstable_sites():
    lat = build_lattice([5])
    h = np.array([2, 0, 0, 0, 5], dtype=np.int64)
    od = stabilize_from(lat, h, [0])
    assert list(h) == [0, 1, 0, 0, 5]
    assert list(od) == [1, 0, 0, 0, 0]
    h = np.array([0, 0, 0, 0, 5], dtype=np.int64)
    assert not stabilize_from(lat, h, [0, 1]).any()
    assert list(h) == [0, 0, 0, 0, 5]


def test_fifo_duplicate_seeds_topple_once_each(grid33, rng):
    for _ in range(20):
        h = rng.integers(0, 12, size=9)
        once, many = h.copy(), h.copy()
        od_once = stabilize_from(grid33, once, range(9))
        od_many = stabilize_from(grid33, many, np.repeat(np.arange(9), 3))
        assert np.array_equal(many, once)
        assert np.array_equal(od_many, od_once)
        assert np.array_equal(once, lifo_stabilize(grid33, h)[0])


def test_fifo_relaxes_a_strided_view_in_place(grid33, rng):
    batch = rng.integers(0, 12, size=(9, 3))
    before = batch.copy()
    od = stabilize_from(grid33, batch[:, 1], range(9))
    ref, od_ref = lifo_stabilize(grid33, before[:, 1])
    assert np.array_equal(batch[:, 1], ref)
    assert np.array_equal(od, od_ref)
    assert np.array_equal(batch[:, [0, 2]], before[:, [0, 2]])


@pytest.mark.parametrize("dims", [[16, 16], [3, 3, 3]], ids=["16x16", "3x3x3"])
def test_fifo_drops_match_lifo_oracle(dims, rng):
    lat = build_lattice(dims)
    h = btw_stabilize(lat, np.full(lat.n_sites, lat.threshold, dtype=np.int64))[0]
    for _ in range(60):
        x = int(rng.integers(lat.n_sites))
        h[x] += int(rng.integers(1, lat.threshold + 1))
        ref, od_ref = lifo_stabilize(lat, h)
        od = stabilize_from(lat, h, (x,))
        assert np.array_equal(h, ref)
        assert np.array_equal(od, od_ref)


def test_site_index_outside_the_lattice_is_rejected(path3):
    # A negative index used to wrap around: btw_add(..., -1) dropped on site 2.
    cfg = CbtwConfig(d=1, quanta=np.array([1, 1, 1]), frac=np.zeros(3))
    for x in (-1, 3, 1.0, 1.5, True, "0"):
        with pytest.raises(DomainError):
            addition_order(path3, x)
        with pytest.raises(DomainError):
            btw_add(path3, [0, 0, 1], x)
        with pytest.raises(DomainError):
            btw_inverse_add(path3, [1, 1, 1], x)
        with pytest.raises(DomainError):
            btw_topple(path3, [2, 0, 0], x)
        with pytest.raises(DomainError):
            cbtw_add(path3, cfg, x, 0.25)
        with pytest.raises(DomainError):
            cbtw_inverse_add(path3, cfg, x, 0.25)
        h = np.array([2, 0, 0], dtype=np.int64)
        with pytest.raises(DomainError):
            stabilize_from(path3, h, [0, x])
        assert list(h) == [2, 0, 0]
    assert list(btw_add(path3, [0, 0, 1], np.int64(2))) == [0, 1, 0]


def test_fifo_rejects_heights_it_cannot_relax_in_place(path3):
    read_only = np.array([2, 0, 0], dtype=np.int64)
    read_only.flags.writeable = False
    for bad in (np.array([2, 0, 0, 0]), np.array([2, 0]), np.array([2.0, 0.0, 0.0]),
                np.array([[2], [0], [0]]), np.array([2, 0, 0], dtype=">i8"),
                np.array([True, False, False]), read_only, [2, 0, 0]):
        before = np.array(bad, copy=True)
        with pytest.raises(DomainError):
            stabilize_from(path3, bad, [0])
        assert np.array_equal(bad, before)
    for dtype in (np.int8, np.int32, np.uint16):
        h = np.array([2, 0, 0], dtype=dtype)
        stabilize_from(path3, h, [0])
        assert list(h) == [0, 1, 0]


def test_allowed_bruteforce_frozen_path2(path2):
    assert not is_allowed_bruteforce(path2, [0, 0])
    assert is_allowed_bruteforce(path2, [0, 1])
    assert is_allowed_bruteforce(path2, [1, 0])
    assert is_allowed_bruteforce(path2, [1, 1])


def test_allowed_bruteforce_frozen_path3(path3):
    allowed = {(1, 1, 1), (0, 1, 1), (1, 1, 0), (1, 0, 1)}
    for h in stable_configurations(path3):
        assert is_allowed_bruteforce(path3, list(h)) == (h in allowed)


def test_burning_matches_bruteforce_exhaustive():
    lattices = [build_lattice(dims) for dims in ([2], [3], [4], [2, 2], [1, 2, 2])]
    for lat in lattices + [Lattice(2, IRREGULAR + [(5, 5)])]:
        for h in stable_configurations(lat):
            h = list(h)
            assert is_recurrent_burning(lat, h) == is_allowed_bruteforce(lat, h)


def test_burning_requires_stable(path2):
    with pytest.raises(DomainError):
        is_recurrent_burning(path2, [2, 0])


def test_bruteforce_capacity_cap():
    lat = build_lattice([25])
    with pytest.raises(CapacityError):
        is_allowed_bruteforce(lat, [1] * 25)


def test_enumerate_recurrent_frozen(path2):
    rec = enumerate_recurrent(path2)
    assert rec.tolist() == [[0, 1], [1, 0], [1, 1]]


def test_enumerate_recurrent_counts():
    # Path counts frozen from the determinant identity (n+1 for a path).
    for n in range(1, 7):
        assert len(enumerate_recurrent(build_lattice([n]))) == n + 1
    assert len(enumerate_recurrent(build_lattice([2, 2]))) == 192


def test_enumerate_recurrent_is_lexicographic(grid22):
    rec = enumerate_recurrent(grid22)
    as_tuples = [tuple(r) for r in rec]
    assert as_tuples == sorted(as_tuples)


def test_enumerate_capacity_cap():
    with pytest.raises(CapacityError):
        enumerate_recurrent(build_lattice([4, 4]))
    with pytest.raises(CapacityError) as info:
        enumerate_recurrent(build_lattice([64, 64]))
    assert "4^4096 (about 10^2466)" in str(info.value)
    assert len(str(info.value)) < 200


def test_addition_order_frozen(path1, path2, path3):
    assert addition_order(path1, 0) == 2
    assert addition_order(path2, 0) == 3
    assert addition_order(path2, 1) == 3
    assert [addition_order(path3, x) for x in range(3)] == [4, 2, 4]


def test_addition_order_grid_frozen(grid22):
    rec = enumerate_recurrent(grid22)
    assert [addition_order(grid22, x, rec) for x in range(4)] == [24, 24, 24, 24]


def test_addition_order_rejects_unclosed_set(path2):
    rec = enumerate_recurrent(path2)
    with pytest.raises(DomainError):
        addition_order(path2, 0, recurrent=rec[:-1])


def test_addition_power_order_is_identity(path3):
    rec = enumerate_recurrent(path3)
    for x in range(3):
        n = addition_order(path3, x, rec)
        for row in rec:
            assert list(btw_add(path3, row, x, amount=n)) == list(row)


def test_inverse_add_roundtrip(path2, path3, rng):
    for lat in (path2, path3):
        rec = enumerate_recurrent(lat)
        for _ in range(30):
            h = rec[rng.integers(len(rec))]
            x = int(rng.integers(lat.n_sites))
            assert np.array_equal(btw_inverse_add(lat, btw_add(lat, h, x), x), h)
            assert np.array_equal(btw_add(lat, btw_inverse_add(lat, h, x), x), h)


def test_inverse_add_power(path2):
    rec = enumerate_recurrent(path2)
    h = rec[0]
    one_by_one = btw_inverse_add(path2, btw_inverse_add(path2, h, 0), 0)
    assert np.array_equal(btw_inverse_add(path2, h, 0, power=2), one_by_one)


@pytest.mark.parametrize("kwargs", [
    {"power": 1.5}, {"power": True}, {"power": "1"},
], ids=["power-float", "power-bool", "power-str"])
def test_inverse_add_rejects_bad_power_and_order(path2, kwargs):
    with pytest.raises(DomainError):
        btw_inverse_add(path2, [1, 1], 0, **kwargs)


def test_inverse_add_rejects_transient(path2):
    with pytest.raises(DomainError):
        btw_inverse_add(path2, [0, 0], 0)


ORACLE_LATTICES = [build_lattice([n]) for n in range(1, 7)] + [
    build_lattice([2, 2]), build_lattice([2, 3]), build_lattice([3, 3]),
    build_lattice([1, 2, 2]), Lattice(2, IRREGULAR),
    Lattice(2, IRREGULAR + [(5, 5)]), TWO_CLUSTERS]


def oracle_id(lat):
    # TWO_CLUSTERS has as many sites as IRREGULAR + [(5, 5)], hence the same repr.
    return "two-clusters" if lat is TWO_CLUSTERS else repr(lat)


@pytest.mark.parametrize("lat", ORACLE_LATTICES, ids=oracle_id)
def test_enumerate_recurrent_matches_oracle(lat):
    ours = enumerate_recurrent(lat)
    assert ours.dtype == np.int64
    # Callers key rows on row.tobytes() and index them.
    assert ours.flags.c_contiguous
    assert np.array_equal(ours, oracles.enumerate_recurrent(lat))


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("lat", [build_lattice([2, 3]), build_lattice([1, 2, 2]),
                                 Lattice(2, IRREGULAR)], ids=repr)
def test_enumerate_recurrent_matches_oracle_in_any_chunk(lat, chunk, monkeypatch):
    # Many chunks; a chunk size that is no power of 2d; k = 1 at size 1.
    monkeypatch.setattr(btw, "ENUMERATION_CHUNK", chunk)
    ours = enumerate_recurrent(lat)
    assert ours.dtype == np.int64 and ours.flags.c_contiguous
    assert np.array_equal(ours, oracles.enumerate_recurrent(lat))


@pytest.mark.parametrize("lat", [
    # 2d = 200: heights reach 399, past uint8, in 200^2 = 40,000 rows.
    Lattice(100, [(0,) * 100, (1,) + (0,) * 99]),
    # Every digit is a low digit: no prefix column.
    Lattice(200, [(0,) * 200]),
], ids=["path2-in-Z100", "site-in-Z200"])
def test_enumerate_recurrent_in_high_dimension(lat):
    ours = enumerate_recurrent(lat)
    assert ours.dtype == np.int64 and ours.flags.c_contiguous
    assert np.array_equal(ours, oracles.enumerate_recurrent(lat))
    assert len(ours) == determinant_exact(toppling_matrix(lat, "integer"))


@pytest.mark.parametrize("lat", [lat for lat in ORACLE_LATTICES if lat.n_sites < 9],
                         ids=oracle_id)
def test_addition_order_matches_permutation_oracle(lat):
    rec = oracles.enumerate_recurrent(lat)
    for x in range(lat.n_sites):
        assert addition_order(lat, x, rec) == oracles.permutation_order(lat, x, rec)


def test_addition_order_3x3_frozen(grid33):
    assert [addition_order(grid33, x) for x in (0, 4)] == [224, 16]


def test_inverse_add_beyond_enumeration(rng):
    lat = build_lattice([4, 4])
    h = btw_stabilize(lat, max_stable(lat) + rng.integers(0, 6, size=16))[0]
    back = btw_inverse_add(lat, h, 5)
    assert np.array_equal(btw_add(lat, back, 5), h)
    assert np.array_equal(btw_inverse_add(lat, h, 5, power=3),
                          btw_inverse_add(lat, btw_inverse_add(lat, back, 5), 5))


def test_inverse_add_roundtrip_16x16_is_bit_exact(rng):
    lat = build_lattice([16, 16])
    h = btw_stabilize(lat, max_stable(lat) + rng.integers(0, 8, size=256))[0]
    for x, power in [(0, 1), (135, 1), (255, 7)]:
        back = btw_inverse_add(lat, h, x, power=power)
        assert is_recurrent_burning(lat, back)
        assert np.array_equal(btw_add(lat, back, x, amount=power), h)
        assert np.array_equal(btw_inverse_add(lat, btw_add(lat, h, x, amount=power), x,
                                              power=power), h)


def test_addition_order_16x16_exceeds_int64():
    # Frozen from the Fraction elimination that `btw._bareiss` replaced.
    order = addition_order(build_lattice([16, 16]), 0)
    assert type(order) is int
    assert order > 2**63
    assert order == 1278132865664882026867465276923370915995984753685459657864


def test_addition_order_4x4_frozen():
    # Past the permutation oracle's reach; frozen from the Fraction elimination.
    lat = build_lattice([4, 4])
    assert [addition_order(lat, x) for x in range(16)] == [6600] * 16


@given(data=st.data(), n=st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_bareiss_solution_is_det_times_inverse(data, n):
    # A z = det b is an exact identity in integers; it needs no oracle.
    value = st.one_of(st.just(0), st.just(0), st.integers(-5, 5))
    a = data.draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=n, max_size=n))
    b = data.draw(st.lists(value, min_size=n, max_size=n))
    rows = [{j: v for j, v in enumerate(row) if v} for row in a]
    det, z = btw._bareiss(rows, b)
    assert btw._bareiss(rows) == (det, None)
    if det == 0:
        assert z is None
    else:
        assert [sum(v * w for v, w in zip(row, z)) for row in a] == [det * v for v in b]


def test_inverse_add_stabilizes_the_group_zero_once_per_lattice(monkeypatch):
    # eps = 2m - stab(2m) is built by the first inverse with a positive
    # power, never by the lattice, and every later inverse reuses it.
    lat = build_lattice([4, 4])
    twice = 2 * max_stable(lat)
    calls = []
    real = btw.btw_stabilize

    def counting(lat_, heights):
        calls.append(np.array_equal(heights, twice))
        return real(lat_, heights)

    monkeypatch.setattr(btw, "btw_stabilize", counting)
    assert "group_zero" not in vars(lat)
    h = btw_add(lat, max_stable(lat), 0)
    backs = [btw_inverse_add(lat, h, x, power=p) for x, p in ((0, 1), (5, 3), (5, -2), (15, 40))]
    assert calls == [True]
    eps = lat.group_zero
    assert not eps.flags.writeable and eps.dtype == np.int64
    assert np.array_equal(eps, twice - real(lat, twice)[0]) and (eps >= max_stable(lat)).all()
    assert np.array_equal(backs[0], max_stable(lat))
    assert np.array_equal(btw_add(lat, backs[3], 15, amount=40), h)


def test_inverse_add_rejects_power_beyond_int64(path2):
    with pytest.raises(DomainError):
        btw_inverse_add(path2, [1, 1], 0, power=2**70)
    with pytest.raises(DomainError):
        btw_inverse_add(path2, [1, 1], 0, power=-2**70)
