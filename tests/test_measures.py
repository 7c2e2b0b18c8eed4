import tracemalloc

import numpy as np
import pytest
from scipy import stats

import oracles
from sandpiles import btw
from sandpiles.cbtw import FRAC_BITS, grid_scale
from sandpiles import (Binning, CbtwConfig, DomainError, Histogram,
                       build_lattice, enumerate_recurrent, estimate_tv,
                       frac_bins, is_recurrent_burning, sample_rational_limit_batch,
                       sample_uniform_allowed, sample_uniform_allowed_batch,
                       tv_noise_floor, zero_config)


def test_binning_validation():
    assert Binning(1).bins_per_site == 1
    for bad in (0, 2.5, True, "8"):
        with pytest.raises(DomainError):
            Binning(bad)


def test_frac_bins_frozen():
    # d=1 (cell 0.5), four bins of width 0.125
    out = frac_bins([0.0, 0.124, 0.126, 0.49], 1, Binning(4))
    assert out.tolist() == [0, 0, 1, 3]
    edge = frac_bins([np.nextafter(0.5, 0.0)], 1, Binning(4))
    assert edge.tolist() == [3]


def test_frac_bins_are_exact_at_every_bin_edge():
    # Grid value F sits in bin floor(F B / 2^50); float binning put some
    # edge values one bin up, e.g. d = 1, B = 100, F = 517913957147607.
    # From B = 2^13 on, F B no longer fits in int64 and F is split.
    for d in (1, 2, 3, 5, 6, 7):
        for b in [*range(1, 101), 2**13 - 1, 2**13, 10**6 + 3, 2**38 - 1]:
            ks = {*range(1, min(b, 100)), *range(max(1, b - 99), b)}
            edges = [-(-k * 2**FRAC_BITS // b) for k in ks]
            units = sorted({F + s for F in edges for s in (-1, 0, 1)} | {0, 2**FRAC_BITS - 1})
            frac = np.array(units, dtype=np.int64) / grid_scale(d)
            assert frac_bins(frac, d, Binning(b)).tolist() == [F * b >> FRAC_BITS for F in units]
            top = frac_bins([np.nextafter(1 / (2 * d), 0.0)], d, Binning(b))
            assert top.tolist() == [b - 1]
    assert frac_bins([517913957147607 / grid_scale(1)], 1, Binning(100)).tolist() == [45]
    with pytest.raises(DomainError):
        Binning(2**38)


def test_histogram_batch_cells_in_lexicographic_order(grid22, rng):
    quanta, frac = sample_uniform_allowed_batch(grid22, rng, 5000)
    hist = Histogram.from_samples(2, Binning(2), quanta, frac)
    rows = np.concatenate([quanta, frac_bins(frac, 2, Binning(2))], axis=1)
    uniq, cnt = np.unique(rows, axis=0, return_counts=True)
    assert list(hist.counts.items()) == [
        ((tuple(r[:4]), tuple(r[4:])), c) for r, c in zip(uniq.tolist(), cnt.tolist())]


# 16 sites at B = 1000 and 64 sites at d = 2, B = 3 take the radix product
# of the cell code past 2^63, so their codes are ranked on the way. Every
# pool holds F = 517913957147607 grid units at site 0 of its first rows: at
# d = 1, B = 100 that is bin 45, where float floor(frac 2d B) gives 46.
@pytest.mark.parametrize("dims, d, m, b", [
    ([2], 1, 2, 8), ([3, 3], 2, 9, 8), (None, 1, 16, 1000), (None, 2, 64, 3),
    (None, 1, 2, 100)])
def test_histogram_matches_row_oracle(rng, dims, d, m, b):
    if dims:
        pool_q, pool_f = sample_uniform_allowed_batch(build_lattice(dims), rng, 300)
    else:
        pool_q = rng.integers(2 * d, size=(300, m))
        pool_f = rng.uniform(0.0, 1.0 / (2 * d), size=(300, m))
    pool_f[:30, 0] = 517913957147607 / grid_scale(d)
    hist = Histogram(d, m, Binning(b))
    expected = {}
    # drawn with repeats from the pool, so cells hold counts above 1
    for n in (2000, 0, 1500):
        rows = rng.integers(len(pool_q), size=n)
        hist.add_batch(pool_q[rows], pool_f[rows])
        oracles.row_histogram(expected, pool_q[rows], pool_f[rows], d, b)
        assert list(hist.counts.items()) == list(expected.items())
    assert hist.total == 3500


def test_estimate_tv_equals_tv_of_row_oracle_histograms(path2, rng):
    rec = enumerate_recurrent(path2)
    base = sample_uniform_allowed(path2, rng, rec)
    batches = [sample_uniform_allowed_batch(path2, rng, 3000),
               sample_rational_limit_batch(path2, base, 0.5, rng, 3000)]
    ours = [Histogram.from_samples(1, Binning(8), q, f) for q, f in batches]
    theirs = []
    for q, f in batches:
        hist = Histogram(1, 2, Binning(8))
        hist.counts = oracles.row_histogram({}, q, f, 1, 8)
        hist.total = len(q)
        theirs.append(hist)
    assert estimate_tv(*ours) == estimate_tv(*theirs) > 0.0


@pytest.mark.parametrize("quanta, frac", [
    ([[0, 1]] * 3, [[0.0, 0.1, 0.2]] * 3),
    ([[0.5, 1.0]], [[0.0, 0.0]]),
    ([[0, 1]], [[np.nan, 0.0]]),
    ([[0, 1]], [[7.0, 0.0]]),
    ([[0, 1]], [[0.0, 0.5]]),
    ([[0, 1]], [[-0.1, 0.0]]),
    ([[0, 1]], [[0, 0]]),
    ([[0, 1]], np.zeros((1, 2), dtype=np.float32)),
    ([[0.0, 1.0]], [[0.0, 0.0]]),
    ([[-1, 1]], [[0.0, 0.0]]),
    ([[0, 1, 0]], [[0.0, 0.0, 0.0]]),
    ([0, 1], [0.0, 0.0]),
], ids=["frac-shape", "fractional-quanta", "nan-frac", "frac-above-cell",
        "frac-at-cell-edge", "negative-frac", "integer-frac", "float32-frac",
        "integral-float-quanta", "negative-quanta", "three-sites", "one-row-1-d"])
def test_histogram_rejects_bad_batches(quanta, frac):
    quanta, frac = np.array(quanta), np.array(frac)
    before = [(v.dtype, v.shape, v.tobytes()) for v in (quanta, frac)]
    hist = Histogram(1, 2, Binning(8))
    with pytest.raises(DomainError):
        hist.add_batch(quanta, frac)
    assert hist.counts == {} and hist.total == 0
    assert [(v.dtype, v.shape, v.tobytes()) for v in (quanta, frac)] == before


def test_histogram_rejects_unstable(path2):
    hist = Histogram(1, 2, Binning(4))
    with pytest.raises(DomainError):
        hist.add_batch(np.array([[2, 0]]), np.array([[0.0, 0.0]]))


def test_estimate_tv_extremes(path2):
    h1 = Histogram(1, 2, Binning(2))
    h2 = Histogram(1, 2, Binning(2))
    cfg_a = CbtwConfig(d=1, quanta=np.array([0, 1]), frac=np.array([0.0, 0.0]))
    cfg_b = CbtwConfig(d=1, quanta=np.array([1, 0]), frac=np.array([0.0, 0.0]))
    h1.add_batch(cfg_a.quanta[None], cfg_a.frac[None])
    h2.add_batch(cfg_a.quanta[None], cfg_a.frac[None])
    assert estimate_tv(h1, h2) == 0.0
    h3 = Histogram(1, 2, Binning(2))
    h3.add_batch(cfg_b.quanta[None], cfg_b.frac[None])
    assert estimate_tv(h1, h3) == 1.0
    # half overlap: {a:1/2, b:1/2} vs {a:1} has TV 1/2
    h4 = Histogram(1, 2, Binning(2))
    h4.add_batch(cfg_a.quanta[None], cfg_a.frac[None])
    h4.add_batch(cfg_b.quanta[None], cfg_b.frac[None])
    assert estimate_tv(h4, h1) == 0.5
    assert estimate_tv(h1, h4) == 0.5


def test_estimate_tv_shape_mismatch(path2):
    h1 = Histogram(1, 2, Binning(2))
    h2 = Histogram(1, 2, Binning(4))
    with pytest.raises(DomainError):
        estimate_tv(h1, h2)
    with pytest.raises(DomainError):
        estimate_tv(Histogram(1, 2, Binning(2)), Histogram(1, 3, Binning(2)))


def test_empty_histogram_has_no_probabilities(path2):
    empty = Histogram(1, 2, Binning(2))
    full = Histogram.from_samples(1, Binning(2), np.array([[0, 1]]), np.array([[0.0, 0.0]]))
    for pair in ((empty, full), (full, empty), (empty, empty)):
        with pytest.raises(DomainError, match="empty histogram"):
            estimate_tv(*pair)


def test_estimate_tv_value_is_pinned(path2):
    # 18 cells only in p, 5 only in q, 21 in both; the float is pinned bit
    # for bit, so a change to the order or arithmetic of the sum shows.
    rng = np.random.default_rng(20)
    p = Histogram.from_samples(1, Binning(4), *sample_uniform_allowed_batch(path2, rng, 70))
    q = Histogram.from_samples(1, Binning(4), *sample_uniform_allowed_batch(path2, rng, 45))
    assert (len(set(p.counts) - set(q.counts)), len(set(q.counts) - set(p.counts)),
            len(set(p.counts) & set(q.counts))) == (18, 5, 21)
    assert estimate_tv(p, q) == estimate_tv(q, p) == 0.5111111111111111


@pytest.mark.parametrize("quanta, frac", [
    (np.array([0, 1]), np.array([0.0, 0.1])),
    (np.array(0), np.array(0.0)),
], ids=["1-d", "0-d"])
def test_from_samples_rejects_batches_that_are_not_matrices(quanta, frac):
    with pytest.raises(DomainError, match="replicas, n_sites"):
        Histogram.from_samples(1, Binning(2), quanta, frac)


def test_sample_uniform_allowed_support_and_law(path2, rng):
    rec = enumerate_recurrent(path2)
    allowed = {tuple(r) for r in rec}
    quanta, frac = sample_uniform_allowed_batch(path2, rng, 30000)
    assert {tuple(r) for r in np.unique(quanta, axis=0)} <= allowed
    assert (frac >= 0.0).all() and (frac < 0.5).all()
    # quanta uniform over the three recurrent configurations
    _, counts = np.unique(quanta, axis=0, return_counts=True)
    assert stats.chisquare(counts).pvalue > 1e-4
    # frac uniform on [0, 1/2d) at each site
    for col in range(2):
        assert stats.kstest(frac[:, col] * 2.0, "uniform").pvalue > 1e-4
    single = sample_uniform_allowed(path2, rng, rec)
    assert tuple(single.quanta) in allowed


def test_sample_rational_limit_support(path2, rng):
    rec = enumerate_recurrent(path2)
    base = sample_uniform_allowed(path2, rng, rec)
    quanta, frac = sample_rational_limit_batch(path2, base, 0.5, rng, 1)
    draw = CbtwConfig(d=1, quanta=quanta[0], frac=frac[0])
    assert (draw.frac == base.frac).all()
    assert draw.is_stable()
    assert is_recurrent_burning(path2, draw.quanta)
    quanta, frac = sample_rational_limit_batch(path2, base, 0.5, rng, 500)
    assert (frac == base.frac).all()
    for row in np.unique(quanta, axis=0):
        assert is_recurrent_burning(path2, row)


def test_sample_rational_limit_holds_the_result_plus_one_block(path2):
    # 10^5 draws on the 2-site path relax one row block at a time, so no
    # (n, n_sites) odometer is built beside the (quanta, frac) result.
    n, base = 10**5, zero_config(path2)
    path2.recurrent  # built before tracing, as every later call finds it
    rng = np.random.default_rng(8)
    tracemalloc.start()
    try:
        quanta, frac = sample_rational_limit_batch(path2, base, 0.5, rng, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= quanta.nbytes + frac.nbytes + btw.BLOCK_CELLS * 8


def test_sample_rational_limit_validates_amount(path2, rng):
    base = zero_config(path2)
    with pytest.raises(DomainError):
        sample_rational_limit_batch(path2, base, 0.3, rng, 1)
    with pytest.raises(DomainError):
        sample_rational_limit_batch(path2, base, 0.0, rng, 1)
    unstable = CbtwConfig(d=1, quanta=np.array([2, 0]), frac=np.array([0.0, 0.0]))
    with pytest.raises(DomainError):
        sample_rational_limit_batch(path2, unstable, 0.5, rng, 1)


def test_rational_limit_from_zero_base_is_uniform_allowed(path2, rng):
    # adding one quantum everywhere to a uniform recurrent configuration and
    # stabilizing permutes the recurrent set, so from the zero base the
    # limiting quanta law is again uniform
    base = zero_config(path2)
    quanta, _ = sample_rational_limit_batch(path2, base, 0.5, rng, 30000)
    _, counts = np.unique(quanta, axis=0, return_counts=True)
    assert len(counts) == 3
    assert stats.chisquare(counts).pvalue > 1e-4


@pytest.mark.parametrize("t", [7.9, True, "7", -1], ids=["float", "bool", "str", "negative"])
def test_sample_rational_limit_rejects_bad_time_before_any_draw(grid22, t):
    # 2x2 has period 2, so t picks the coset and must be an integer >= 0.
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="time"):
        sample_rational_limit_batch(grid22, zero_config(grid22), 0.25, rng, 10, t=t)
    assert rng.bit_generator.state == state


def test_sample_rational_limit_takes_times_past_int64(grid22):
    # Only t mod 2 matters on 2x2, so t = 2^70 draws the rows of t = 0.
    rows = [sample_rational_limit_batch(grid22, zero_config(grid22), 0.25,
                                        np.random.default_rng(3), 40, t=t)[0]
            for t in (2**70, 2**70 % 2, 1)]
    assert np.array_equal(rows[0], rows[1]) and not np.array_equal(rows[0], rows[2])


def test_samplers_reject_negative_replica_counts(path2):
    rng = np.random.default_rng(0)
    base = zero_config(path2)
    for n in (-1, 2.0, True):
        with pytest.raises(DomainError):
            sample_uniform_allowed_batch(path2, rng, n)
        with pytest.raises(DomainError):
            sample_rational_limit_batch(path2, base, 0.5, rng, n)
    for quanta, frac in (sample_uniform_allowed_batch(path2, rng, 0),
                         sample_rational_limit_batch(path2, base, 0.5, rng, 0)):
        assert quanta.shape == frac.shape == (0, 2)


def test_tv_noise_floor_is_small_and_positive(path2, rng):
    floor = tv_noise_floor(path2, Binning(4), 4000, rng)
    assert 0.0 < floor < 0.35


class EveryIndex:
    """Stand-in generator: integers(k, size=k) draws each index once, so a
    sampler's output rows are its exact law."""

    def integers(self, high, size):
        assert size == high
        return np.arange(high)


@pytest.mark.parametrize("dims, base, l", [
    ([1], [0], 1),
    ([2], [0, 0], 1),
    ([2, 2], [0, 0, 0, 0], 1),
    ([2, 2], [0, 0, 0, 0], 2),
    ([2, 2], [0, 0, 0, 0], 3),
    ([2, 2], [3, 0, 1, 2], 1),
    ([2, 2], np.array([3, 0, 1, 2], dtype=np.uint64), 1),
    ([2, 1], [0, 0], 1),
    ([2, 1], [3, 1], 2),
    ([1, 1], [0], 3),
], ids=["1-l1", "2-l1", "2x2-l1", "2x2-l2", "2x2-l3", "2x2-l1-base", "2x2-l1-uint64-base",
        "2x1-l1", "2x1-l2-base", "1x1-l3"])
@pytest.mark.parametrize("t", [200, 201])
def test_rational_limit_law_is_the_exact_chain_law(dims, base, l, t):
    # g = gcd(boundary degrees) is 1 on the 2-site path, 2 on the 1-site
    # path and on 2x2, 3 on 2x1 and 4 on the 1x1 square; when g > 1 the
    # walk is periodic and the law at t depends on t mod g
    lat = build_lattice(dims)
    rec = enumerate_recurrent(lat)
    start = CbtwConfig(d=lat.d, quanta=np.array(base), frac=np.zeros(lat.n_sites))
    exact = oracles.fixed_amount_law(lat, start.quanta, l, t)
    quanta, _ = sample_rational_limit_batch(lat, start, l / (2 * lat.d), EveryIndex(),
                                            len(rec), t)
    rows, counts = np.unique(quanta, axis=0, return_counts=True)
    predicted = {tuple(r): c / len(rec) for r, c in zip(rows.tolist(), counts.tolist())}
    tv = 0.5 * sum(abs(exact.get(c, 0.0) - predicted.get(c, 0.0))
                   for c in set(exact) | set(predicted))
    assert tv < 1e-12


def test_rational_limit_needs_time_only_on_periodic_lattices(path2):
    box = build_lattice([2, 2])
    with pytest.raises(DomainError, match="period 2"):
        sample_rational_limit_batch(box, zero_config(box), 0.5, np.random.default_rng(0), 1)
    # g = 1: the time changes neither the draws nor the random stream
    rngs = [np.random.default_rng(5), np.random.default_rng(5)]
    a = sample_rational_limit_batch(path2, zero_config(path2), 0.5, rngs[0], 50)
    b = sample_rational_limit_batch(path2, zero_config(path2), 0.5, rngs[1], 50, t=7)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.parametrize("table", [
    enumerate_recurrent(build_lattice([2, 2])),
    np.zeros((0, 2), dtype=np.int64),
    np.ones((3, 2)),
    np.ones(2, dtype=np.int64),
    [[1, 1]],
], ids=["other-lattice", "empty", "float", "1-d", "list"])
def test_sample_uniform_allowed_rejects_a_foreign_table_before_the_draw(path2, table):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DomainError):
        sample_uniform_allowed(path2, rng, table)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("row", [[2, 1], [1, -1]], ids=["unstable", "negative"])
def test_sample_uniform_allowed_rejects_an_unstable_drawn_row(path2, row):
    with pytest.raises(DomainError, match="not stable"):
        sample_uniform_allowed(path2, np.random.default_rng(0), np.array([row]))
