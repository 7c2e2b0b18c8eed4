from fractions import Fraction
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from sandpiles import (AdditionParams, Binning, CbtwConfig, DomainError,
                       build_lattice, cbtw_add, cbtw_inverse_add, cbtw_stabilize,
                       cbtw_topple, coupling_success_probability, decompose,
                       epoch_shape, ergodic_average, enumerate_recurrent,
                       invariance_experiment, is_allowed_cbtw, phase_observable,
                       rational_limit_test, run_chain,
                       run_chain_ensemble, run_coupling, run_coupling_ensemble,
                       sample_rational_limit_batch, sample_uniform_allowed,
                       sample_uniform_allowed_batch,
                       step_ensemble, translation_mixture_bound,
                       translation_mixture_fourier,
                       translation_mixture_fourier_mc, tv_decay_experiment,
                       zero_config)
from sandpiles import Lattice, experiments
from sandpiles.cbtw import FRAC_MASK, _add_inplace, grid_scale, grid_units
from sandpiles.measures import Histogram, estimate_tv, tv_noise_floor

from oracles import stepwise_chain, stepwise_chain_ensemble, stepwise_coupling_ensemble


def test_run_chain_deterministic(path2):
    params = AdditionParams(0.1, 0.9)
    init = zero_config(path2)
    s1 = run_chain(path2, init, params, 200, np.random.default_rng(7))
    s2 = run_chain(path2, init, params, 200, np.random.default_rng(7))
    assert s1.t == 200
    assert np.array_equal(s1.config.quanta, s2.config.quanta)
    assert (s1.config.frac == s2.config.frac).all()
    assert np.array_equal(s1.theta, s2.theta)


def test_run_chain_reports_steps(path2):
    seen = []

    def on_step(t, x, u, quanta, frac):
        seen.append((t, x, u, quanta.copy(), frac.copy()))

    params = AdditionParams(0.3, 0.3)
    state = run_chain(path2, zero_config(path2), params, 50,
                      np.random.default_rng(1), on_step=on_step)
    assert [s[0] for s in seen] == list(range(1, 51))
    assert all(s[2] == 0.3 for s in seen)
    assert np.array_equal(seen[-1][3], state.config.quanta)
    assert np.isclose(state.theta.sum(), 50 * 0.3)


def test_run_chain_rejects_negative_steps(path2):
    with pytest.raises(DomainError, match="steps"):
        run_chain(path2, zero_config(path2), AdditionParams(0.3, 0.3), -5,
                  np.random.default_rng(0))
    assert run_chain(path2, zero_config(path2), AdditionParams(0.3, 0.3), 0,
                     np.random.default_rng(0)).t == 0


def test_fixed_mode_tracks_counts(path2):
    # The fractional part at each site is fixed by its addition count alone:
    # (F0 + count * U) mod 2^50 on the grid, for either chain driver.
    a = 0.4
    visits = np.zeros(2, dtype=np.int64)

    def on_step(t, x, u, quanta, frac):
        visits[x] += 1

    state = run_chain(path2, zero_config(path2), AdditionParams(a, a), 120,
                      np.random.default_rng(3), on_step=on_step)
    assert visits.sum() == 120
    U = int(grid_units(a, 1))
    assert (state.config.frac == ((visits * U) & FRAC_MASK) / grid_scale(1)).all()
    quanta, frac = np.zeros((1, 2), dtype=np.int64), np.zeros((1, 2))
    run_chain_ensemble(path2, quanta, frac, AdditionParams(a, a), 120,
                       np.random.default_rng(3))
    assert np.isin(frac[0], (np.arange(121) * U & FRAC_MASK) / grid_scale(1)).all()


def test_step_ensemble_matches_scalar_kernel(path2, rng):
    n = 60
    quanta, frac = sample_uniform_allowed_batch(path2, rng, n)
    xs = rng.integers(2, size=n)
    us = rng.uniform(0.0, 1.0, size=n)
    vq, vf = quanta.copy(), frac.copy()
    step_ensemble(path2, vq, vf, xs, us)
    for i in range(n):
        q, f = quanta[i].copy(), frac[i].copy()
        _add_inplace(path2, q, f, int(xs[i]), float(us[i]))
        assert np.array_equal(vq[i], q)
        assert (vf[i] == f).all()


def test_step_ensemble_tracked_matches_scalar(path2, rng):
    # Fixed-amount steps: the ensemble kernel equals the scalar one bit for bit.
    n = 40
    amount = np.sqrt(2.0) - 1.0
    quanta, frac = sample_uniform_allowed_batch(path2, rng, n)
    vq, vf = quanta.copy(), frac.copy()
    sq, sf = quanta.copy(), frac.copy()
    for step in range(50):
        xs = rng.integers(2, size=n)
        step_ensemble(path2, vq, vf, xs, np.full(n, amount))
        for i in range(n):
            _add_inplace(path2, sq[i], sf[i], int(xs[i]), amount)
    assert np.array_equal(vq, sq)
    assert (vf == sf).all()


def test_step_ensemble_rejects_negative_carry():
    lat = build_lattice([2])
    quanta, frac = np.array([[0, 0]]), np.array([[-0.3, 0.0]])
    with pytest.raises(DomainError):
        step_ensemble(lat, quanta, frac, np.array([0]), np.array([0.1]))
    assert np.array_equal(quanta, [[0, 0]]) and (frac == [[-0.3, 0.0]]).all()


def test_run_chain_ensemble_rejects_negative_carry(path1):
    # Two additions of 0.1 would leave -0.1 at the only site, a carry of -1;
    # the fractional part -0.3 is rejected before any draw.
    quanta, frac = np.zeros((3, 1), dtype=np.int64), np.full((3, 1), -0.3)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="frac"):
        run_chain_ensemble(path1, quanta, frac, AdditionParams(0.1, 0.1), 2, rng)
    assert rng.bit_generator.state == state


def _read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("rows", [
    lambda: (np.zeros((4, 3), dtype=np.int64), np.zeros((4, 3))),
    lambda: (np.zeros((4, 2), dtype=np.int64), np.zeros((4, 3))),
    lambda: (np.zeros(2, dtype=np.int64), np.zeros(2)),
    lambda: (np.zeros((4, 2)), np.zeros((4, 2))),
    lambda: (np.zeros((4, 2), dtype=np.int64), np.zeros((4, 2), dtype=np.int64)),
    lambda: (np.full((4, 2), -1), np.zeros((4, 2))),
    lambda: (np.zeros((4, 2), dtype=np.int64), np.full((4, 2), 0.7)),
    lambda: (np.zeros((4, 2), dtype=np.int64), np.full((4, 2), np.nan)),
    lambda: (_read_only(np.zeros((4, 2), dtype=np.int64)), np.zeros((4, 2))),
    lambda: (np.zeros((4, 2), dtype=np.int64), _read_only(np.zeros((4, 2)))),
], ids=["three-columns", "frac-shape", "one-d", "float-quanta", "integer-frac",
        "negative-quanta", "frac-0.7", "frac-nan", "read-only-quanta", "read-only-frac"])
@pytest.mark.parametrize("params", [AdditionParams(0.3, 0.3), AdditionParams(0.2, 0.8)],
                         ids=["fixed", "interval"])
def test_run_chain_ensemble_checks_rows_before_any_draw(path2, rows, params):
    quanta, frac = rows()
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DomainError):
        run_chain_ensemble(path2, quanta, frac, params, 100, rng)
    assert rng.bit_generator.state == state


def _two_rows(lat):
    return np.zeros((2, lat.n_sites), dtype=np.int64), np.zeros((2, lat.n_sites))


@pytest.mark.parametrize("call", [
    lambda lat: step_ensemble(lat, *_two_rows(lat), np.array([0, -1]), np.full(2, 0.3)),
    lambda lat: step_ensemble(lat, *_two_rows(lat), np.array([0, 2]), np.full(2, 0.3)),
    lambda lat: step_ensemble(lat, *_two_rows(lat), np.array([0.0, 1.0]), np.full(2, 0.3)),
    lambda lat: step_ensemble(lat, *_two_rows(lat), np.array([0]), np.full(1, 0.3)),
    lambda lat: step_ensemble(lat, *_two_rows(lat), np.array([0, 1]), np.full(3, 0.3)),
    lambda lat: run_chain_ensemble(lat, *_two_rows(lat), AdditionParams(0.2, 0.8), -5,
                                   np.random.default_rng(0)),
    lambda lat: run_coupling_ensemble(lat, *_two_rows(lat), *_two_rows(lat),
                                      AdditionParams(0.2, 0.8), -1, np.random.default_rng(0)),
    lambda lat: rational_limit_test(lat, zero_config(lat), 0.5, -3, 10,
                                    np.random.default_rng(0)),
], ids=["site-negative", "site-n", "site-float", "too-few-sites", "too-many-amounts",
        "chain-negative-steps", "coupling-negative-epochs", "limit-negative-time"])
def test_ensemble_drivers_reject_bad_arguments(path2, call):
    with pytest.raises(DomainError):
        call(path2)


@pytest.mark.parametrize("count", [2.5, True])
@pytest.mark.parametrize("call", [
    lambda lat, n, rng: run_chain(lat, zero_config(lat), AdditionParams(0.3, 0.3), n, rng),
    lambda lat, n, rng: run_chain_ensemble(lat, *_two_rows(lat), AdditionParams(0.3, 0.3),
                                           n, rng),
    lambda lat, n, rng: ergodic_average(lat, zero_config(lat), 0.3, n, lambda cfg: 1.0, rng),
    lambda lat, n, rng: run_coupling(lat, zero_config(lat), zero_config(lat),
                                     AdditionParams(0.2, 0.8), rng, max_epochs=n),
    lambda lat, n, rng: run_coupling_ensemble(lat, *_two_rows(lat), *_two_rows(lat),
                                              AdditionParams(0.2, 0.8), n, rng),
    lambda lat, n, rng: translation_mixture_fourier_mc(0.3, [1], [0.0], 10, n, rng),
], ids=["chain-steps", "ensemble-steps", "ergodic-steps", "coupling-max-epochs",
        "coupling-ensemble-epochs", "fourier-mc-samples"])
def test_drivers_reject_non_integer_counts(path2, call, count):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="must be an integer"):
        call(path2, count, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("times", [(0, 4), (4, -1), (), (5,), (5, 5), (1.5, 2), (True, 2)])
def test_tv_decay_rejects_bad_times(path2, times):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DomainError):
        tv_decay_experiment(path2, AdditionParams(0.2, 0.8), times, 10, Binning(2), rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("call", [
    lambda lat, n, rng: invariance_experiment(lat, Binning(2), n, rng),
    lambda lat, n, rng: rational_limit_test(lat, zero_config(lat), 0.5, 5, n, rng),
    lambda lat, n, rng: tv_decay_experiment(lat, AdditionParams(0.2, 0.8), (1, 2), n,
                                            Binning(2), rng),
    lambda lat, n, rng: tv_noise_floor(lat, Binning(2), n, rng),
], ids=["invariance", "rational-limit", "tv-decay", "noise-floor"])
def test_experiments_reject_empty_samples_before_any_work(monkeypatch, path2, call, n):
    def no_work(lat):
        raise AssertionError("the sample count was checked after work began")

    monkeypatch.setattr(experiments.btw, "enumerate_recurrent", no_work)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DomainError):
        call(path2, n, rng)
    assert rng.bit_generator.state == state


IRREGULAR5 = Lattice(2, [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)])
SQRT2M1 = float(np.sqrt(2.0) - 1.0)


def _offgrid_start(lat, n, seed):
    # Uniform allowed quanta (uniform stable ones where the recurrent set is
    # too large to enumerate) with fractional parts off the grid, so every
    # cell the chain never visits must keep its exact bits.
    rng = np.random.default_rng(seed)
    if lat.threshold ** lat.n_sites > experiments.btw.ENUMERATION_CAP:
        quanta = rng.integers(lat.threshold, size=(n, lat.n_sites))
    else:
        quanta, _ = sample_uniform_allowed_batch(lat, rng, n)
    frac = rng.uniform(0.0, 1.0 / (2 * lat.d), size=quanta.shape)
    return quanta, frac


@pytest.mark.parametrize("lat", [build_lattice([2]), build_lattice([3, 3])],
                         ids=["path2", "box3x3"])
@pytest.mark.parametrize("params, start", [
    (AdditionParams(SQRT2M1, SQRT2M1), "allowed"),
    (AdditionParams(0.2, 0.8), "allowed"),
    (AdditionParams(0.0, 0.9999999999999999), "allowed"),
    (AdditionParams(0.3, 0.3 + 2**-40), "allowed"),
    (AdditionParams(0.123456789, 0.987654321), "allowed"),
    (AdditionParams(0.2, 0.8), "overfull"),
    (AdditionParams(0.2, 0.8), "negative-carry"),
], ids=["fixed", "interval", "interval-below-1", "interval-2^-40-wide", "interval-decimals",
        "interval-overfull", "interval-negative-carry"])
def test_run_chain_matches_stepwise_draws(lat, params, start):
    # 5000 fixed-amount steps span two site-draw blocks; the reference draws
    # one site per step and each amount through rng.uniform, and adds it
    # through _add_inplace. The start is off the fixed-point grid. An
    # overfull start holds 2d + 1 quanta at site 0 and none elsewhere;
    # site 0 must not topple until a step adds there or an avalanche
    # reaches it.
    quanta, frac = _offgrid_start(lat, 1, 4)
    init = CbtwConfig(d=lat.d, quanta=quanta[0], frac=frac[0])
    if start == "overfull":
        init.quanta[:] = 0
        init.quanta[0] = lat.threshold + 1
    rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
    if start == "negative-carry":
        # The start is checked, so only a callback writing through its live
        # views can leave a negative fractional part. The next step carries
        # a negative number of quanta and must raise as _add_inplace does.
        def corrupt(t, x, u, quanta, frac):
            if t == 100:
                frac[:] = -1.0

        errors = []
        for chain, r in ((run_chain, rng), (stepwise_chain, ref_rng)):
            with pytest.raises(DomainError, match="would remove quanta") as err:
                chain(lat, init, params, 5000, r, corrupt)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
    else:
        # Abelianness makes the end state blind to when a site topples, so
        # every step's state is compared.
        seen, ref_seen = [], []
        state = run_chain(lat, init, params, 5000, rng,
                          lambda t, x, u, q, f: seen.append((x, u, q.tobytes(), f.tobytes())))
        quanta, frac, theta = stepwise_chain(
            lat, init, params, 5000, ref_rng,
            lambda t, x, u, q, f: ref_seen.append((x, u, q.tobytes(), f.tobytes())))
        assert seen == ref_seen
        assert np.array_equal(state.config.quanta, quanta)
        assert np.array_equal(state.config.frac, frac)
        assert np.array_equal(state.theta, theta)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _state(quanta, frac, d=1):
    return CbtwConfig(d=d, quanta=np.array(quanta), frac=np.array(frac))


# States off the 2-site path (d = 1, frac cell [0, 1/2)). "d2" is off it
# only where a CbtwConfig carries its own dimension. The NaN sits on site
# 1, and every addition below goes to site 0.
_BAD_STATES = {
    "three-sites": _state([0, 0, 0], [0.0, 0.0, 0.0]),
    "d2": _state([0, 0], [0.0, 0.0], d=2),
    "negative-quanta": _state([-1, 0], [0.0, 0.0]),
    "one-site": _state([0], [0.0]),
    "integer-frac": _state([0, 0], [0, 0]),
    "float32-frac": _state([0, 0], np.zeros(2, dtype=np.float32)),
    "float-quanta": _state([0.0, 1.0], [0.0, 0.0]),
    "frac-at-cell-edge": _state([0, 0], [0.5, 0.0]),
    "frac-above-cell": _state([0, 0], [0.7, 0.0]),
    "nan-frac": _state([0, 0], [0.0, np.nan]),
    "mismatched-shapes": _state([0, 0], [0.0, 0.0, 0.0]),
}
_BAD_AMOUNTS = {"amount-1.7": 1.7, "nan-amount": np.nan}
_INTERVAL = AdditionParams(0.2, 0.8)

# Every entry point that takes a state, called on the CbtwConfig `cfg` or on
# `rows`, two replica rows of it, with amount u.
_CONFIG_ENTRY_POINTS = {
    "cbtw_topple": lambda lat, cfg, rows, u, rng: cbtw_topple(lat, cfg, 0),
    "cbtw_stabilize": lambda lat, cfg, rows, u, rng: cbtw_stabilize(lat, cfg),
    "cbtw_add": lambda lat, cfg, rows, u, rng: cbtw_add(lat, cfg, 0, u),
    "cbtw_inverse_add": lambda lat, cfg, rows, u, rng: cbtw_inverse_add(lat, cfg, 0, u),
    "is_allowed_cbtw": lambda lat, cfg, rows, u, rng: is_allowed_cbtw(lat, cfg),
    "run_chain": lambda lat, cfg, rows, u, rng: run_chain(lat, cfg, _INTERVAL, 10, rng),
    "ergodic_average": lambda lat, cfg, rows, u, rng: ergodic_average(
        lat, cfg, u, 10, lambda c: 1.0, rng),
    "run_coupling": lambda lat, cfg, rows, u, rng: run_coupling(
        lat, cfg, zero_config(lat), _INTERVAL, rng, max_epochs=1),
    "sample_rational_limit_batch": lambda lat, cfg, rows, u, rng: sample_rational_limit_batch(
        lat, cfg, 0.5, rng, 4),
}
_ENTRY_POINTS = {
    **_CONFIG_ENTRY_POINTS,
    "step_ensemble": lambda lat, cfg, rows, u, rng: step_ensemble(lat, *rows, [0, 0], [u, u]),
    "run_chain_ensemble": lambda lat, cfg, rows, u, rng: run_chain_ensemble(
        lat, *rows, _INTERVAL, 10, rng),
    "run_coupling_ensemble": lambda lat, cfg, rows, u, rng: run_coupling_ensemble(
        lat, *_two_rows(lat), *rows, _INTERVAL, 1, rng),
}
_REJECTED = [(driver, state) for driver in _ENTRY_POINTS for state in _BAD_STATES
             if state != "d2" or driver in _CONFIG_ENTRY_POINTS]
_REJECTED += [("step_ensemble", amount) for amount in _BAD_AMOUNTS]


@pytest.mark.parametrize("driver, state", _REJECTED, ids=[f"{d}-{s}" for d, s in _REJECTED])
def test_chain_drivers_reject_initial_off_the_lattice(path2, driver, state):
    """Every entry point that takes a state raises DomainError on a bad
    one before any write or draw."""
    cfg = _BAD_STATES.get(state, zero_config(path2))
    rows = [np.tile(v, (2, 1)) for v in (cfg.quanta, cfg.frac)]
    inputs = [cfg.quanta, cfg.frac, *rows]
    before = [(v.dtype, v.shape, v.tobytes()) for v in inputs]
    rng = np.random.default_rng(0)
    rng_before = rng.bit_generator.state
    with pytest.raises(DomainError):
        _ENTRY_POINTS[driver](path2, cfg, rows, _BAD_AMOUNTS.get(state, 0.3), rng)
    assert [(v.dtype, v.shape, v.tobytes()) for v in inputs] == before
    assert rng.bit_generator.state == rng_before


def _assert_chain_matches_stepwise(lat, params, steps, snapshots, n, seed):
    quanta, frac = _offgrid_start(lat, n, seed)
    start = frac.copy()
    ref_q, ref_f = quanta.copy(), frac.copy()
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    snaps, t = {}, 0
    for stop in sorted({*snapshots, steps}):
        run_chain_ensemble(lat, quanta, frac, params, stop - t, rng)
        if stop in snapshots:
            snaps[stop] = (quanta.copy(), frac.copy())
        t = stop
    ref = stepwise_chain_ensemble(lat, ref_q, ref_f, params, steps, ref_rng, snapshots)
    assert np.array_equal(quanta, ref_q) and np.array_equal(frac, ref_f)
    assert snaps.keys() == ref.keys() == set(snapshots)
    for t in snapshots:
        assert np.array_equal(snaps[t][0], ref[t][0])
        assert np.array_equal(snaps[t][1], ref[t][1])
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return start, frac


@pytest.mark.parametrize("lat", [build_lattice([2]), build_lattice([3, 3]), IRREGULAR5],
                         ids=["path2", "box3x3", "irregular5"])
@pytest.mark.parametrize("params", [AdditionParams(0.5, 0.5), AdditionParams(SQRT2M1, SQRT2M1),
                                    AdditionParams(0.2, 0.8)],
                         ids=["fixed-half", "fixed-sqrt2m1", "interval"])
@pytest.mark.parametrize("draw_block", [experiments.DRAW_BLOCK, 250])
def test_run_chain_ensemble_matches_stepwise(lat, params, draw_block, monkeypatch):
    # draw_block 250 splits the fixed-amount site draws into blocks of 2 steps.
    monkeypatch.setattr(experiments, "DRAW_BLOCK", draw_block)
    start, frac = _assert_chain_matches_stepwise(lat, params, 6, (1, 3, 4, 6), 100, 17)
    assert (frac == start).any()  # some cells were never visited


@pytest.mark.parametrize("dims, params, steps", [
    ([10, 10], AdditionParams(SQRT2M1, SQRT2M1), 2100),
    ([2], AdditionParams(0.2, 0.8), 2100),
    ([1], AdditionParams(0.99, 0.99), 4400),
    ([1], AdditionParams(0.9, 0.99), 4400),
], ids=["box10x10-fixed", "path2-interval", "path1-fixed", "path1-interval"])
def test_run_chain_ensemble_matches_stepwise_past_one_fold(dims, params, steps):
    # Sums are folded in at least every 2^12/2d steps; on the 1-site path,
    # the 4397 additions near 1 between the snapshots would overflow int64
    # in one sum. A fixed amount keeps its per-step draws in a fold of fewer
    # than 16 steps per site, as in the 1024-step folds on 10x10; on one
    # site the counts draw nothing, like the per-step draws of integers(1).
    _assert_chain_matches_stepwise(build_lattice(dims), params, steps, (3, steps), 3, 29)


@pytest.mark.parametrize("dims, amount, steps", [
    ([2], SQRT2M1, 2100),
    ([3, 3], SQRT2M1, 400),
    ([1], 0.99, 4400),
], ids=["path2", "box3x3", "path1"])
def test_run_chain_ensemble_fixed_folds_match_stepwise_given_counts(dims, amount, steps):
    # A fold of at least 16 steps per site draws each row's hit counts in one
    # multinomial call. A twin generator makes the same calls, and each row
    # then takes its sites one at a time through _add_inplace, in shuffled
    # order: abelianness makes the order irrelevant, bit for bit.
    lat = build_lattice(dims)
    n, m = 5, lat.n_sites
    quanta, frac = _offgrid_start(lat, n, 41)
    ref_q, ref_f = quanta.copy(), frac.copy()
    rng, ref_rng, order = (np.random.default_rng(s) for s in (43, 43, 47))
    run_chain_ensemble(lat, quanta, frac, AdditionParams(amount, amount), steps, rng)
    fold = experiments.FOLD_LIMIT // lat.threshold
    for t in range(0, steps, fold):
        T = min(steps - t, fold)
        assert T >= experiments.COUNTS_MIN * m
        counts = ref_rng.multinomial(T, np.full(m, 1.0 / m), size=n)
        for row in range(n):
            for x in order.permutation(np.repeat(np.arange(m), counts[row])).tolist():
                _add_inplace(lat, ref_q[row], ref_f[row], x, amount)
    assert np.array_equal(quanta, ref_q)
    assert frac.tobytes() == ref_f.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _binomial_chisquare_pvalue(counts, T, p):
    # Tails with expected counts under 5 are pooled into the end bins.
    expected = stats.binom.pmf(np.arange(T + 1), T, p) * len(counts)
    observed = np.bincount(counts, minlength=T + 1)
    big = np.flatnonzero(expected >= 5)
    lo, hi = big[0], big[-1] + 1
    obs = np.r_[observed[:lo].sum(), observed[lo:hi], observed[hi:].sum()]
    exp = np.r_[expected[:lo].sum(), expected[lo:hi], expected[hi:].sum()]
    return stats.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue


@pytest.mark.parametrize("steps", [400, 100], ids=["counts", "per-step"])
def test_run_chain_ensemble_fixed_hit_counts_law(steps):
    # An amount of 2^-40 is U = 2^12 grid units on 3x3 and never carries in
    # 400 steps from zero, so the fractional parts give back each row's hit
    # counts exactly. Site 0's count is Binomial(T, 1/9) on either side of
    # the 16 steps per site rule.
    lat = build_lattice([3, 3])
    n, U = 20_000, int(grid_units(2.0**-40, lat.d))
    assert U == 1 << 12
    quanta = np.zeros((n, lat.n_sites), dtype=np.int64)
    frac = np.zeros((n, lat.n_sites))
    run_chain_ensemble(lat, quanta, frac, AdditionParams(2.0**-40, 2.0**-40), steps,
                       np.random.default_rng(53))
    units = grid_units(frac, lat.d)
    counts = units // U
    assert (counts * U == units).all() and not quanta.any()
    assert (counts.sum(axis=1) == steps).all()
    assert _binomial_chisquare_pvalue(counts[:, 0], steps, 1.0 / 9) > 1e-4


def test_phase_observable_matches_dense_form(grid22, rng):
    for _ in range(20):
        cfg = sample_uniform_allowed(grid22, rng)
        dense = np.exp(4j * np.pi * grid22.d * cfg.heights().sum())
        assert abs(phase_observable(cfg) - dense) < 1e-12


def test_phase_rotates_by_fixed_amount(path2):
    a = np.sqrt(2.0) - 1.0
    g0 = phase_observable(zero_config(path2))
    gaps = []

    def on_step(t, x, u, quanta, frac):
        cfg = CbtwConfig(d=1, quanta=quanta, frac=frac)
        predicted = g0 * np.exp(4j * np.pi * path2.d * a * t)
        gaps.append(abs(phase_observable(cfg) - predicted))

    run_chain(path2, zero_config(path2), AdditionParams(a, a), 300,
              np.random.default_rng(11), on_step=on_step)
    assert len(gaps) == 300 and max(gaps) < 1e-10


def test_epoch_shape_frozen(path1, path2):
    assert epoch_shape(path2, AdditionParams(0.2, 0.8)) == (7, 14)
    assert epoch_shape(path1, AdditionParams(0.0, 0.96)) == (5, 5)
    with pytest.raises(DomainError):
        epoch_shape(path2, AdditionParams(0.5, 0.5))


def test_coupling_probability_frozen(path1, path2):
    assert coupling_success_probability(path2, AdditionParams(0.2, 0.8)) \
        == Fraction(3432, 2 ** 28)
    assert coupling_success_probability(path1, AdditionParams(0.0, 0.96)) \
        == Fraction(1, 32)


def test_run_coupling_coalesces_single_site(path1):
    params = AdditionParams(0.0, 0.96)
    eta0 = zero_config(path1)
    zeta0 = decompose(path1, [0.7])
    result = run_coupling(path1, eta0, zeta0, params, np.random.default_rng(5))
    assert result.coalesced
    assert result.M == 5 and result.L == 5
    assert np.array_equal(result.eta.quanta, result.zeta.quanta)
    assert np.array_equal(result.eta.frac, result.zeta.frac)
    # every epoch where the event fired must have coalesced
    for rec in result.records:
        if rec.o_occurred:
            assert rec.coalesced
    assert result.records[-1].coalesced
    again = run_coupling(path1, eta0, zeta0, params, np.random.default_rng(5))
    assert again.n_epochs == result.n_epochs


def test_run_coupling_equal_starts_coalesce_immediately(path2):
    params = AdditionParams(0.2, 0.8)
    cfg = decompose(path2, [0.6, 0.1])
    result = run_coupling(path2, cfg, cfg, params, np.random.default_rng(2))
    assert result.coalesced
    assert result.n_epochs == 1


def test_run_coupling_ensemble_all_events_verified(path1, rng):
    params = AdditionParams(0.0, 0.96)
    n = 200
    eta_q = np.zeros((n, 1), dtype=np.int64)
    eta_f = np.zeros((n, 1))
    zeta_q = np.ones((n, 1), dtype=np.int64)
    zeta_f = rng.uniform(0.0, 0.5, size=(n, 1))
    out = run_coupling_ensemble(path1, eta_q, eta_f, zeta_q, zeta_f,
                                params, 20, rng)
    assert out.o_events.shape == (20, n)
    assert out.o_events.any()
    assert (out.o_verified == out.o_events).all()
    # frequency sanity: 4000 Bernoulli(1/32) trials
    count = out.o_events.sum()
    assert 60 <= count <= 200


def test_run_coupling_coalesces_bit_for_bit(path2):
    params = AdditionParams(0.2, 0.8)
    eta0 = zero_config(path2)
    zeta0 = decompose(path2, [0.9, np.sqrt(2.0) - 1.0])
    result = run_coupling(path2, eta0, zeta0, params, np.random.default_rng(4),
                          max_epochs=20000)
    assert result.coalesced
    assert np.array_equal(result.eta.quanta, result.zeta.quanta)
    assert np.array_equal(result.eta.frac, result.zeta.frac)


def test_run_coupling_ensemble_coalesces_bit_for_bit(path1, rng):
    # Pairs whose epoch saw the event must hold identical arrays.
    params = AdditionParams(0.0, 0.96)
    n = 2000
    eta_q, eta_f = np.zeros((n, 1), dtype=np.int64), np.zeros((n, 1))
    zeta_q, zeta_f = sample_uniform_allowed_batch(path1, rng, n)
    out = run_coupling_ensemble(path1, eta_q, eta_f, zeta_q, zeta_f, params, 1, rng)
    hit = out.o_events[0]
    assert hit.sum() >= 20
    assert np.array_equal(out.o_verified, out.o_events)
    assert np.array_equal(eta_q[hit], zeta_q[hit])
    assert np.array_equal(eta_f[hit], zeta_f[hit])
    assert not np.array_equal(eta_f[~hit], zeta_f[~hit])


@pytest.mark.parametrize("shape", ["path1", "criterion7", "long-epoch"])
def test_run_coupling_ensemble_matches_stepwise(shape):
    if shape == "path1":
        lat, params, n, epochs = build_lattice([1]), AdditionParams(0.0, 0.96), 60, 6
    elif shape == "criterion7":
        lat, params, n, epochs = build_lattice([2]), AdditionParams(0.2, 0.8), 80, 4
    else:  # one epoch of 4445 additions near 1: int64 overflows unless folded
        lat, params, n, epochs = build_lattice([1]), AdditionParams(0.9985, 0.9994), 2, 1
    rng = np.random.default_rng(77)
    eta_q, eta_f = np.zeros((n, lat.n_sites), dtype=np.int64), np.zeros((n, lat.n_sites))
    zeta_q, zeta_f = _offgrid_start(lat, n, 78)
    arrays = [eta_q, eta_f, zeta_q, zeta_f]
    ref_arrays = [v.copy() for v in arrays]
    ref_rng = np.random.default_rng(77)
    out = run_coupling_ensemble(lat, *arrays, params, epochs, rng)
    events, verified = stepwise_coupling_ensemble(lat, *ref_arrays, params, epochs, ref_rng)
    assert np.array_equal(out.o_events, events)
    assert np.array_equal(out.o_verified, verified)
    for got, want in zip(arrays, ref_arrays):
        assert np.array_equal(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("shape", ["path2", "long-epoch"])
def test_run_coupling_matches_stepwise(shape):
    # run_coupling is one row of the ensemble epoch; the reference adds
    # step by step through _add_inplace. The long epoch folds mid-epoch.
    if shape == "path2":
        lat, params, max_epochs = build_lattice([2]), AdditionParams(0.2, 0.8), 20000
    else:
        lat, params, max_epochs = build_lattice([1]), AdditionParams(0.9985, 0.9994), 2
    zeta_q, zeta_f = _offgrid_start(lat, 1, 5)
    eta0 = zero_config(lat)
    zeta0 = CbtwConfig(d=lat.d, quanta=zeta_q[0], frac=zeta_f[0])
    rng, ref_rng = np.random.default_rng(41), np.random.default_rng(41)
    result = run_coupling(lat, eta0, zeta0, params, rng, max_epochs=max_epochs)
    ref = [eta0.quanta[None, :].copy(), eta0.frac[None, :].copy(), zeta_q.copy(), zeta_f.copy()]
    events, _ = stepwise_coupling_ensemble(lat, *ref, params, result.n_epochs, ref_rng)
    assert [r.o_occurred for r in result.records] == events[:, 0].tolist()
    assert [r.epoch for r in result.records] == list(range(1, result.n_epochs + 1))
    got = [result.eta.quanta, result.eta.frac, result.zeta.quanta, result.zeta.frac]
    for g, want in zip(got, ref):
        assert np.array_equal(g, want[0])
    assert result.coalesced == (np.array_equal(ref[0], ref[2]) and np.array_equal(ref[1], ref[3]))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_fourier_frozen_values():
    # zero frequency integrates to 1
    assert translation_mixture_fourier(0.3, [0, 0], [0.1, 0.9], 50) == 1.0
    # single-term mixture is the character at the start point
    val = translation_mixture_fourier(0.3, [2], [0.25], 1)
    assert abs(val - (-1.0)) < 1e-12
    # alpha = i: (1 - i^2) / (2 (1 - i)) = (1 + i)/2
    val = translation_mixture_fourier(0.25, [1], [0.0], 2)
    assert abs(val - (0.5 + 0.5j)) < 1e-12
    # alpha = 1 branch: whole-turn translations leave the character fixed
    val = translation_mixture_fourier(0.5, [2], [0.3], 77)
    assert abs(val - np.exp(2j * np.pi * 0.6)) < 1e-12


def test_fourier_shape_mismatch():
    with pytest.raises(DomainError):
        translation_mixture_fourier(0.3, [1, 2], [0.0], 5)


def test_fourier_mc_agrees_with_closed_form(rng):
    cases = [
        (0.3, [1], [0.0], 10),
        (np.sqrt(2.0) - 1.0, [1, -2], [0.2, 0.7], 25),
        (0.77, [3, 1, -1], [0.1, 0.4, 0.9], 40),
    ]
    for step, k, x, n_terms in cases:
        exact = translation_mixture_fourier(step, k, x, n_terms)
        mc, se = translation_mixture_fourier_mc(step, k, x, n_terms, 60000, rng)
        assert abs(exact - mc) <= 4.0 * se


@pytest.mark.parametrize("n_samples", [0, 1])
def test_fourier_mc_needs_two_samples(rng, n_samples):
    with pytest.raises(DomainError, match="at least 2 samples"):
        translation_mixture_fourier_mc(0.3, [1], [0.0], 10, n_samples, rng)


@pytest.mark.parametrize("call", [
    lambda n: translation_mixture_fourier(0.3, [1], [0.0], n),
    lambda n: translation_mixture_bound(0.3, [1], n),
    lambda n: translation_mixture_fourier_mc(0.3, [1], [0.0], n, 10, np.random.default_rng(0)),
], ids=["closed-form", "bound", "monte-carlo"])
@pytest.mark.parametrize("n_terms", [0, -2, 2.5])
def test_fourier_rejects_bad_term_counts(call, n_terms):
    with pytest.raises(DomainError):
        call(n_terms)


def test_fourier_mc_zero_frequency_is_exact(rng):
    mc, se = translation_mixture_fourier_mc(0.4, [0, 0], [0.3, 0.1], 12, 500, rng)
    assert mc == 1.0
    assert se == 0.0


def test_fourier_bound_holds():
    rng = np.random.default_rng(42)
    for _ in range(25):
        m = int(rng.integers(1, 4))
        k = rng.integers(-3, 4, size=m)
        if not k.any():
            continue
        step = float(rng.uniform(0.0, 1.0))
        x = rng.uniform(0.0, 1.0, size=m)
        for n_terms in (10, 100, 1000):
            val = translation_mixture_fourier(step, k, x, n_terms)
            bound = translation_mixture_bound(step, k, n_terms)
            assert abs(val) <= bound + 1e-12


def test_ergodic_average_constant_observable(path2):
    avg = ergodic_average(path2, zero_config(path2), 0.3, 50,
                          lambda cfg: 1.0, np.random.default_rng(0))
    assert np.isclose(avg, 1.0)


def test_ergodic_average_matches_scalar_draws(path2):
    # 5000 steps span two site-draw blocks; the reference draws one site per step.
    amount = SQRT2M1

    def observable(cfg):
        return np.concatenate([cfg.quanta, cfg.frac])

    rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
    avg = ergodic_average(path2, zero_config(path2), amount, 5000, observable, rng)
    state, total = zero_config(path2), np.zeros(4)
    for _ in range(5000):
        _add_inplace(path2, state.quanta, state.frac, int(ref_rng.integers(2)), amount)
        total += observable(state)
    assert np.array_equal(avg, total / 5000)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("steps, amount", [(0, 0.3), (-1, 0.3), (10, 1.5), (10, -0.2),
                                           (10, float("nan"))],
                         ids=["zero-steps", "negative-steps", "amount-above-1",
                              "negative-amount", "nan-amount"])
def test_ergodic_average_rejects_bad_arguments(path2, steps, amount):
    with pytest.raises(DomainError, match="steps|amount"):
        ergodic_average(path2, zero_config(path2), amount, steps,
                        lambda cfg: 1.0, np.random.default_rng(0))


def test_ergodic_occupancy_is_probability_vector(path2, rng):
    rec = enumerate_recurrent(path2)
    init = sample_uniform_allowed(path2, rng, rec)

    def occupancy(cfg):
        return (rec == cfg.quanta).all(axis=1).astype(float)

    freqs = ergodic_average(path2, init, np.sqrt(2.0) - 1.0, 2000, occupancy,
                            np.random.default_rng(9))
    assert freqs.shape == (3,)
    assert np.isclose(freqs.sum(), 1.0)
    assert (freqs > 0.05).all()


def test_invariance_experiment_small(path2, rng):
    result = invariance_experiment(path2, Binning(4), 4000, rng)
    assert 0.0 <= result.tv <= 1.0
    assert result.noise_floor > 0.0
    assert result.tv < 0.5
    assert result.n_samples == 4000


def test_rational_limit_small(path2, rng):
    result = rational_limit_test(path2, zero_config(path2), 0.5, 300, 4000,
                                 rng, binning=Binning(4))
    assert result.tv <= result.noise_floor + 0.05
    with pytest.raises(DomainError):
        rational_limit_test(path2, zero_config(path2), 0.3, 10, 10, rng)


def test_tv_decay_small(path2, rng):
    params = AdditionParams(0.2, 0.8)
    result = tv_decay_experiment(path2, params, (1, 2, 4, 8, 16, 32), 20000,
                                 Binning(4), rng)
    assert result.slope < 0.0
    assert result.tvs[0] > result.tvs[-1]
    assert result.tvs[-1] < 4.0 * result.noise_floor


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tv_decay_holds_one_replica_batch(path2):
    # Each snapshot is binned as the chain reaches it: 14 more times must
    # not cost another (quanta, frac) batch of the replicas.
    n, rec = 20_000, enumerate_recurrent(path2)
    batch = n * path2.n_sites * (8 + 8)
    params, binning = AdditionParams(0.2, 0.8), Binning(8)
    peaks = [_traced_peak(tv_decay_experiment, path2, params, times, n, binning,
                          np.random.default_rng(31), rec)
             for times in [(1, 16), range(1, 17)]]
    assert peaks[1] - peaks[0] < batch


@pytest.mark.parametrize("times", [(1, 2, 4, 8), (9, 3, 3, 1, 40, 9), (6, 2)])
def test_tv_decay_matches_snapshot_route(path2, times):
    # Same seed: the chain is snapshotted by consecutive run_chain_ensemble
    # calls, then the reference and the noise floor draw from the same
    # generator.
    n, binning, params = 3000, Binning(4), AdditionParams(0.2, 0.8)
    rec = enumerate_recurrent(path2)
    result = tv_decay_experiment(path2, params, times, n, binning,
                                 np.random.default_rng(77), rec)
    rng = np.random.default_rng(77)
    quanta = np.zeros((n, path2.n_sites), dtype=np.int64)
    frac = np.zeros((n, path2.n_sites))
    snaps, t = {}, 0
    for stop in sorted(set(times)):
        run_chain_ensemble(path2, quanta, frac, params, stop - t, rng)
        snaps[stop], t = (quanta.copy(), frac.copy()), stop
    href = Histogram.from_samples(path2.d, binning,
                                  *sample_uniform_allowed_batch(path2, rng, n))
    tvs = [estimate_tv(Histogram.from_samples(path2.d, binning, *snaps[t]), href)
           for t in sorted(times)]
    assert result.times == sorted(times)
    assert result.tvs == tvs
    assert result.noise_floor == tv_noise_floor(path2, binning, n, rng)
