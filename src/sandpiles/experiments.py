"""Markov-chain drivers and the experiments built on them.

The chain: at each step pick a site uniformly at random, add a random
amount of mass there (fixed value, or uniform on [a, b]), stabilize.
Scalar drivers evolve one configuration and support per-step callbacks;
ensemble drivers evolve many replicas in lockstep with vectorized
integer stabilization, which is what the distribution-level experiments
(invariance, decay to the invariant law, coupling frequencies, rational
limits) need to reach useful sample sizes.
"""

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

from . import btw
from .cbtw import FRAC_BITS, AdditionParams, CbtwConfig, _carry, _check_config, \
    _check_state, grid_scale, grid_units, quantum_multiple
from .errors import DomainError
from .measures import Binning, Histogram, estimate_tv, \
    sample_rational_limit_batch, sample_uniform_allowed_batch, tv_noise_floor


@dataclass
class ChainState:
    """Where a scalar chain run ended up.

    theta accumulates the total mass added per site over the run.
    """

    t: int
    config: CbtwConfig
    theta: np.ndarray


def _chain_draws(m, params, steps, rng):
    """(x, u) for each step: the site first, then the amount. A fixed
    amount draws nothing else, so its sites come in blocks of 4096 and
    the random stream stays that of one draw per step. An interval amount
    a + (b - a) * rng.random() has the bits of rng.uniform(a, b)."""
    if params.mode == "fixed":
        u = float(params.a)
        for start in range(0, steps, 4096):
            for x in rng.integers(m, size=min(steps - start, 4096)).tolist():
                yield x, u
    else:
        a, width = float(params.a), float(params.b) - float(params.a)
        for _ in range(steps):
            x = int(rng.integers(m))
            yield x, a + width * rng.random()


def run_chain(lat, initial, params, steps, rng, on_step=None):
    """Run the randomized-addition chain for `steps` steps (>= 0) from
    `initial`, which must fit the lattice (DomainError before any draw).

    Each step draws the site first, then the amount, and carries it in
    grid units rint(u * S) at x as `_add_inplace` does; only an unstable
    x starts the FIFO `btw._relax`, whose buffers are set up once per run.
    A fixed amount moves the fractional parts by the same integer every
    step, so long runs cannot drift; it draws its sites in blocks ahead
    of the steps, so on_step must not draw from `rng`.
    on_step(t, x, u, quanta, frac) is called after each step with live
    views (copy them to keep them); a step changes frac at x only.
    """
    steps = btw._integer(steps, "steps", 0)
    _check_config(lat, initial)
    cfg = initial.copy()
    quanta, frac = cfg.quanta, cfg.frac
    n, two_d, scale = lat.n_sites, lat.threshold, grid_scale(lat.d)
    h, fired, queued = btw._relaxable(lat, quanta), np.zeros(n, dtype=np.int64).data, bytearray(n)
    theta = [0.0] * n
    for t, (x, u) in enumerate(_chain_draws(n, params, steps, rng), 1):
        carry, F = _carry(round(frac.item(x) * scale), round(u * scale))
        if carry < 0:
            raise DomainError(f"addition at site {x} would remove quanta: fractional part "
                              f"{frac[x]} lies outside [0, {1.0 / (2 * lat.d)})")
        frac[x] = F / scale
        h[x] += carry
        if h[x] >= two_d:
            queued[x] = 1
            btw._relax(h, fired, queued, [x], lat.adjacency, two_d)
        theta[x] += u
        if on_step is not None:
            on_step(t, x, u, quanta, frac)
    return ChainState(t=steps, config=cfg, theta=np.array(theta))


# A fold sums at most FOLD_LIMIT/2d additions per cell (F + sum U < 2^63);
# fixed-amount chains draw their sites in blocks of DRAW_BLOCK (memory), or,
# in a fold of at least COUNTS_MIN steps per site, each row's hit counts.
FOLD_LIMIT, DRAW_BLOCK, COUNTS_MIN = 1 << 12, 1 << 20, 16


def _add_units(lat, quanta, frac, cells, units):
    """Add units[k] grid units at the k-th True cell of the boolean mask
    `cells` (row-major order) through the carry rule, then stabilize all
    rows once. Other cells keep their frac bits; a negative carry raises
    DomainError first."""
    carry, F = _carry(grid_units(frac[cells], lat.d), units)
    if (carry < 0).any():
        raise DomainError(f"an addition would remove quanta: frac must be in [0, 1/{2 * lat.d})")
    frac[cells] = F / grid_scale(lat.d)
    quanta[cells] += carry
    btw.stabilize_many(lat, quanta)


def _check_replicas(lat, *states):
    """_check_state on each (quanta, frac) pair in `states`, which the
    drivers write in place: every array must also be writable and of one
    (replicas, n_sites) shape. DomainError otherwise."""
    for quanta, frac in zip(states[::2], states[1::2]):
        _check_state(lat.d, lat.n_sites, quanta, frac)
    if not all(v.ndim == 2 and v.shape == states[0].shape and v.flags.writeable
               for v in states):
        raise DomainError(f"quanta and frac must be writable (replicas, {lat.n_sites}) "
                          f"arrays of one shape")


def step_ensemble(lat, quanta, frac, xs, us):
    """Apply one addition to every replica row, in place.

    Row i receives mass us[i] in [0, 1) at integer site xs[i] (one of each
    per row), in grid units rint(us[i] * S); all rows are then stabilized
    together. The rows and the additions are checked before any write
    (DomainError). The carry is the integer rule of run_chain and
    _add_inplace, so a row evolves bit for bit like one run_chain step on
    that replica.
    """
    _check_replicas(lat, quanta, frac)
    xs, us = np.asarray(xs), np.asarray(us)
    n = quanta.shape[0]
    if not (xs.shape == us.shape == (n,) and xs.dtype.kind in "iu"
            and ((xs >= 0) & (xs < lat.n_sites)).all() and ((us >= 0) & (us < 1)).all()):
        raise DomainError(f"need {n} integer sites in [0, {lat.n_sites}) "
                          f"and {n} amounts in [0, 1)")
    cells = np.zeros(quanta.shape, dtype=bool)
    cells[np.arange(n), xs] = True
    _add_units(lat, quanta, frac, cells, grid_units(us, lat.d))


def run_chain_ensemble(lat, quanta, frac, params, steps, rng):
    """Evolve replica rows of (quanta, frac) in place for `steps` >= 0 steps.

    The rows are checked before any draw (DomainError). Each row's grid
    units are summed per site and stabilized once at the end and every
    2^12/2d steps (so sums fit int64): the carries depend only on the
    sums, and by abelianness the stable quanta only on the carries. An
    interval amount, and a fixed amount in a fold of fewer than 16 steps
    per site, draw each step's sites, then its amounts: the same result
    and random stream as one step_ensemble call per step. A longer
    fixed-amount fold draws each row's hit counts from numpy's multinomial
    with p = 1/m as a double (exact when the number of sites m is a power
    of two, otherwise off by under one ulp, while per-step draws are
    exactly uniform); the row then evolves bit for bit like the stepwise
    chain fed any site sequence with those counts. A further call with the
    same generator continues the chain, so consecutive calls give its
    state at each time.
    """
    steps = btw._integer(steps, "steps", 0)
    _check_replicas(lat, quanta, frac)
    n, m = quanta.shape
    offsets = np.arange(n) * m
    fold = max(1, FOLD_LIMIT // (2 * lat.d))
    if params.mode == "fixed":
        U = int(grid_units(params.a, lat.d))
        # A fixed amount draws nothing else, so its sites come in blocks.
        block = max(1, DRAW_BLOCK // max(n, 1))
        for t in range(0, steps, fold):
            T = min(steps - t, fold)
            if T >= COUNTS_MIN * m:
                hits = rng.multinomial(T, np.full(m, 1.0 / m), size=n)
            else:
                hits = np.zeros(n * m, dtype=np.int64)
                for s in range(0, T, block):
                    idx = rng.integers(m, size=(min(T - s, block), n))
                    idx += offsets
                    hits += np.bincount(idx.ravel(), minlength=n * m)
                del idx  # freed before stabilization makes its temporaries
                hits = hits.reshape(n, m)
            cells = hits > 0
            units = hits[cells] * U
            del hits
            _add_units(lat, quanta, frac, cells, units)
        return
    # An interval step reuses these buffers: its amounts are
    # rint((a + (b - a) * rng.random()) * S), the bits of grid_units(rng.uniform(a, b)).
    a, width, scale = float(params.a), float(params.b) - float(params.a), grid_scale(lat.d)
    r, units = np.empty(n), np.empty(n, dtype=np.int64)
    hits, total = np.zeros(n * m, dtype=bool), np.zeros(n * m, dtype=np.int64)
    for t in range(0, steps, fold):
        for _ in range(min(steps - t, fold)):
            idx = rng.integers(m, size=n)
            idx += offsets
            rng.random(out=r)
            r *= width
            r += a
            r *= scale
            np.rint(r, out=r)
            np.copyto(units, r, casting="unsafe")
            np.add.at(total, idx, units)
            hits[idx] = True
        cells = hits.reshape(n, m)
        _add_units(lat, quanta, frac, cells, total.reshape(n, m)[cells])
        hits[:] = False
        total[:] = 0


# ---------------------------------------------------------------------------
# Coupling of two chains driven by shifted addition amounts.

def epoch_shape(lat, params):
    """(M, L) for the coupling: each epoch makes L = n_sites * M additions,
    M = ceil(4/(b-a)), so per-site discrepancies D = (eta-zeta)/M stay
    within (b-a)/4 and the shifted amount never wraps when the raw amount
    falls in the middle half of [a, b]."""
    if params.mode != "interval":
        raise DomainError("coupling needs an interval of amounts (a < b)")
    M = math.ceil(4.0 / (params.b - params.a))
    return M, lat.n_sites * M


def coupling_success_probability(lat, params):
    """Exact per-epoch probability of the coalescence event: every site
    drawn exactly M times and every amount in the middle half-interval,
    i.e. L!/(M!^m m^L) * (1/2)^L."""
    M, L = epoch_shape(lat, params)
    m = lat.n_sites
    balanced = Fraction(math.factorial(L), math.factorial(M) ** m * m ** L)
    return balanced * Fraction(1, 2) ** L


@dataclass
class EpochRecord:
    epoch: int
    o_occurred: bool
    coalesced: bool


@dataclass
class CouplingResult:
    coalesced: bool
    n_epochs: int
    M: int
    L: int
    records: list
    eta: CbtwConfig
    zeta: CbtwConfig


def _coupling_grid(lat, params):
    """M, L, the interval [a, b] and the amount grid: A = rint(a S) and
    W = rint(b S) - A. Shifting amounts modulo W on [A, A + W) is a
    bijection of that grid, so it preserves their law."""
    M, L = epoch_shape(lat, params)
    a, b = params.a, params.b
    scale = grid_scale(lat.d)
    A = round(a * scale)
    return M, L, a, b, A, round(b * scale) - A


def _coupling_epoch(lat, grid, eta_quanta, eta_frac, zeta_quanta, zeta_frac, rng):
    """One coupling epoch on every replica row of the four arrays, in place.

    Each step draws one site per row, then one amount per row. The first
    chain takes the amount U in grid units, the second the shift
    ((U + part - A) mod W) + A, where the M visits of a site split the
    gap G = eta - zeta frozen at the epoch start: floor(G/M) each, plus
    one on the first G mod M. Both chains sum their units per (row, site)
    and stabilize once at the epoch end and every 2^12/2d steps, which
    abelianness makes exact. Returns per-row bool arrays (occurred, same):
    the event (every site drawn exactly M times, every amount in the
    middle half of [a, b]) and bit-for-bit equality at the epoch end.
    """
    M, L, a, b, A, W = grid
    mid_lo, mid_hi = (3 * a + b) / 4, (a + 3 * b) / 4
    n, m = eta_quanta.shape
    offsets = np.arange(n) * m
    G = (((eta_quanta - zeta_quanta) << FRAC_BITS)
         + grid_units(eta_frac, lat.d) - grid_units(zeta_frac, lat.d))
    base, extra = (v.ravel() for v in np.divmod(G, M))
    seen, eta_units, zeta_units = np.zeros((3, n * m), dtype=np.int64)
    all_mid = np.ones(n, dtype=bool)
    for t in range(1, L + 1):
        idx = rng.integers(m, size=n) + offsets
        us = rng.uniform(a, b, size=n)
        units = grid_units(us, lat.d)
        part = base[idx] + (seen[idx] < extra[idx])
        eta_units[idx] += units
        zeta_units[idx] += (units + part - A) % W + A
        seen[idx] += 1
        all_mid &= (us >= mid_lo) & (us <= mid_hi)
        if t == L or t % max(1, FOLD_LIMIT // (2 * lat.d)) == 0:
            # Cells folded earlier in the epoch are on the grid, and
            # folding them again with no units leaves them unchanged.
            cells = seen.reshape(n, m) > 0
            _add_units(lat, eta_quanta, eta_frac, cells, eta_units.reshape(n, m)[cells])
            _add_units(lat, zeta_quanta, zeta_frac, cells, zeta_units.reshape(n, m)[cells])
            eta_units[:] = zeta_units[:] = 0
    occurred = all_mid & (seen.reshape(n, m) == M).all(axis=1)
    same = (eta_quanta == zeta_quanta).all(axis=1) & (eta_frac == zeta_frac).all(axis=1)
    return occurred, same


def run_coupling(lat, eta0, zeta0, params, rng, max_epochs=200000):
    """Couple two chains until they coalesce (or give up).

    Both chains see the same random sites; the first draws amounts
    uniformly on [a, b], the second receives the measure-preserving shift
    of _coupling_epoch, run here on one row per chain. When an epoch sees
    the event (recorded as o_occurred), the shift never wraps, each site
    of the second chain receives exactly the gap more than the first, and
    by abelianness the chains end the epoch bit-identical; the driver
    raises if that fails, since it would mean the dynamics are broken.
    Equality is only ever checked at epoch boundaries.
    """
    max_epochs = btw._integer(max_epochs, "max_epochs", 1)
    grid = _coupling_grid(lat, params)
    M, L = grid[:2]
    _check_config(lat, eta0)
    _check_config(lat, zeta0)
    eta, zeta = eta0.copy(), zeta0.copy()
    rows = [v[None, :] for v in (eta.quanta, eta.frac, zeta.quanta, zeta.frac)]
    records = []
    for epoch in range(1, max_epochs + 1):
        occurred, same = _coupling_epoch(lat, grid, *rows, rng)
        o_occurred, coalesced = bool(occurred[0]), bool(same[0])
        records.append(EpochRecord(epoch, o_occurred, coalesced))
        if o_occurred and not coalesced:
            raise RuntimeError("coalescence event occurred but the chains differ; "
                               "the coupling construction is broken")
        if coalesced:
            return CouplingResult(True, epoch, M, L, records, eta, zeta)
    return CouplingResult(False, max_epochs, M, L, records, eta, zeta)


@dataclass
class CouplingEnsembleResult:
    n_replicas: int
    n_epochs: int
    M: int
    L: int
    o_events: np.ndarray
    o_verified: np.ndarray


def run_coupling_ensemble(lat, eta_quanta, eta_frac, zeta_quanta, zeta_frac,
                          params, n_epochs, rng):
    """Run many independent coupled pairs for a fixed number of epochs.

    The coalescence event depends only on the drawn sites and amounts,
    never on the state, so every (replica, epoch) cell is an independent
    trial with the exact per-epoch probability; this is the driver for
    frequency statistics. o_events marks the cells where the event
    occurred, o_verified the subset where the pair really did agree bit
    for bit at the epoch end (they must all match).
    """
    n_epochs = btw._integer(n_epochs, "n_epochs", 0)
    grid = _coupling_grid(lat, params)
    M, L = grid[:2]
    _check_replicas(lat, eta_quanta, eta_frac, zeta_quanta, zeta_frac)
    n = eta_quanta.shape[0]
    o_events = np.zeros((n_epochs, n), dtype=bool)
    o_verified = np.zeros((n_epochs, n), dtype=bool)
    for e in range(n_epochs):
        occurred, same = _coupling_epoch(lat, grid, eta_quanta, eta_frac,
                                         zeta_quanta, zeta_frac, rng)
        o_events[e] = occurred
        o_verified[e] = occurred & same
    return CouplingEnsembleResult(n, n_epochs, M, L, o_events, o_verified)


# ---------------------------------------------------------------------------
# Observables and measure-level experiments.

def phase_observable(config):
    """exp(4 d pi i * total mass), computed from the fractional parts.

    Whole quanta contribute full turns (each is worth 1/2d of mass, and
    the frequency is 4 d pi), so only the fractional parts move the
    phase. Under a fixed addition amount `a` the argument advances by
    exactly 4 d pi a per chain step, whatever the topplings do.
    """
    return complex(np.exp(4j * np.pi * config.d * float(np.sum(config.frac))))


def ergodic_average(lat, initial, amount, steps, observable, rng):
    """Time average of `observable` over `steps` >= 1 steps of the chain
    with fixed amount in [0, 1) (run_chain, so the observable must not
    draw from `rng`).

    The observable is called once per step with a live view of the
    configuration (copy it to keep it); values may be scalars or arrays.
    """
    steps = btw._integer(steps, "steps", 1)
    view, total = None, None

    def on_step(t, x, u, quanta, frac):
        nonlocal view, total
        if view is None:
            view = CbtwConfig(d=lat.d, quanta=quanta, frac=frac)
        val = np.asarray(observable(view))
        total = val * 1.0 if total is None else total + val

    run_chain(lat, initial, AdditionParams(amount, amount), steps, rng, on_step)
    return total / steps


def translation_mixture_fourier(step, k, start, n_terms):
    """Fourier coefficient of the random-translate mixture, in closed form.

    Law of y = start + step * e, where e counts how many of n uniform
    coordinate choices hit each of the m coordinates, mixed over n uniform
    on {0..n_terms-1}. The coefficient at integer frequency vector k is
    f_k(start) * (1/n_terms) * (1 - alpha^n_terms)/(1 - alpha) with
    alpha = mean_j exp(2 pi i step k_j), and f_k(start) when alpha = 1.
    n_terms is an integer >= 1.
    """
    n_terms = btw._integer(n_terms, "n_terms", 1)
    k = np.asarray(k, dtype=np.int64)
    start = np.asarray(start, dtype=np.float64)
    if k.shape != start.shape:
        raise DomainError("frequency vector and start point must have the same length")
    fk = np.exp(2j * np.pi * float(np.dot(k, start)))
    alpha = complex(np.mean(np.exp(2j * np.pi * step * k)))
    if abs(1.0 - alpha) < 1e-14:
        return complex(fk)
    return complex(fk * (1.0 - alpha ** n_terms) / (n_terms * (1.0 - alpha)))


def translation_mixture_bound(step, k, n_terms):
    """Upper bound 2/(n_terms |1 - alpha|) on the coefficient modulus,
    infinite when alpha = 1; n_terms is an integer >= 1."""
    n_terms = btw._integer(n_terms, "n_terms", 1)
    k = np.asarray(k, dtype=np.int64)
    alpha = complex(np.mean(np.exp(2j * np.pi * step * k)))
    gap = abs(1.0 - alpha)
    if gap < 1e-14:
        return math.inf
    return 2.0 / (n_terms * gap)


def translation_mixture_fourier_mc(step, k, start, n_terms, n_samples, rng):
    """Monte Carlo estimate of the same coefficient; returns (estimate,
    standard error), the latter combining real and imaginary spread, so
    it needs n_samples >= 2 and n_terms >= 1."""
    n_samples = btw._integer(n_samples, "n_samples")
    if n_samples < 2:
        raise DomainError(f"a standard error needs at least 2 samples, got {n_samples}")
    n_terms = btw._integer(n_terms, "n_terms", 1)
    k = np.asarray(k, dtype=np.int64)
    start = np.asarray(start, dtype=np.float64)
    m = len(k)
    n = rng.integers(0, n_terms, size=n_samples)
    counts = rng.multinomial(n, [1.0 / m] * m)
    y = start[None, :] + step * counts
    vals = np.exp(2j * np.pi * (y @ k))
    est = complex(vals.mean())
    se = math.sqrt(vals.real.var(ddof=1) + vals.imag.var(ddof=1)) / math.sqrt(n_samples)
    return est, se


@dataclass
class InvarianceResult:
    tv: float
    noise_floor: float
    n_samples: int


def invariance_experiment(lat, binning, n_samples, rng):
    """Push one random addition step through uniform-allowed samples and
    compare the empirical law before and after.

    Sites are uniform, amounts uniform on [0, 1). The TV distance is
    reported next to the resolution floor measured between two
    independent uniform-allowed sample sets of the same size.
    """
    n = btw._integer(n_samples, "n_samples", 1)
    href = Histogram.from_samples(lat.d, binning, *sample_uniform_allowed_batch(lat, rng, n))
    quanta, frac = sample_uniform_allowed_batch(lat, rng, n)
    xs = rng.integers(lat.n_sites, size=n)
    us = rng.uniform(0.0, 1.0, size=n)
    step_ensemble(lat, quanta, frac, xs, us)
    hpush = Histogram.from_samples(lat.d, binning, quanta, frac)
    del quanta, frac
    tv = estimate_tv(hpush, href)
    return InvarianceResult(tv=tv, noise_floor=tv_noise_floor(lat, binning, n, rng), n_samples=n)


@dataclass
class RationalLimitResult:
    tv: float
    noise_floor: float
    amount: float
    t_chain: int
    n_samples: int


def rational_limit_test(lat, base, amount, t_chain, n_samples, rng,
                        binning=Binning(), recurrent=None):
    """Compare the chain at time t_chain against the predicted limit law.

    The fixed amount must be a quantum multiple l/2d; the prediction is
    the law `sample_rational_limit_batch` draws at time t_chain. Both
    sides are estimated with n_samples replicas and compared in TV, next
    to the floor between two independent draws of the prediction itself.
    `recurrent` is ignored; the ensemble_path benchmark still passes one.
    """
    n_samples = btw._integer(n_samples, "n_samples", 1)
    if quantum_multiple(amount, lat.d) is None:
        raise DomainError(f"amount {amount} is not a quantum multiple")
    lat.recurrent  # scanned here: CapacityError before the chain runs
    quanta = np.tile(base.quanta, (n_samples, 1))
    frac = np.tile(base.frac, (n_samples, 1))
    run_chain_ensemble(lat, quanta, frac, AdditionParams(amount, amount), t_chain, rng)
    h_chain = Histogram.from_samples(lat.d, binning, quanta, frac)
    del quanta, frac
    h_limit = Histogram.from_samples(lat.d, binning, *sample_rational_limit_batch(
        lat, base, amount, rng, n_samples, t_chain))
    h_floor = Histogram.from_samples(lat.d, binning, *sample_rational_limit_batch(
        lat, base, amount, rng, n_samples, t_chain))
    return RationalLimitResult(
        tv=estimate_tv(h_chain, h_limit),
        noise_floor=estimate_tv(h_limit, h_floor),
        amount=amount, t_chain=t_chain, n_samples=n_samples)


@dataclass
class TvDecayResult:
    times: list
    tvs: list
    noise_floor: float
    slope: float


def tv_decay_experiment(lat, params, times, n_replicas, binning, rng, recurrent=None):
    """TV distance to the uniform-allowed law along the chain from zero.

    Runs the replica ensemble from each snapshot time (all >= 1, two or
    more distinct ones, as the slope needs) to the next and bins it there,
    so no snapshot is copied; then measures TV to a uniform-allowed
    reference sample of the same size, and fits a line to log TV over
    time; the slope is the decay-rate estimate. Each segment is one
    run_chain_ensemble call that continues the chain of the last, so the
    law is that of one run read at each time. With an interval amount,
    or a fixed one whose folds draw one site per step, so are the results
    and the random stream; a fixed-amount fold that draws hit counts ends
    at each snapshot, so there they depend on the snapshot times.
    `recurrent` is ignored; the ensemble_path benchmark still passes one.
    """
    times = sorted(btw._integer(t, "snapshot time", 1) for t in times)
    if len(set(times)) < 2:
        raise DomainError(
            f"tv_decay_experiment needs two distinct snapshot times >= 1, got {times}")
    n = btw._integer(n_replicas, "n_replicas", 1)
    lat.recurrent  # scanned here: CapacityError before the chain runs
    quanta = np.zeros((n, lat.n_sites), dtype=np.int64)
    frac = np.zeros((n, lat.n_sites), dtype=np.float64)
    hists, t = {}, 0
    for stop in dict.fromkeys(times):
        run_chain_ensemble(lat, quanta, frac, params, stop - t, rng)
        hists[stop] = Histogram.from_samples(lat.d, binning, quanta, frac)
        t = stop
    del quanta, frac
    href = Histogram.from_samples(lat.d, binning, *sample_uniform_allowed_batch(lat, rng, n))
    tvs = [estimate_tv(hists[t], href) for t in times]
    floor = tv_noise_floor(lat, binning, n, rng)
    slope = float(np.polyfit(times, np.log(np.maximum(tvs, 1e-12)), 1)[0])
    return TvDecayResult(times=times, tvs=tvs, noise_floor=floor, slope=slope)
