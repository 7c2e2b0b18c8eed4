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
from .cbtw import FRAC_BITS, AdditionParams, CbtwConfig, _add_inplace, _carry, \
    grid_scale, grid_units, quantum_multiple
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
    the random stream stays that of one draw per step."""
    if params.mode == "fixed":
        u = float(params.a)
        for start in range(0, steps, 4096):
            for x in rng.integers(m, size=min(steps - start, 4096)).tolist():
                yield x, u
    else:
        for _ in range(steps):
            x = int(rng.integers(m))
            yield x, float(rng.uniform(params.a, params.b))


def run_chain(lat, initial, params, steps, rng, on_step=None):
    """Run the randomized-addition chain for `steps` steps (>= 0).

    Each step draws the site first, then the amount, and adds it in grid
    units rint(u * S): a fixed amount moves the fractional parts by the
    same integer every step, so long runs cannot drift. A fixed amount
    draws its sites in blocks ahead of the steps, so on_step must not
    draw from `rng`. on_step(t, x, u, quanta, frac) is called after each
    step with live views (copy them to keep them); a step changes frac
    at x only.
    """
    if steps < 0:
        raise DomainError(f"steps must be >= 0, got {steps}")
    cfg = initial.copy()
    quanta, frac = cfg.quanta, cfg.frac
    theta = [0.0] * lat.n_sites
    for t, (x, u) in enumerate(_chain_draws(lat.n_sites, params, steps, rng), 1):
        _add_inplace(lat, quanta, frac, x, u)
        theta[x] += u
        if on_step is not None:
            on_step(t, x, u, quanta, frac)
    return ChainState(t=steps, config=cfg, theta=np.array(theta))


# A fold sums at most FOLD_LIMIT/2d additions per cell (F + sum U < 2^63);
# fixed-amount chains draw their sites in blocks of DRAW_BLOCK (memory).
FOLD_LIMIT, DRAW_BLOCK = 1 << 12, 1 << 20


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


def step_ensemble(lat, quanta, frac, xs, us):
    """Apply one addition to every replica row, in place.

    Row i receives mass us[i] at integer site xs[i] (one of each per row,
    DomainError otherwise), in grid units rint(us[i] * S); all rows are
    then stabilized together. The carry is the same integer rule as the
    scalar kernel's, so a row evolves bit for bit like _add_inplace on
    that replica; a negative carry raises DomainError.
    """
    xs, us = np.asarray(xs), np.asarray(us)
    n = quanta.shape[0]
    if not (xs.shape == us.shape == (n,) and xs.dtype.kind in "iu"
            and ((xs >= 0) & (xs < lat.n_sites)).all()):
        raise DomainError(f"need {n} integer sites in [0, {lat.n_sites}) and {n} amounts")
    cells = np.zeros(quanta.shape, dtype=bool)
    cells[np.arange(n), xs] = True
    _add_units(lat, quanta, frac, cells, grid_units(us, lat.d))


def run_chain_ensemble(lat, quanta, frac, params, steps, rng):
    """Evolve replica rows of (quanta, frac) in place for `steps` >= 0 steps.

    Same result and random stream as one step_ensemble call per step, but
    each row's grid units are summed per site and stabilized once at the
    end and every 2^12/2d steps (so sums fit int64): the carries depend
    only on the sums, and by abelianness the stable quanta only on the
    carries. A further call with the same generator continues the chain,
    so consecutive calls give its state at each time.
    """
    if steps < 0:
        raise DomainError(f"steps must be >= 0, got {steps}")
    n, m = quanta.shape
    offsets = np.arange(n) * m
    fixed = params.mode == "fixed"
    # A fixed amount draws nothing else, so its sites come in blocks.
    block = max(1, DRAW_BLOCK // max(n, 1)) if fixed else 1
    t = 0
    while t < steps:
        T = min(steps - t, max(1, FOLD_LIMIT // (2 * lat.d)))
        hits = np.zeros(n * m, dtype=np.int64 if fixed else bool)
        total = None if fixed else np.zeros(n * m, dtype=np.int64)
        for s in range(0, T, block):
            idx = rng.integers(m, size=(min(T - s, block), n))
            idx += offsets
            if fixed:
                hits += np.bincount(idx.ravel(), minlength=n * m)
            else:
                total[idx] += grid_units(rng.uniform(params.a, params.b, size=n), lat.d)
                hits[idx] = True
        cells = hits.reshape(n, m) > 0
        units = hits * int(grid_units(params.a, lat.d)) if fixed else total
        units = units.reshape(n, m)[cells]
        del idx, hits, total  # freed before stabilization makes its temporaries
        _add_units(lat, quanta, frac, cells, units)
        t += T


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
    grid = _coupling_grid(lat, params)
    M, L = grid[:2]
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
    if n_epochs < 0:
        raise DomainError(f"n_epochs must be >= 0, got {n_epochs}")
    grid = _coupling_grid(lat, params)
    M, L = grid[:2]
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
    if steps < 1:
        raise DomainError(f"an ergodic average needs steps >= 1, got {steps}")
    if not 0.0 <= amount < 1.0:
        raise DomainError(f"the fixed amount must lie in [0, 1), got {amount}")
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


def invariance_experiment(lat, binning, n_samples, rng, recurrent=None):
    """Push one random addition step through uniform-allowed samples and
    compare the empirical law before and after.

    Sites are uniform, amounts uniform on [0, 1). The TV distance is
    reported next to the resolution floor measured between two
    independent uniform-allowed sample sets of the same size.
    """
    n_samples = btw._integer(n_samples, "n_samples", 1)
    if recurrent is None:
        recurrent = btw.enumerate_recurrent(lat)
    href = Histogram.from_samples(
        lat.d, binning, *sample_uniform_allowed_batch(lat, rng, n_samples, recurrent))
    quanta, frac = sample_uniform_allowed_batch(lat, rng, n_samples, recurrent)
    xs = rng.integers(lat.n_sites, size=n_samples)
    us = rng.uniform(0.0, 1.0, size=n_samples)
    step_ensemble(lat, quanta, frac, xs, us)
    hpush = Histogram.from_samples(lat.d, binning, quanta, frac)
    del quanta, frac
    tv = estimate_tv(hpush, href)
    floor = tv_noise_floor(lat, binning, n_samples, rng, recurrent)
    return InvarianceResult(tv=tv, noise_floor=floor, n_samples=n_samples)


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
    the law `sample_rational_limit_batch` draws at time t_chain: the
    stabilized sum of `base` and l quanta at every site of a uniform
    recurrent configuration, moved onto the coset the chain occupies at
    t_chain when the lattice's boundary degrees share a factor. Both
    sides are estimated with n_samples replicas and compared in TV, next
    to the floor between two independent draws of the prediction itself.
    """
    n_samples = btw._integer(n_samples, "n_samples", 1)
    if quantum_multiple(amount, lat.d) is None:
        raise DomainError(f"amount {amount} is not a quantum multiple")
    if recurrent is None:
        recurrent = btw.enumerate_recurrent(lat)
    params = AdditionParams(amount, amount)
    quanta = np.tile(base.quanta, (n_samples, 1))
    frac = np.tile(base.frac, (n_samples, 1))
    run_chain_ensemble(lat, quanta, frac, params, t_chain, rng)
    h_chain = Histogram.from_samples(lat.d, binning, quanta, frac)
    del quanta, frac
    h_limit = Histogram.from_samples(lat.d, binning, *sample_rational_limit_batch(
        lat, base, amount, rng, n_samples, recurrent, t_chain))
    h_floor = Histogram.from_samples(lat.d, binning, *sample_rational_limit_batch(
        lat, base, amount, rng, n_samples, recurrent, t_chain))
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
    run_chain_ensemble call that continues the chain of the last, so
    results and random stream are those of one run read at each time.
    """
    times = sorted(int(t) for t in times)
    if len(set(times)) < 2 or times[0] < 1:
        raise DomainError(
            f"tv_decay_experiment needs two distinct snapshot times >= 1, got {times}")
    n = btw._integer(n_replicas, "n_replicas", 1)
    if recurrent is None:
        recurrent = btw.enumerate_recurrent(lat)
    quanta = np.zeros((n, lat.n_sites), dtype=np.int64)
    frac = np.zeros((n, lat.n_sites), dtype=np.float64)
    hists, t = {}, 0
    for stop in dict.fromkeys(times):
        run_chain_ensemble(lat, quanta, frac, params, stop - t, rng)
        hists[stop] = Histogram.from_samples(lat.d, binning, quanta, frac)
        t = stop
    del quanta, frac
    href = Histogram.from_samples(
        lat.d, binning, *sample_uniform_allowed_batch(lat, rng, n, recurrent))
    tvs = [estimate_tv(hists[t], href) for t in times]
    floor = tv_noise_floor(lat, binning, n, rng, recurrent)
    slope = float(np.polyfit(times, np.log(np.maximum(tvs, 1e-12)), 1)[0])
    return TvDecayResult(times=times, tvs=tvs, noise_floor=floor, slope=slope)
