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
    _check_state, grid_scale, grid_units
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

    After one FIFO rule check (`btw._check_fifo`, before any draw) for
    max(quanta) + 2d steps (a step carries at most 2d quanta), an unstable
    start is relaxed once by `btw._drop`. Each step draws the site first,
    then the amount, carries it in grid units rint(u * S) at x as
    `_add_inplace` does and runs `btw._relax`, its buffers set up once per
    run, when x becomes unstable, and `btw._finish` on a wave it hands back.
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
    n, two_d, scale, wide = lat.n_sites, lat.threshold, grid_scale(lat.d), btw.WIDE_WAVE
    btw._check_fifo(lat, int(quanta.max()) + two_d * steps, quanta.dtype)
    btw._drop(lat, quanta, 0, 0)
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
            if wave := btw._relax(h, fired, queued, [x], lat.adjacency, two_d, wide):
                btw._finish(quanta, queued, wave, lat.adjacency, two_d)
        theta[x] += u
        if on_step is not None:
            on_step(t, x, u, quanta, frac)
    return ChainState(t=steps, config=cfg, theta=np.array(theta))


# A fold sums at most FOLD_LIMIT/2d additions per cell (F + sum U < 2^63);
# fixed-amount chains draw their sites in blocks of DRAW_BLOCK (memory), or,
# in a fold of at least COUNTS_MIN steps per site, each row's hit counts.
FOLD_LIMIT, DRAW_BLOCK, COUNTS_MIN = 1 << 12, 1 << 20, 16


def _folds(lat, n, steps):
    """Row offsets r * m of the flat cells of n rows, and the step count of
    each fold of `steps` steps: FOLD_LIMIT/2d, the last one shorter."""
    fold = max(1, FOLD_LIMIT // (2 * lat.d))
    return np.arange(n) * lat.n_sites, (min(steps - t, fold) for t in range(0, steps, fold))


def _interval_steps(lat, a, b, offsets, rng):
    """Yield interval steps for the rows of `offsets` without end: (cells,
    us, units), the flat cells r * m + site, drawn first, the amounts a +
    (b - a) * rng.random(), which have the bits of rng.uniform(a, b), and
    their grid units rint(us * S), in two buffers each step overwrites
    (units rounds us * S as floats in its own bytes, then casts in place)."""
    n, m, scale = len(offsets), lat.n_sites, grid_scale(lat.d)
    a, width = float(a), float(b) - float(a)
    us, units = np.empty(n), np.empty(n, dtype=np.int64)
    while True:
        cells = rng.integers(m, size=n)
        cells += offsets
        rng.random(out=us)
        us *= width
        us += a
        scaled = np.multiply(us, scale, out=units.view(np.float64))
        np.rint(scaled, out=scaled)
        np.copyto(units, scaled, casting="unsafe")
        yield cells, us, units


def _add_units(lat, cells, *chains):
    """Fold chains that share the boolean mask `cells`, each a (quanta,
    frac, units) triple of its (replicas, sites) shape: add units[r, s]
    grid units at each True cell (r, s) through the carry rule, then
    stabilize. Other cells keep their frac bits. A negative unit, or
    carries the rounds rule (`btw._round_dtype`) refuses, raise
    DomainError before any write to any chain: checked frac >= 0 makes no
    other carry negative, and grid_units(frac) <= 2^50 keeps each at most
    1 + max(units) // 2^50. Each row block of `btw._block_rows` rows then
    gathers its cells, carries, writes back and runs `btw.stabilize_many`."""
    for quanta, frac, units in chains:
        if units.min(initial=0) < 0:
            raise DomainError("an addition would remove quanta: amounts must be nonnegative")
        btw._round_dtype(lat, int(quanta.max(initial=0)) + 1
                         + (int(units.max(initial=0)) >> FRAC_BITS))
    rows, scale = btw._block_rows(lat.n_sites), grid_scale(lat.d)
    for quanta, frac, units in chains:
        for start in range(0, len(quanta), rows):
            block = slice(start, start + rows)
            q, f, c = quanta[block], frac[block], cells[block]
            carry, F = _carry(grid_units(f[c], lat.d), units[block][c])
            f[c] = F / scale
            q[c] += carry
            btw.stabilize_many(lat, q)


def _check_replicas(lat, *states):
    """_check_state on each (quanta, frac) pair in `states`, which the
    drivers write in place: every array must also be writable and of one
    (replicas, n_sites) shape, and quanta int64, as the folds carry in it.
    DomainError otherwise."""
    for quanta, frac in zip(states[::2], states[1::2]):
        _check_state(lat.d, lat.n_sites, quanta, frac)
        if quanta.dtype != np.int64:
            raise DomainError(f"quanta must be int64, got {quanta.dtype}")
    if not all(v.ndim == 2 and v.shape == states[0].shape and v.flags.writeable
               for v in states):
        raise DomainError(f"quanta and frac must be writable (replicas, {lat.n_sites}) "
                          f"arrays of one shape")


def _check_pair(lat, *states):
    """_check_replicas on a coupled pair, whose rows must also be stable
    (DomainError otherwise): then each gap G is below one unit of mass, so
    G/M stays within (b-a)/4, as the event needs, and G fits in int64."""
    _check_replicas(lat, *states)
    if max(q.max(initial=0) for q in states[::2]) >= lat.threshold:
        raise DomainError("coupling needs stable chains: every quanta entry below 2d")


def step_ensemble(lat, quanta, frac, xs, us):
    """Apply one addition to every replica row, in place.

    Row i receives mass us[i] in [0, 1) at integer site xs[i] (one of each
    per row), in grid units rint(us[i] * S); every unstable site of every
    row is then relaxed. The rows and the additions are checked before
    any write (DomainError). A row evolves bit for bit like one run_chain
    step or one `cbtw_add` on that replica, from any start.
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
    # Row i's one cell gathers us[i]'s units from a view, not a dense batch.
    units = np.broadcast_to(grid_units(us, lat.d)[:, None], quanta.shape)
    _add_units(lat, cells, (quanta, frac, units))


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
    offsets, folds = _folds(lat, n, steps)
    if params.mode == "fixed":
        U = int(grid_units(params.a, lat.d))
        # A fixed amount draws nothing else, so its sites come in blocks.
        block = max(1, DRAW_BLOCK // max(n, 1))
        for T in folds:
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
            hits *= U
            _add_units(lat, cells, (quanta, frac, hits))
        return
    draws = _interval_steps(lat, params.a, params.b, offsets, rng)
    hits, total = np.zeros(n * m, dtype=bool), np.zeros(n * m, dtype=np.int64)
    for T in folds:
        for _, (idx, _, units) in zip(range(T), draws):
            np.add.at(total, idx, units)
            hits[idx] = True
        _add_units(lat, hits.reshape(n, m), (quanta, frac, total.reshape(n, m)))
        hits[:] = total[:] = 0


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
    a, b, scale = params.a, params.b, grid_scale(lat.d)
    A = round(a * scale)
    return M, L, a, b, A, round(b * scale) - A


def _coupling_epoch(lat, grid, eta_quanta, eta_frac, zeta_quanta, zeta_frac, rng):
    """One coupling epoch on every replica row of the four arrays, in place.

    Each step draws one site per row, then one amount per row. The first
    chain takes the amount U in grid units, the second the shift
    ((U + part - A) mod W) + A, where the M visits of a site split the
    gap G = eta - zeta frozen at the epoch start: floor(G/M) each, plus
    one on the first G mod M. Both chains sum their units per (row, site)
    and stabilize in one fold, which checks both before it writes either,
    at the epoch end and every 2^12/2d steps, which abelianness makes
    exact. Returns per-row bool arrays (occurred, same): the event (every
    site drawn exactly M times, every amount in the middle half of
    [a, b]) and bit-for-bit equality at the epoch end.
    """
    M, L, a, b, A, W = grid
    mid_lo, mid_hi = (3 * a + b) / 4, (a + 3 * b) / 4
    n, m = eta_quanta.shape
    offsets, folds = _folds(lat, n, L)
    draws = _interval_steps(lat, a, b, offsets, rng)
    G = (((eta_quanta - zeta_quanta) << FRAC_BITS)
         + grid_units(eta_frac, lat.d) - grid_units(zeta_frac, lat.d))
    base, extra = (v.ravel() for v in np.divmod(G, M))
    seen, eta_units, zeta_units = np.zeros((3, n * m), dtype=np.int64)
    all_mid = np.ones(n, dtype=bool)
    for T in folds:
        for _, (idx, us, units) in zip(range(T), draws):
            part = base[idx] + (seen[idx] < extra[idx])
            np.add.at(eta_units, idx, units)
            np.add.at(zeta_units, idx, (units + part - A) % W + A)
            np.add.at(seen, idx, 1)
            all_mid &= (us >= mid_lo) & (us <= mid_hi)
        # Cells folded earlier in the epoch are on the grid, and
        # folding them again with no units leaves them unchanged.
        _add_units(lat, seen.reshape(n, m) > 0, (eta_quanta, eta_frac, eta_units.reshape(n, m)),
                   (zeta_quanta, zeta_frac, zeta_units.reshape(n, m)))
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
    Equality is only ever checked at epoch boundaries. Both chains must
    start stable (`_check_pair`), or DomainError is raised before any draw.
    """
    max_epochs = btw._integer(max_epochs, "max_epochs", 1)
    grid = _coupling_grid(lat, params)
    M, L = grid[:2]
    _check_config(lat, eta0)
    _check_config(lat, zeta0)
    eta, zeta = eta0.copy(), zeta0.copy()
    rows = [v[None, :] for v in (eta.quanta, eta.frac, zeta.quanta, zeta.frac)]
    _check_pair(lat, *rows)
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
    for bit at the epoch end (they must all match). Every row must start
    stable (`_check_pair`), or DomainError is raised before any draw or write.
    """
    n_epochs = btw._integer(n_epochs, "n_epochs", 0)
    grid = _coupling_grid(lat, params)
    M, L = grid[:2]
    _check_pair(lat, eta_quanta, eta_frac, zeta_quanta, zeta_frac)
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


def _fourier_terms(step, k, start=None):
    """(k, start, alpha = mean_j exp(2 pi i step k_j)) for the Fourier
    tools; DomainError unless k is a non-empty 1-D vector of integers,
    start (when given) a finite vector of its length and step finite."""
    k, start = np.asarray(k), None if start is None else np.asarray(start, dtype=np.float64)
    if not (k.ndim == 1 and k.size and k.dtype.kind in "iu"):
        raise DomainError("the frequency vector must be a non-empty 1-d vector of integers")
    if start is not None and (start.shape != k.shape or not np.isfinite(start).all()):
        raise DomainError("the start point must be finite, of the frequency vector's length")
    if not math.isfinite(step):
        raise DomainError(f"the translation step must be finite, got {step}")
    return k, start, complex(np.mean(np.exp(2j * np.pi * step * k)))


def translation_mixture_fourier(step, k, start, n_terms):
    """Fourier coefficient of the random-translate mixture, in closed form.

    Law of y = start + step * e, where e counts how many of n uniform
    coordinate choices hit each of the m coordinates, mixed over n uniform
    on {0..n_terms-1}. The coefficient at integer frequency vector k is
    f_k(start) * (1/n_terms) * (1 - alpha^n_terms)/(1 - alpha) with
    alpha = mean_j exp(2 pi i step k_j), and f_k(start) when alpha = 1.
    n_terms is an integer >= 1; `_fourier_terms` checks the rest.
    """
    n_terms = btw._integer(n_terms, "n_terms", 1)
    k, start, alpha = _fourier_terms(step, k, start)
    fk = np.exp(2j * np.pi * float(np.dot(k, start)))
    if abs(1.0 - alpha) < 1e-14:
        return complex(fk)
    return complex(fk * (1.0 - alpha ** n_terms) / (n_terms * (1.0 - alpha)))


def translation_mixture_bound(step, k, n_terms):
    """Upper bound 2/(n_terms |1 - alpha|) on the coefficient modulus,
    infinite when alpha = 1; n_terms is an integer >= 1."""
    n_terms = btw._integer(n_terms, "n_terms", 1)
    alpha = _fourier_terms(step, k)[2]
    gap = abs(1.0 - alpha)
    if gap < 1e-14:
        return math.inf
    return 2.0 / (n_terms * gap)


def translation_mixture_fourier_mc(step, k, start, n_terms, n_samples, rng):
    """Monte Carlo estimate of the same coefficient; returns (estimate,
    standard error), the latter combining real and imaginary spread, so
    it needs n_samples >= 2 and n_terms >= 1."""
    n_samples = btw._integer(n_samples, "n_samples", high=2**63 - 1)
    if n_samples < 2:
        raise DomainError(f"a standard error needs at least 2 samples, got {n_samples}")
    n_terms = btw._integer(n_terms, "n_terms", 1, 2**63)
    k, start, _ = _fourier_terms(step, k, start)
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
    n = btw._integer(n_samples, "n_samples", 1, 2**63 - 1)
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
    n_samples = btw._integer(n_samples, "n_samples", 1, 2**63 - 1)
    # Draws nothing: its checks and the recurrent scan fail before the chain runs.
    sample_rational_limit_batch(lat, base, amount, rng, 0, t_chain)
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
    n = btw._integer(n_replicas, "n_replicas", 1, 2**63 - 1)
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
