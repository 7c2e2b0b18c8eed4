"""Sampling and empirical-distribution tools for stable configurations.

The state space of a stable continuous configuration is a finite union of
boxes: an integer quanta vector (each entry in 0..2d-1) times a frac
vector in [0, 1/2d)^m. Empirical laws are accumulated on the product
discretization that keeps quanta exact and splits each frac cell into B
equal bins; total-variation distances between empirical laws are computed
on that discretization.

The reference law used throughout is uniform-on-allowed: quanta uniform
over the recurrent set (the lattice's cached `Lattice.recurrent`), frac
independent uniform on [0, 1/2d) per site. Under the randomized-addition
dynamics this law is preserved, which is what several experiments in this
package measure.
"""

from dataclasses import dataclass

import numpy as np

from . import btw
from .cbtw import CbtwConfig, _check_config, _check_state, grid_scale, quantum_multiple
from .errors import DomainError


@dataclass(frozen=True)
class Binning:
    """Discretization of the fractional parts: B equal bins per frac cell."""

    bins_per_site: int = 8

    def __post_init__(self):
        btw._integer(self.bins_per_site, "bins_per_site", 1)


def frac_bins(frac, d, binning):
    """Bin indices (0..B-1) of fractional parts in [0, 1/2d)."""
    b = binning.bins_per_site
    idx = np.floor(np.asarray(frac) * (2 * d) * b).astype(np.int64)
    return np.clip(idx, 0, b - 1)


def _decode(codes, cells, radices):
    """Digit rows of mixed-radix `codes`: what is left above the digits of
    `radices` indexes a row of `cells`, and those digits follow it."""
    digits = []
    for radix in reversed(radices):
        codes, digit = np.divmod(codes, radix)
        digits.append(digit)
    return np.column_stack([cells[codes], *digits[::-1]])


class Histogram:
    """Counts of stable configurations on the quanta x frac-bin grid.

    Keys are (quanta tuple, bin tuple).
    """

    def __init__(self, d, n_sites, binning):
        self.d = d
        self.n_sites = n_sites
        self.binning = binning
        self.counts = {}
        self.total = 0

    def add_batch(self, quanta, frac):
        """Accumulate many configurations at once (rows are replicas).

        Each row becomes one int64 cell code: mixed radix over the quanta
        columns (radix 2d), then over the bin columns (radix B), the first
        column most significant, so numeric code order is lexicographic
        row order. The codes are counted by `np.unique`, and only the
        distinct codes are decoded back into (quanta, bins) keys, so
        new cells enter `counts` in lexicographic order. Where the next
        column would take the radix product to 2^63, the code so far is
        replaced by its rank among its distinct values, which keeps the
        order; those values are decoded then, and the final decode looks
        ranks up in them. Rows must be stable states on the histogram's
        lattice (`cbtw._check_state`), or DomainError is raised before any
        count.
        """
        quanta = np.asarray(quanta)
        frac = np.asarray(frac)
        m, two_d, b = self.n_sites, 2 * int(self.d), int(self.binning.bins_per_site)
        _check_state(self.d, m, quanta, frac)
        if quanta.ndim != 2:
            raise DomainError("quanta batch must be (replicas, n_sites)")
        if quanta.size and quanta.max() >= two_d:
            raise DomainError("batch contains unstable quanta")
        columns = [*quanta.astype(np.int64, copy=False).T, *frac_bins(frac, self.d, self.binning).T]
        radices = [two_d] * m + [b] * m
        code = np.zeros(len(quanta), dtype=np.int64)
        span, cells, folded = 1, np.zeros((1, 0), dtype=np.int64), []
        for column, radix in zip(columns, radices):
            if span * radix >= 2**63:
                distinct, code = np.unique(code, return_inverse=True)
                span, cells, folded = len(distinct), _decode(distinct, cells, folded), []
            code = code * radix + column
            span *= radix
            folded.append(radix)
        distinct, cnt = np.unique(code, return_counts=True)
        for row, c in zip(_decode(distinct, cells, folded).tolist(), cnt.tolist()):
            key = (tuple(row[:m]), tuple(row[m:]))
            self.counts[key] = self.counts.get(key, 0) + c
        self.total += int(quanta.shape[0])
        return self

    @classmethod
    def from_samples(cls, d, binning, quanta, frac):
        quanta = np.asarray(quanta)
        if quanta.ndim != 2:
            raise DomainError("quanta batch must be (replicas, n_sites)")
        return cls(d, quanta.shape[1], binning).add_batch(quanta, frac)


def estimate_tv(hist_p, hist_q):
    """Total-variation distance between two empirical laws on the same
    discretization: half the sum of absolute cell-probability differences."""
    if ((hist_p.d, hist_p.n_sites, hist_p.binning.bins_per_site)
            != (hist_q.d, hist_q.n_sites, hist_q.binning.bins_per_site)):
        raise DomainError("histograms live on different discretizations")
    p, q = hist_p.counts, hist_q.counts
    n_p, n_q = hist_p.total, hist_q.total
    if n_p == 0 or n_q == 0:
        raise DomainError("empty histogram")
    return 0.5 * sum(abs(p.get(k, 0) / n_p - q.get(k, 0) / n_q) for k in set(p) | set(q))


def _recurrent_rows(recurrent, rng, n):
    return recurrent[rng.integers(len(recurrent), size=n)]  # fancy indexing copies


def _uniform_allowed(lat, rng, n, recurrent):
    quanta, scale = _recurrent_rows(recurrent, rng, n), grid_scale(lat.d)
    frac = rng.uniform(0.0, 1.0 / (2 * lat.d), size=(n, lat.n_sites))
    return quanta, np.floor(frac * scale) / scale


def sample_uniform_allowed(lat, rng, recurrent=None):
    """One uniform-allowed draw: row 0 of sample_uniform_allowed_batch, or
    from `recurrent` when given, sparing a caller that holds it (exact_group) a scan;
    that must be a nonempty (count, n_sites) integer array whose drawn row is stable."""
    if recurrent is None:
        recurrent = lat.recurrent
    elif not (isinstance(recurrent, np.ndarray) and recurrent.dtype.kind in "iu"
              and recurrent.ndim == 2 and recurrent.shape[0] and recurrent.shape[1] == lat.n_sites):
        raise DomainError(f"recurrent must be a nonempty integer (count, {lat.n_sites}) array")
    quanta, frac = _uniform_allowed(lat, rng, 1, recurrent)
    row = quanta[0].tolist()  # builtin min/max: cheaper than numpy's on a few sites
    if min(row) < 0 or max(row) >= lat.threshold:
        raise DomainError(f"recurrent row {row} is not stable")
    return CbtwConfig(d=lat.d, quanta=quanta[0], frac=frac[0])


def sample_uniform_allowed_batch(lat, rng, n):
    """n independent uniform-allowed draws as (quanta, frac) matrices:
    quanta uniform over `lat.recurrent`, frac uniform per site, floored
    onto the fixed-point grid (floor keeps it below the cell width)."""
    return _uniform_allowed(lat, rng, btw._integer(n, "replica count", 0), lat.recurrent)


def sample_rational_limit_batch(lat, base, amount, rng, n, t=None):
    """n independent draws from the limit law at time t of the
    fixed-amount chain from `base`, as (quanta, frac) matrices.

    After t steps the chain sits in the coset base + l(t e_0 + H) of the
    sandpile group, where H is spanned by the differences e_x - e_y. With
    g the gcd of `lat.boundary_degree`, the coset of H holding a
    configuration is fixed by its grain sum mod g, which topplings keep.
    Each draw adds l(xi + r e_0) to `base` and stabilizes, with xi uniform
    recurrent and r = (t - sum(xi)) mod g, so that xi + r e_0 is uniform
    on the coset of t e_0. When g = 1, r is 0 and `t` may be omitted;
    when g > 1 the limit law depends on t mod g, so `t`, an integer >= 0,
    is required. The frac part of `base` is untouched.
    """
    n = btw._integer(n, "replica count", 0)
    t = None if t is None else btw._integer(t, "time", 0)
    l = quantum_multiple(amount, lat.d)
    if l is None or not (1 <= l <= 2 * lat.d - 1):
        raise DomainError(f"amount {amount} is not a quantum multiple l/2d with 0 < l < 1 mass")
    _check_config(lat, base)
    if not base.is_stable():
        raise DomainError("base configuration must be stable")
    g = int(np.gcd.reduce(lat.boundary_degree))
    if g > 1 and t is None:
        raise DomainError(f"the limit law has period {g} on this lattice; give the chain time t")
    quanta = _recurrent_rows(lat.recurrent, rng, n)  # xi, shifted and scaled in place
    if g > 1:
        quanta[:, 0] += (t - quanta.sum(axis=1)) % g
    quanta *= l
    quanta += base.quanta.astype(np.int64)  # stable, so exact in any integer dtype
    rows = btw._block_rows(lat.n_sites)  # one block at a time: no (n, n_sites) odometer
    for start in range(0, n, rows):
        btw.stabilize_many(lat, quanta[start:start + rows])
    return quanta, np.tile(base.frac, (n, 1))


def tv_noise_floor(lat, binning, n_samples, rng):
    """TV distance between two independent uniform-allowed sample sets of
    the given size: the Monte Carlo resolution limit for this
    discretization and sample budget."""
    n_samples = btw._integer(n_samples, "n_samples", 1)
    ha = Histogram.from_samples(lat.d, binning, *sample_uniform_allowed_batch(lat, rng, n_samples))
    hb = Histogram.from_samples(lat.d, binning, *sample_uniform_allowed_batch(lat, rng, n_samples))
    return estimate_tv(ha, hb)
