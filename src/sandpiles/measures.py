"""Sampling and empirical-distribution tools for stable configurations.

The state space of a stable continuous configuration is a finite union of
boxes: an integer quanta vector (each entry in 0..2d-1) times a frac
vector in [0, 1/2d)^m. Empirical laws are accumulated on the product
discretization that keeps quanta exact and splits each frac cell into B
equal bins; total-variation distances between empirical laws are computed
on that discretization.

The reference law used throughout is uniform-on-allowed: quanta uniform
over the recurrent set, frac independent uniform on [0, 1/2d) per site.
Under the randomized-addition dynamics this law is preserved, which is
what several experiments in this package measure.
"""

from dataclasses import dataclass

import numpy as np

from . import btw
from .cbtw import CbtwConfig, quantum_multiple
from .errors import DomainError


@dataclass(frozen=True)
class Binning:
    """Discretization of the fractional parts: B equal bins per frac cell."""

    bins_per_site: int = 8

    def __post_init__(self):
        if self.bins_per_site < 1:
            raise DomainError("bins_per_site must be >= 1")


def frac_bins(frac, d, binning):
    """Bin indices (0..B-1) of fractional parts in [0, 1/2d)."""
    b = binning.bins_per_site
    idx = np.floor(np.asarray(frac) * (2 * d) * b).astype(np.int64)
    return np.clip(idx, 0, b - 1)


class Histogram:
    """Counts of stable configurations on the quanta x frac-bin grid.

    Keys are (quanta tuple, bin tuple). Merging histograms with the same
    shape parameters is associative and commutative, so accumulation can
    be split across workers and combined afterwards.
    """

    def __init__(self, d, n_sites, binning):
        self.d = d
        self.n_sites = n_sites
        self.binning = binning
        self.counts = {}
        self.total = 0

    def _shape_key(self):
        return (self.d, self.n_sites, self.binning.bins_per_site)

    def key_for(self, config):
        if config.d != self.d or config.n_sites != self.n_sites:
            raise DomainError("configuration does not match histogram shape")
        if not config.is_stable():
            raise DomainError("histograms hold stable configurations only")
        q = tuple(int(v) for v in config.quanta)
        b = tuple(int(v) for v in frac_bins(config.frac, self.d, self.binning))
        return q, b

    def add(self, config):
        key = self.key_for(config)
        self.counts[key] = self.counts.get(key, 0) + 1
        self.total += 1
        return self

    def add_batch(self, quanta, frac):
        """Accumulate many configurations at once (rows are replicas)."""
        quanta = np.asarray(quanta)
        if quanta.ndim != 2 or quanta.shape[1] != self.n_sites:
            raise DomainError("quanta batch must be (replicas, n_sites)")
        if (quanta >= 2 * self.d).any() or (quanta < 0).any():
            raise DomainError("batch contains unstable or negative quanta")
        bins = frac_bins(frac, self.d, self.binning)
        rows = np.concatenate([quanta.astype(np.int64), bins], axis=1)
        # Distinct rows in lexicographic order, with their counts.
        rows = rows[np.lexsort(rows.T[::-1])]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        starts = np.flatnonzero(first)
        cnt = np.diff(starts, append=len(rows))
        m = self.n_sites
        for row, c in zip(rows[starts].tolist(), cnt.tolist()):
            key = (tuple(row[:m]), tuple(row[m:]))
            self.counts[key] = self.counts.get(key, 0) + c
        self.total += int(quanta.shape[0])
        return self

    @classmethod
    def from_samples(cls, d, binning, quanta, frac):
        quanta = np.asarray(quanta)
        return cls(d, quanta.shape[1], binning).add_batch(quanta, frac)

    def merge(self, other):
        """New histogram with the combined counts."""
        if self._shape_key() != other._shape_key():
            raise DomainError("cannot merge histograms with different shapes")
        out = Histogram(self.d, self.n_sites, self.binning)
        out.counts = dict(self.counts)
        for key, c in other.counts.items():
            out.counts[key] = out.counts.get(key, 0) + c
        out.total = self.total + other.total
        return out

    def probabilities(self):
        if self.total == 0:
            raise DomainError("empty histogram")
        return {k: c / self.total for k, c in self.counts.items()}

    def to_csv(self, path, metadata=None):
        """Write `# key=value` metadata lines, a header, then one sorted
        row per occupied cell: quanta and bins comma-joined, fields
        separated by semicolons."""
        lines = []
        meta = {"d": self.d, "n_sites": self.n_sites,
                "bins_per_site": self.binning.bins_per_site, "total": self.total}
        if metadata:
            meta.update(metadata)
        for key, value in meta.items():
            lines.append(f"# {key}={value}")
        lines.append("quanta;bins;count")
        for (q, b) in sorted(self.counts):
            c = self.counts[(q, b)]
            lines.append(f"{','.join(map(str, q))};{','.join(map(str, b))};{c}")
        text = "\n".join(lines) + "\n"
        with open(path, "w") as fh:
            fh.write(text)

    @classmethod
    def from_csv(cls, path):
        """Inverse of to_csv; returns (histogram, metadata dict)."""
        meta = {}
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, value = line.lstrip("# ").partition("=")
                    meta[key.strip()] = value.strip()
                elif line != "quanta;bins;count":
                    rows.append(line)
        try:
            d = int(meta["d"])
            n_sites = int(meta["n_sites"])
            bins = int(meta["bins_per_site"])
        except KeyError as exc:
            raise DomainError(f"histogram file missing metadata key {exc}") from exc
        hist = cls(d, n_sites, Binning(bins))
        for line in rows:
            q_part, b_part, c_part = line.split(";")
            key = (tuple(int(v) for v in q_part.split(",")),
                   tuple(int(v) for v in b_part.split(",")))
            hist.counts[key] = hist.counts.get(key, 0) + int(c_part)
            hist.total += int(c_part)
        return hist, meta


def accumulate(hist, config):
    """Add one stable configuration to a histogram (returns the histogram)."""
    return hist.add(config)


def estimate_tv(hist_p, hist_q):
    """Total-variation distance between two empirical laws on the same
    discretization: half the sum of absolute cell-probability differences."""
    if hist_p._shape_key() != hist_q._shape_key():
        raise DomainError("histograms live on different discretizations")
    p = hist_p.probabilities()
    q = hist_q.probabilities()
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def sample_uniform_allowed(lat, rng, recurrent=None):
    """One draw from the uniform law on stable allowed configurations:
    quanta uniform over the recurrent set, frac uniform per site."""
    if recurrent is None:
        recurrent = btw.enumerate_recurrent(lat)
    quanta = recurrent[rng.integers(len(recurrent))].copy()
    frac = rng.uniform(0.0, 1.0 / (2 * lat.d), size=lat.n_sites)
    return CbtwConfig(d=lat.d, quanta=quanta, frac=frac)


def sample_uniform_allowed_batch(lat, rng, n, recurrent=None):
    """n independent uniform-allowed draws as (quanta, frac) matrices."""
    if recurrent is None:
        recurrent = btw.enumerate_recurrent(lat)
    rows = rng.integers(len(recurrent), size=n)
    quanta = recurrent[rows].copy()
    frac = rng.uniform(0.0, 1.0 / (2 * lat.d), size=(n, lat.n_sites))
    return quanta, frac


def sample_rational_limit(lat, base, amount, rng, recurrent=None):
    """One draw from the long-run law of the fixed-amount chain when the
    amount is a quantum multiple l/2d: add l quanta at every site of a
    uniform recurrent configuration to `base` and stabilize. The frac
    part of `base` is untouched."""
    l = quantum_multiple(amount, lat.d)
    if l is None or not (1 <= l <= 2 * lat.d - 1):
        raise DomainError(f"amount {amount} is not a quantum multiple l/2d with 0 < l < 1 mass")
    if not base.is_stable():
        raise DomainError("base configuration must be stable")
    if recurrent is None:
        recurrent = btw.enumerate_recurrent(lat)
    xi = recurrent[rng.integers(len(recurrent))]
    quanta = base.quanta + l * xi
    quanta, _ = btw.btw_stabilize(lat, quanta)
    return CbtwConfig(d=lat.d, quanta=quanta, frac=base.frac.copy())


def sample_rational_limit_batch(lat, base, amount, rng, n, recurrent=None):
    """n independent rational-limit draws as (quanta, frac) matrices."""
    l = quantum_multiple(amount, lat.d)
    if l is None or not (1 <= l <= 2 * lat.d - 1):
        raise DomainError(f"amount {amount} is not a quantum multiple l/2d with 0 < l < 1 mass")
    if not base.is_stable():
        raise DomainError("base configuration must be stable")
    if recurrent is None:
        recurrent = btw.enumerate_recurrent(lat)
    xi = recurrent[rng.integers(len(recurrent), size=n)]
    quanta = base.quanta[None, :] + l * xi
    btw.stabilize_many(lat, quanta)
    frac = np.broadcast_to(base.frac, quanta.shape).copy()
    return quanta, frac


def tv_noise_floor(lat, binning, n_samples, rng, recurrent=None):
    """TV distance between two independent uniform-allowed sample sets of
    the given size: the Monte Carlo resolution limit for this
    discretization and sample budget."""
    qa, fa = sample_uniform_allowed_batch(lat, rng, n_samples, recurrent)
    qb, fb = sample_uniform_allowed_batch(lat, rng, n_samples, recurrent)
    ha = Histogram.from_samples(lat.d, binning, qa, fa)
    hb = Histogram.from_samples(lat.d, binning, qb, fb)
    return estimate_tv(ha, hb)
