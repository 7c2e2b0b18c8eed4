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
from .cbtw import CbtwConfig, grid_scale, quantum_multiple
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

    def _shape_key(self):
        return (self.d, self.n_sites, self.binning.bins_per_site)

    def add_batch(self, quanta, frac):
        """Accumulate many configurations at once (rows are replicas).

        Each row becomes one int64 cell code: mixed radix over the quanta
        columns (radix 2d), then over the bin columns (radix B), the first
        column most significant, so numeric code order is lexicographic
        row order. The codes are sorted, counted with one diff, and only
        the distinct codes are decoded back into (quanta, bins) keys, so
        new cells enter `counts` in lexicographic order. Where the next
        column would take the radix product to 2^63, the code so far is
        replaced by its rank among its distinct values, which keeps the
        order; those values are decoded then, and the final decode looks
        ranks up in them.
        """
        quanta = np.asarray(quanta)
        frac = np.asarray(frac)
        m, two_d, b = self.n_sites, 2 * int(self.d), int(self.binning.bins_per_site)
        if quanta.ndim != 2 or quanta.shape[1] != m:
            raise DomainError("quanta batch must be (replicas, n_sites)")
        if frac.shape != quanta.shape:
            raise DomainError(f"frac batch has shape {frac.shape}, quanta batch {quanta.shape}")
        if quanta.dtype.kind == "f":
            if (quanta != np.floor(quanta)).any():
                raise DomainError("batch contains non-integral quanta")
        elif quanta.dtype.kind not in "iu":
            raise DomainError(f"quanta batch has non-integer dtype {quanta.dtype}")
        if (quanta >= two_d).any() or (quanta < 0).any():
            raise DomainError("batch contains unstable or negative quanta")
        if frac.dtype.kind not in "fiu":
            raise DomainError(f"frac batch has non-real dtype {frac.dtype}")
        # Written so that NaN, which fails every comparison, is rejected too.
        if not ((frac >= 0) & (frac < 1.0 / two_d)).all():
            raise DomainError(f"frac entries must lie in [0, {1.0 / two_d})")
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
        code.sort()
        first = np.ones(len(code), dtype=bool)
        first[1:] = code[1:] != code[:-1]
        starts = np.flatnonzero(first)
        cnt = np.diff(starts, append=len(code))
        for row, c in zip(_decode(code[starts], cells, folded).tolist(), cnt.tolist()):
            key = (tuple(row[:m]), tuple(row[m:]))
            self.counts[key] = self.counts.get(key, 0) + c
        self.total += int(quanta.shape[0])
        return self

    @classmethod
    def from_samples(cls, d, binning, quanta, frac):
        quanta = np.asarray(quanta)
        return cls(d, quanta.shape[1], binning).add_batch(quanta, frac)

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
        """Inverse of to_csv; returns (histogram, metadata dict). A `total`
        metadata value must equal the sum of the counts."""
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
            total = int(meta["total"]) if "total" in meta else None
        except KeyError as exc:
            raise DomainError(f"histogram file missing metadata key {exc}") from exc
        except ValueError as exc:
            raise DomainError(f"histogram file has a non-integer metadata value: {exc}") from exc
        hist = cls(d, n_sites, Binning(bins))
        for line in rows:
            fields = line.split(";")
            if len(fields) != 3:
                raise DomainError(f"histogram row {line!r} does not have 3 fields")
            try:
                q = tuple(int(v) for v in fields[0].split(","))
                b = tuple(int(v) for v in fields[1].split(","))
                c = int(fields[2])
            except ValueError as exc:
                raise DomainError(f"histogram row {line!r} has a non-integer entry") from exc
            if len(q) != n_sites or len(b) != n_sites:
                raise DomainError(f"histogram row {line!r} does not have {n_sites} sites")
            if not all(0 <= v < 2 * d for v in q):
                raise DomainError(f"histogram row {line!r} has a quantum outside 0..{2 * d - 1}")
            if not all(0 <= v < bins for v in b):
                raise DomainError(f"histogram row {line!r} has a bin outside 0..{bins - 1}")
            if c < 1:
                raise DomainError(f"histogram row {line!r} has a count below 1")
            hist.counts[(q, b)] = hist.counts.get((q, b), 0) + c
            hist.total += c
        if total is not None and total != hist.total:
            raise DomainError(f"histogram file says total={total}, its counts sum to {hist.total}")
        return hist, meta


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
    row 0 of sample_uniform_allowed_batch."""
    quanta, frac = sample_uniform_allowed_batch(lat, rng, 1, recurrent)
    return CbtwConfig(d=lat.d, quanta=quanta[0], frac=frac[0])


def sample_uniform_allowed_batch(lat, rng, n, recurrent=None):
    """n independent uniform-allowed draws as (quanta, frac) matrices:
    quanta uniform over the recurrent set, frac uniform per site, floored
    onto the fixed-point grid (floor keeps it below the cell width)."""
    n = btw._integer(n, "replica count", 0)
    if recurrent is None:
        recurrent = btw.enumerate_recurrent(lat)
    rows = rng.integers(len(recurrent), size=n)
    quanta = recurrent[rows].copy()
    scale = grid_scale(lat.d)
    frac = rng.uniform(0.0, 1.0 / (2 * lat.d), size=(n, lat.n_sites))
    return quanta, np.floor(frac * scale) / scale


def sample_rational_limit_batch(lat, base, amount, rng, n, recurrent=None, t=None):
    """n independent draws from the limit law at time t of the
    fixed-amount chain from `base`, as (quanta, frac) matrices.

    After t steps the chain sits in the coset base + l(t e_0 + H) of the
    sandpile group, where H is spanned by the differences e_x - e_y. With
    g the gcd of `lat.boundary_degree`, the coset of H holding a
    configuration is fixed by its grain sum mod g, which topplings keep.
    Each draw adds l(xi + r e_0) to `base` and stabilizes, with xi uniform
    recurrent and r = (t - sum(xi)) mod g, so that xi + r e_0 is uniform
    on the coset of t e_0. When g = 1, r is 0 and `t` may be omitted;
    when g > 1 the limit law depends on t mod g, so `t` is required. The
    frac part of `base` is untouched.
    """
    n = btw._integer(n, "replica count", 0)
    l = quantum_multiple(amount, lat.d)
    if l is None or not (1 <= l <= 2 * lat.d - 1):
        raise DomainError(f"amount {amount} is not a quantum multiple l/2d with 0 < l < 1 mass")
    if not base.is_stable():
        raise DomainError("base configuration must be stable")
    g = int(np.gcd.reduce(lat.boundary_degree))
    if g > 1 and t is None:
        raise DomainError(f"the limit law has period {g} on this lattice; give the chain time t")
    if recurrent is None:
        recurrent = btw.enumerate_recurrent(lat)
    xi = recurrent[rng.integers(len(recurrent), size=n)]
    quanta = base.quanta[None, :] + l * xi
    if g > 1:
        quanta[:, 0] += l * ((int(t) - xi.sum(axis=1)) % g)
    btw.stabilize_many(lat, quanta)
    frac = np.broadcast_to(base.frac, quanta.shape).copy()
    return quanta, frac


def tv_noise_floor(lat, binning, n_samples, rng, recurrent=None):
    """TV distance between two independent uniform-allowed sample sets of
    the given size: the Monte Carlo resolution limit for this
    discretization and sample budget."""
    n_samples = btw._integer(n_samples, "n_samples", 1)
    ha = Histogram.from_samples(
        lat.d, binning, *sample_uniform_allowed_batch(lat, rng, n_samples, recurrent))
    hb = Histogram.from_samples(
        lat.d, binning, *sample_uniform_allowed_batch(lat, rng, n_samples, recurrent))
    return estimate_tv(ha, hb)
