"""Continuous-height sandpile, stored in decomposed form.

A continuous configuration gives each site a nonnegative real mass. A
site with mass at least 1 may topple: it sheds exactly 1, each of its 2d
potential neighbours receives 1/2d, and shares on boundary bonds leave
the system. Every exchange is a whole multiple of 1/2d, so a
configuration splits into

    mass = quanta / 2d + frac,   quanta = floor(2d * mass) in Z>=0,
                                 frac = mass mod 1/2d in [0, 1/2d)

and toppling acts on `quanta` exactly like the integer sandpile with
threshold 2d while `frac` is untouched. The package stores (quanta, frac)
instead of raw masses: stabilization is exact integer work, and the
fractional parts are preserved bit for bit by construction. Mass
additions are the only operation that moves weight between the two parts.

Configurations may hold arbitrarily large mass before stabilization;
`quanta` is an unbounded int64 array, so additions that push a height
past 1 need no special handling.
"""

from dataclasses import dataclass
import json

import numpy as np

from . import btw
from .errors import DomainError

# Fractional parts within this distance of the cell width 1/2d are snapped
# to 0 and the quantum carried, so equality checks across code paths agree.
SNAP = 1e-15


@dataclass
class CbtwConfig:
    """Decomposed continuous configuration.

    quanta: int64 array, nonnegative.
    frac: float64 array with entries in [0, 1/2d).
    add_counts / base_frac: optional per-site bookkeeping for chains with a
        fixed addition amount `a`. When present, cbtw_add recomputes the
        fractional part at the touched site as
        (base_frac + add_counts * a) mod 1/2d instead of accumulating
        floating-point increments, so long runs do not drift.
    """

    d: int
    quanta: np.ndarray
    frac: np.ndarray
    add_counts: np.ndarray = None
    base_frac: np.ndarray = None

    @property
    def cell(self):
        return 1.0 / (2 * self.d)

    @property
    def n_sites(self):
        return len(self.quanta)

    def heights(self):
        """Dense real heights quanta/2d + frac."""
        return self.quanta * self.cell + self.frac

    def is_stable(self):
        """Mass below 1 everywhere, equivalently quanta <= 2d - 1."""
        return bool((self.quanta < 2 * self.d).all())

    def copy(self):
        return CbtwConfig(
            d=self.d,
            quanta=self.quanta.copy(),
            frac=self.frac.copy(),
            add_counts=None if self.add_counts is None else self.add_counts.copy(),
            base_frac=self.base_frac,
        )

    def with_tracking(self):
        """Copy with fixed-amount bookkeeping switched on from this state."""
        base = self.frac.copy()
        base.setflags(write=False)
        return CbtwConfig(
            d=self.d,
            quanta=self.quanta.copy(),
            frac=self.frac.copy(),
            add_counts=np.zeros(self.n_sites, dtype=np.int64),
            base_frac=base,
        )

    def to_json(self):
        return json.dumps({
            "quanta": [int(q) for q in self.quanta],
            "frac": [float(f) for f in self.frac],
        })

    @classmethod
    def from_json(cls, d, text):
        data = json.loads(text)
        if set(data) != {"quanta", "frac"}:
            raise DomainError('configuration JSON must have exactly the keys "quanta" and "frac"')
        quanta = np.asarray(data["quanta"], dtype=np.int64)
        frac = np.asarray(data["frac"], dtype=np.float64)
        cfg = cls(d=d, quanta=quanta, frac=frac)
        _check_config_values(cfg)
        return cfg


def _check_config_values(cfg):
    if cfg.quanta.shape != cfg.frac.shape or cfg.quanta.ndim != 1:
        raise DomainError("quanta and frac must be 1-d arrays of equal length")
    if (cfg.quanta < 0).any():
        raise DomainError("quanta must be nonnegative")
    # Written so that NaN, which fails every comparison, is rejected too.
    if not ((cfg.frac >= 0) & (cfg.frac < cfg.cell)).all():
        raise DomainError(f"frac entries must lie in [0, {cfg.cell})")


def _check_config(lat, cfg):
    if cfg.d != lat.d:
        raise DomainError(f"configuration dimension {cfg.d} != lattice dimension {lat.d}")
    if cfg.n_sites != lat.n_sites:
        raise DomainError(f"configuration has {cfg.n_sites} sites, lattice has {lat.n_sites}")
    _check_config_values(cfg)


def decompose(lat, heights):
    """Split dense real heights into (quanta, frac).

    Fractional parts within SNAP of the cell width roll into the next
    quantum, so heights like 0.9999999999999999 * (1/2d) land on the
    quantum boundary they mean.
    """
    h = np.asarray(heights, dtype=np.float64)
    if h.shape != (lat.n_sites,):
        raise DomainError(f"heights must have shape ({lat.n_sites},), got {h.shape}")
    if (h < 0).any():
        raise DomainError("heights must be nonnegative")
    two_d = 2 * lat.d
    cell = 1.0 / two_d
    quanta = np.floor(h * two_d).astype(np.int64)
    frac = h - quanta * cell
    roll = frac >= cell - SNAP
    quanta[roll] += 1
    frac[roll] = 0.0
    np.clip(frac, 0.0, None, out=frac)
    return CbtwConfig(d=lat.d, quanta=quanta, frac=frac)


def recompose(cfg):
    """Dense real heights of a decomposed configuration."""
    return cfg.heights()


def zero_config(lat):
    """The empty configuration."""
    return CbtwConfig(d=lat.d,
                      quanta=np.zeros(lat.n_sites, dtype=np.int64),
                      frac=np.zeros(lat.n_sites, dtype=np.float64))


def max_config(lat):
    """Maximal stable configuration: mass (2d-1)/2d everywhere, frac 0."""
    return CbtwConfig(d=lat.d,
                      quanta=btw.max_stable(lat),
                      frac=np.zeros(lat.n_sites, dtype=np.float64))


def cbtw_topple(lat, config, x, force=False):
    """Topple site x once: mass 1 leaves x, 1/2d lands on each in-set
    neighbour. Returns (new_config, legal); frac is untouched."""
    _check_config(lat, config)
    legal = bool(config.quanta[x] >= 2 * lat.d)
    quanta = config.quanta.copy()
    if legal or force:
        quanta[x] -= 2 * lat.d
        quanta[lat.adjacency[x]] += 1
    return CbtwConfig(d=config.d, quanta=quanta, frac=config.frac.copy()), legal


def cbtw_stabilize(lat, config):
    """Topple until every mass is below 1; returns (config, odometer).

    Pure quanta work: the odometer and the stable quanta equal the
    integer-sandpile stabilization of `quanta`, and frac is copied
    bit for bit.
    """
    _check_config(lat, config)
    quanta, od = btw.btw_stabilize(lat, config.quanta)
    return CbtwConfig(d=config.d, quanta=quanta, frac=config.frac.copy(),
                      add_counts=None if config.add_counts is None else config.add_counts.copy(),
                      base_frac=config.base_frac), od


def _add_inplace(lat, quanta, frac, x, u, add_counts=None, base_frac=None):
    """Add mass u at site x and stabilize, mutating the arrays in place.

    Shared kernel for cbtw_add and the chain drivers. When add_counts is
    given the new fractional part is recomputed from base_frac (fixed
    amount u every call), and the quantum carry is reconciled from mass
    conservation so it stays correct even when the recomputed value lands
    across a cell boundary from the accumulated one.
    """
    two_d = 2 * lat.d
    cell = 1.0 / two_d
    if add_counts is not None:
        add_counts[x] += 1
        f_new = (base_frac[x] + add_counts[x] * u) % cell
        if f_new >= cell - SNAP:
            f_new = 0.0
        carry = int(round((frac[x] + u - f_new) * two_d))
    else:
        total = frac[x] + u
        carry = int(total / cell)
        f_new = total - carry * cell
        if f_new >= cell - SNAP:
            carry += 1
            f_new = 0.0
        elif f_new < 0.0:
            carry -= 1
            f_new += cell
            if f_new >= cell - SNAP:
                carry += 1
                f_new = 0.0
    if carry < 0:
        raise DomainError(
            f"addition at site {x} would remove quanta: fractional part {frac[x]} "
            f"lies outside [0, {cell})")
    frac[x] = f_new
    quanta[x] += carry
    btw.stabilize_from(lat, quanta, (x,))


def cbtw_add(lat, config, x, u):
    """Add mass u in [0, 1) at site x, then stabilize.

    Total mass quanta/2d + frac is conserved by the add itself: the
    fractional overflow is carried into quanta before stabilization.
    """
    _check_config(lat, config)
    if not (0.0 <= u < 1.0):
        raise DomainError(f"addition amount must lie in [0, 1), got {u}")
    quanta = config.quanta.copy()
    frac = config.frac.copy()
    counts = None if config.add_counts is None else config.add_counts.copy()
    _add_inplace(lat, quanta, frac, x, u,
                 add_counts=counts, base_frac=config.base_frac)
    return CbtwConfig(d=config.d, quanta=quanta, frac=frac,
                      add_counts=counts, base_frac=config.base_frac)


def cbtw_inverse_add(lat, config, x, u, order=None, recurrent=None):
    """Invert cbtw_add: recover eta from zeta = cbtw_add(eta, x, u).

    Defined on stable allowed configurations. The fractional part at x
    rolls back by u modulo the cell width; the quanta roll back by
    floor(2d u) quantum additions, plus one more when the fractional
    subtraction borrows a quantum (zeta's frac at x is below u mod 1/2d).
    Quantum rollbacks use the forward addition powers of btw_inverse_add.
    """
    _check_config(lat, config)
    if not (0.0 <= u < 1.0):
        raise DomainError(f"addition amount must lie in [0, 1), got {u}")
    if not config.is_stable():
        raise DomainError("inverse addition needs a stable configuration")
    if not is_allowed_cbtw(lat, config):
        raise DomainError("inverse addition is defined only on allowed configurations")
    two_d = 2 * lat.d
    cell = 1.0 / two_d
    r = int(u / cell)
    u_mod = u - r * cell
    if u_mod >= cell - SNAP:
        r += 1
        u_mod = 0.0
    fx = config.frac[x]
    if fx >= u_mod:
        k = r
        f_new = fx - u_mod
    else:
        k = r + 1
        f_new = fx - u_mod + cell
    if f_new >= cell - SNAP:
        f_new = 0.0
    quanta = btw.btw_inverse_add(lat, config.quanta, x, power=k,
                                 order=order, recurrent=recurrent)
    frac = config.frac.copy()
    frac[x] = max(f_new, 0.0)
    return CbtwConfig(d=config.d, quanta=quanta, frac=frac)


def is_allowed_cbtw(lat, config):
    """Allowedness of a stable continuous configuration.

    A subset W is forbidden when every x in W has mass below
    (neighbours of x inside W)/2d; since frac < 1/2d this holds iff the
    quanta alone are forbidden in the integer sense, so the burning test
    runs on quanta.
    """
    _check_config(lat, config)
    if not config.is_stable():
        raise DomainError("allowedness is defined for stable configurations")
    return btw.is_recurrent_burning(lat, config.quanta)


def quantum_multiple(amount, d, tol=1e-12):
    """The integer l with amount = l/2d, or None if amount is not within
    tol of a quantum multiple."""
    scaled = amount * 2 * d
    l = int(round(scaled))
    if abs(scaled - l) <= tol:
        return l
    return None


@dataclass(frozen=True)
class AdditionParams:
    """Distribution of the random addition amounts.

    a == b gives the fixed-amount chain (every addition is exactly a);
    a < b draws amounts uniformly from [a, b]. `rationality` is an
    optional descriptive tag ("rational" / "irrational") recording what
    the fixed amount is modelling; numeric code never branches on it,
    since every float is rational.
    """

    a: float
    b: float
    rationality: str = None

    def __post_init__(self):
        if not (0.0 <= self.a <= self.b < 1.0):
            raise DomainError(
                f"need 0 <= a <= b < 1, got a={self.a}, b={self.b}")
        if self.rationality not in (None, "rational", "irrational"):
            raise DomainError(f"unknown rationality tag {self.rationality!r}")

    @property
    def mode(self):
        return "fixed" if self.a == self.b else "interval"

    def draw(self, rng, size=None):
        """Sample addition amounts."""
        if self.mode == "fixed":
            if size is None:
                return self.a
            return np.full(size, self.a, dtype=np.float64)
        return rng.uniform(self.a, self.b, size=size)
