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

Fractional parts live on a fixed-point grid: frac = F / S with an integer
F in [0, 2^50) and S = 2d * 2^50, so one quantum is 2^50 grid units. They
are stored as float64 (the conversion F -> F/S -> rint(frac * S) is
lossless), but every addition converts its amount once to U = rint(u * S)
and runs in integers through `_carry`: F + U splits into whole quanta and
a new F, so chains never accumulate rounding error, an addition is
inverted bit for bit, and coupled chains coalesce exactly.

Configurations may hold any mass before stabilization that `btw`'s
relaxation bounds take in int64 quanta; heights past 1 need no care.
"""

from dataclasses import dataclass
import json
import math

import numpy as np

from . import btw
from .errors import DomainError

# One quantum (1/2d of mass) is 2^FRAC_BITS grid units. With F < 2^50 the
# float round trip rint((F/S) * S) is off by at most F * 2^-52 < 1/2 before
# rounding, so it returns F, and F + U stays inside int64 for d < 4096.
FRAC_BITS = 50
FRAC_MASK = (1 << FRAC_BITS) - 1


def grid_scale(d):
    """S = 2d * 2^50, the grid units in one unit of mass (exact as a float)."""
    return float(2 * d << FRAC_BITS)


def grid_units(values, d):
    """Amounts or fractional parts as int64 grid units, rint(values * S)."""
    return np.rint(np.asarray(values, dtype=np.float64) * grid_scale(d)).astype(np.int64)


def _carry(F, U):
    """Add U grid units to fractional parts F: returns (carry, F') with
    F + U = carry * 2^50 + F' and F' in [0, 2^50). A negative sum borrows.
    Works on Python ints and on int64 arrays alike."""
    t = F + U
    return t >> FRAC_BITS, t & FRAC_MASK


@dataclass
class CbtwConfig:
    """Decomposed continuous configuration.

    quanta: int64 array, nonnegative.
    frac: float64 array with entries in [0, 1/2d). Every fractional part
        the package writes is a grid value F/S (see the module docstring);
        frac read from elsewhere joins the grid at its first addition.
    """

    d: int
    quanta: np.ndarray
    frac: np.ndarray

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
        return CbtwConfig(d=self.d, quanta=self.quanta.copy(), frac=self.frac.copy())

    def to_json(self):
        return json.dumps({
            "quanta": [int(q) for q in self.quanta],
            "frac": [float(f) for f in self.frac],
        })

    @classmethod
    def from_json(cls, d, text):
        data = json.loads(text)
        if not isinstance(data, dict) or set(data) != {"quanta", "frac"}:
            raise DomainError(
                'configuration JSON must be an object with exactly the keys "quanta" and "frac"')
        quanta, frac = data["quanta"], data["frac"]
        int64 = np.iinfo(np.int64)
        # bool is an int subclass; JSON true/false are not heights.
        if not (isinstance(quanta, list) and all(
                type(q) is int and int64.min <= q <= int64.max for q in quanta)):
            raise DomainError("quanta must be a list of integers in the int64 range")
        if not (isinstance(frac, list) and all(type(f) in (int, float) for f in frac)):
            raise DomainError("frac must be a list of numbers")
        cfg = cls(d=d, quanta=np.array(quanta, dtype=np.int64),
                  frac=np.array(frac, dtype=np.float64))
        _check_state(d, len(cfg.quanta), cfg.quanta, cfg.frac)
        return cfg


def _check_state(d, n_sites, quanta, frac):
    """The one check of a continuous state, or of any array of states:
    DomainError unless quanta and frac are numpy arrays of one shape whose
    last axis has n_sites entries, quanta of a native integer dtype and
    nonnegative, frac float64 with every entry in [0, 1/2d)."""
    if not (isinstance(quanta, np.ndarray) and isinstance(frac, np.ndarray)
            and quanta.ndim and quanta.shape[-1] == n_sites and frac.shape == quanta.shape
            and quanta.dtype.kind in "iu" and quanta.dtype.isnative
            and frac.dtype == np.float64):
        raise DomainError(f"quanta and frac must be native integer and float64 arrays of "
                          f"one shape ending in {n_sites} sites")
    if quanta.size and quanta.min() < 0:
        raise DomainError("quanta must be nonnegative")
    # Written so that NaN, which fails every comparison, is rejected too.
    if not ((frac >= 0) & (frac < 1.0 / (2 * d))).all():
        raise DomainError(f"frac entries must lie in [0, {1.0 / (2 * d)})")


def _check_config(lat, cfg):
    if cfg.d != lat.d:
        raise DomainError(f"configuration dimension {cfg.d} != lattice dimension {lat.d}")
    _check_state(lat.d, lat.n_sites, cfg.quanta, cfg.frac)
    if cfg.quanta.ndim != 1:
        raise DomainError("a configuration's quanta and frac must be 1-d arrays")


def decompose(lat, heights):
    """Split dense real heights into (quanta, frac) on the grid.

    A fractional part that rounds to a whole cell, as for heights like
    0.9999999999999999 * (1/2d), carries into the next quantum.
    """
    h = np.asarray(heights, dtype=np.float64)
    if h.shape != (lat.n_sites,):
        raise DomainError(f"heights must have shape ({lat.n_sites},), got {h.shape}")
    scaled = h * (2 * lat.d)
    # Written so that NaN, which fails every comparison, is rejected too.
    if not ((h >= 0) & (scaled < 2.0**63)).all():
        raise DomainError("heights must be nonnegative and finite, with 2d * height below 2^63")
    quanta = np.floor(scaled).astype(np.int64)
    carry, F = _carry(grid_units(h - quanta / (2 * lat.d), lat.d), 0)
    return CbtwConfig(d=lat.d, quanta=quanta + carry, frac=F / grid_scale(lat.d))


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


def cbtw_topple(lat, config, x):
    """Topple site x once (`btw.btw_topple` on the quanta, as int64): mass 1
    leaves x, 1/2d lands on each in-set neighbour. Returns (new_config, legal)."""
    _check_config(lat, config)
    quanta, legal = btw.btw_topple(lat, config.quanta, x)
    return CbtwConfig(d=config.d, quanta=quanta, frac=config.frac.copy()), legal


def cbtw_stabilize(lat, config):
    """Topple until every mass is below 1; returns (config, odometer).

    Pure quanta work: the odometer and the stable quanta equal the
    integer-sandpile stabilization of `quanta`, and frac is copied
    bit for bit.
    """
    _check_config(lat, config)
    quanta, od = btw.btw_stabilize(lat, config.quanta)
    return CbtwConfig(d=config.d, quanta=quanta, frac=config.frac.copy()), od


def _add_inplace(lat, quanta, frac, x, u):
    """Add mass u at site x and stabilize, mutating the arrays in place:
    cbtw_add's kernel, and the one-step reference that run_chain's loop
    is tested against. A float u is converted to grid units rint(u * S);
    an int is grid units already. The carry goes through `btw._drop`,
    which relaxes every unstable site. A carry that removes quanta or
    that `_drop` refuses raises DomainError before any write."""
    scale = grid_scale(lat.d)
    units = round(u * scale) if isinstance(u, float) else u
    carry, F = _carry(round(frac.item(x) * scale), units)
    if carry < 0:
        raise DomainError(
            f"addition at site {x} would remove quanta: fractional part {frac[x]} "
            f"lies outside [0, {1.0 / (2 * lat.d)})")
    btw._drop(lat, quanta, x, carry)
    frac[x] = F / scale


def cbtw_add(lat, config, x, u):
    """Add mass u in [0, 1) at site x, then relax every unstable site.

    Total mass quanta/2d + frac is conserved by the add itself: the
    fractional overflow is carried into quanta before stabilization.
    The amount is rounded to the grid, u -> rint(u * S) / S. Any start
    ends stable.
    """
    _check_config(lat, config)
    x = btw._site(lat, x)
    if not (0.0 <= u < 1.0):
        raise DomainError(f"addition amount must lie in [0, 1), got {u}")
    quanta = config.quanta.copy()
    frac = config.frac.copy()
    _add_inplace(lat, quanta, frac, x, float(u))
    return CbtwConfig(d=config.d, quanta=quanta, frac=frac)


def cbtw_inverse_add(lat, config, x, u, recurrent=None):
    """Invert cbtw_add: recover eta from zeta = cbtw_add(eta, x, u).

    Defined on stable allowed configurations, whose quanta are exactly
    the recurrent ones: btw_inverse_add's burning test raises DomainError
    for the rest. In grid units, F - U at x splits through `_carry` into
    the old fractional part and a borrow of k quanta, the carry cbtw_add
    made, so add(inverse_add(zeta)) == zeta bit for bit. The quanta roll
    back by k quantum additions through btw_inverse_add, which adds
    grains in proportion to k, never to the addition order, so it works
    on lattices far too large to enumerate; k lies in [0, 2d], so no
    order is needed to reduce it. `recurrent` is ignored; the exact_group
    benchmark still passes one.
    """
    _check_config(lat, config)
    x = btw._site(lat, x)
    if not (0.0 <= u < 1.0):
        raise DomainError(f"addition amount must lie in [0, 1), got {u}")
    if not config.is_stable():
        raise DomainError("inverse addition needs a stable configuration")
    scale = grid_scale(lat.d)
    borrow, F = _carry(round(config.frac.item(x) * scale), -round(u * scale))
    quanta = btw.btw_inverse_add(lat, config.quanta, x, power=-borrow)
    frac = config.frac.copy()
    frac[x] = F / scale
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


def quantum_multiple(amount, d):
    """The integer l with amount = l/2d on the grid, or None.

    A chain step adds the amount's grid units U = rint(amount * S), so it
    leaves every fractional part where it was exactly when U is a whole
    number l of quanta (l * 2^50 units). Any other U, and NaN or an
    infinity, gives None.
    """
    if not math.isfinite(amount):
        return None
    l, F = _carry(round(float(amount) * grid_scale(d)), 0)
    return l if F == 0 else None


@dataclass(frozen=True)
class AdditionParams:
    """Distribution of the random addition amounts.

    a == b gives the fixed-amount chain (every addition is exactly a);
    a < b draws amounts uniformly from [a, b].
    """

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a <= self.b < 1.0):
            raise DomainError(
                f"addition amounts need 0 <= a <= b < 1, got a={self.a}, b={self.b}")

    @property
    def mode(self):
        return "fixed" if self.a == self.b else "interval"
