"""Classical integer sandpile on a finite lattice with open boundary.

Heights are nonnegative int64 arrays in the lattice's site order. A site
holding at least 2d grains is unstable and may topple: it sheds 2d grains,
each in-set neighbour gains one, and grains on boundary bonds leave the
system. Stabilization topples until every site is stable; the result and
the per-site toppling counts (odometer) do not depend on the order in
which legal topplings are performed.
"""

from fractions import Fraction
import math

import numpy as np

from .errors import CapacityError, DomainError

BRUTEFORCE_MAX_SITES = 24
ENUMERATION_CAP = 1_000_000
ENUMERATION_CHUNK = 1 << 14


def _as_heights(lat, heights):
    """Checked heights as a fresh int64 copy."""
    h = np.asarray(heights)
    if h.shape != (lat.n_sites,):
        raise DomainError(f"heights must have shape ({lat.n_sites},), got {h.shape}")
    if not np.issubdtype(h.dtype, np.integer):
        raise DomainError("integer sandpile heights must be an integer array")
    if (h < 0).any():
        raise DomainError("heights must be nonnegative")
    return h.astype(np.int64)


# Native integer item formats of the buffer protocol; a non-native byte
# order ("<q", ">q") has no item access through a memoryview.
_INTEGER_FORMATS = frozenset("bhilqBHILQ")


def _integer(value, name, low=None):
    """`value` as a Python int; DomainError unless it is an integer other
    than a bool, and at least `low` when `low` is given."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if low is not None and value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")
    return value


def _site(lat, x):
    """Site index x as a Python int; DomainError unless x is an integer in
    [0, n_sites) (a negative index would wrap around silently)."""
    if type(x) is not int:
        x = _integer(x, "site index")
    if not 0 <= x < lat.n_sites:
        raise DomainError(f"site index {x} outside [0, {lat.n_sites})")
    return x


def _relaxable(lat, heights):
    """A memoryview that relaxes `heights` in place: DomainError unless it
    is a writable 1-D integer array of length n_sites."""
    try:
        h = memoryview(heights)
    except TypeError:
        raise DomainError("heights must be an array that supports the buffer protocol") from None
    if h.readonly or h.ndim != 1 or h.format not in _INTEGER_FORMATS or len(h) != lat.n_sites:
        h.release()
        raise DomainError(
            f"heights must be a writable 1-d integer array of length {lat.n_sites}")
    return h


def is_stable(lat, heights):
    """True iff every site holds fewer than 2d grains."""
    return bool((_as_heights(lat, heights) < lat.threshold).all())


def max_stable(lat):
    """The maximal stable configuration: 2d - 1 grains everywhere."""
    return np.full(lat.n_sites, lat.threshold - 1, dtype=np.int64)


def btw_topple(lat, heights, x):
    """Topple site x once.

    Returns (new_heights, legal). The toppling is legal iff x is unstable;
    when it is not the configuration is returned unchanged.
    """
    x = _site(lat, x)
    h = _as_heights(lat, heights)
    legal = bool(h[x] >= lat.threshold)
    if legal:
        h[x] -= lat.threshold
        h[list(lat.adjacency[x])] += 1
    return h, legal


def _relax(h, fired, queued, queue, nbrs, two_d):
    """The FIFO loop of `stabilize_from`, unchecked: topples the flagged
    sites of `queue` and all they make unstable, adds the topplings to
    `fired` and clears `queued`. It works on Python ints through
    memoryviews: indexing numpy scalars costs more than a toppling."""
    while queue:
        later = []
        enqueue = later.append
        for x in queue:
            queued[x] = 0
            k = h[x] // two_d
            h[x] -= k * two_d
            fired[x] += k
            for y in nbrs[x]:
                hy = h[y] + k
                h[y] = hy
                if hy >= two_d and not queued[y]:
                    queued[y] = 1
                    enqueue(y)
        queue = later


def stabilize_from(lat, heights, seeds):
    """FIFO stabilization of `heights` in place, seeded from `seeds`.

    `heights` is a writable 1-D integer array of length n_sites (a strided
    view, such as a column of a 2-D array, is fine); anything else raises
    DomainError before any write. `seeds` are site indices, each an
    integer in [0, n_sites), repeats allowed. Only unstable seeds start
    the avalanche, and a site topples only when the avalanche reaches it:
    an unstable site that no toppling touches stays as it is. The
    interpreted work is proportional to the seeds plus the topplings times
    2d, not to n_sites; only the zeroed odometer and queue flags have
    n_sites entries, and `run_chain` sets those up once per run for the
    shared loop `_relax`. Returns the odometer as an int64 array.
    """
    n, two_d = lat.n_sites, lat.threshold
    h = _relaxable(lat, heights)
    od = np.zeros(n, dtype=np.int64)
    queued = bytearray(n)
    queue = []
    for s in seeds:
        i = _site(lat, s)
        if not queued[i] and h[i] >= two_d:
            queued[i] = 1
            queue.append(i)
    # The views are released with this frame: `with` blocks cost about
    # 0.5 us per call, as much as relaxing a one-toppling avalanche.
    _relax(h, od.data, queued, queue, lat.adjacency, two_d)
    return od


def btw_stabilize(lat, heights):
    """Topple until stable; returns (stable_heights, odometer).

    Order-independent by abelianness; this implementation runs parallel
    rounds: each round topples every unstable site floor(h/2d) times at
    once, then every site gathers its inflow from the toppling counts of
    its in-set neighbours through `lat.neighbour_table`, whose padding
    points at a count that stays 0 (the sink). A whole configuration
    relaxes in whole-array work per round instead of interpreted work per
    toppling. It shares no code with the FIFO `stabilize_from` or with
    `stabilize_many` (box slices or neighbour-table rounds), which tests
    and the benchmark check against it.
    """
    h = _as_heights(lat, heights)
    n, two_d = lat.n_sites, lat.threshold
    od = np.zeros(n, dtype=np.int64)
    # k[n] stays 0: the padding of the table gathers nothing from the sink.
    k = np.zeros(n + 1, dtype=np.int64)
    fired = k[:n]
    table = lat.neighbour_table
    while True:
        np.floor_divide(h, two_d, out=fired)
        if not fired.any():
            return h, od
        h -= two_d * fired
        od += fired
        h += k[table].sum(axis=0)


def _shifts(ndim):
    """(a, b) index pairs that add a grid's entries at b into the
    neighbouring entries at a, for both directions of every axis after
    the first (the replica axis)."""
    pairs = []
    for axis in range(1, ndim):
        upper = [slice(None)] * ndim
        lower = [slice(None)] * ndim
        upper[axis] = slice(1, None)
        lower[axis] = slice(None, -1)
        pairs += [(tuple(upper), tuple(lower)), (tuple(lower), tuple(upper))]
    return pairs


def stabilize_many(lat, quanta):
    """Stabilize many configurations at once; rows of `quanta` are replicas.

    Mutates `quanta` in place and returns the odometer matrix. Each round
    topples every unstable site of every replica floor(h/2d) times, which
    is a legal parallel schedule, so the fixed point matches the scalar
    stabilizer exactly. A box lattice relaxes as a grid of replicas
    reshaped from `quanta` (a view where the layout allows), with sliced
    neighbour additions. Any other lattice relaxes site-major, on
    `quanta.T` (a view when `quanta` is column-major): every site gathers
    its inflow through `lat.neighbour_table`, whose padding points at a
    row of counts that stays 0 (the sink). The work is O(n_sites) per
    replica-round either way; there is no bounding box. `quanta` must be a
    writable 2-D integer array with n_sites columns and no negative entry;
    anything else raises DomainError before any write.
    """
    if not (isinstance(quanta, np.ndarray) and quanta.ndim == 2 and quanta.dtype.kind in "iu"
            and quanta.shape[1] == lat.n_sites and quanta.flags.writeable):
        raise DomainError(
            f"quanta must be a writable 2-d integer array with {lat.n_sites} columns")
    if quanta.size and quanta.min() < 0:
        raise DomainError("quanta must be nonnegative")
    two_d = lat.threshold
    box = lat.dims is not None
    h = quanta.reshape(quanta.shape[:1] + lat.dims) if box else np.ascontiguousarray(quanta.T)
    od = np.zeros_like(h)
    if box:
        k = np.empty_like(h)
        shifts = _shifts(h.ndim)
    else:
        # One row more than h, which stays 0: the table's padding gathers the sink.
        k = np.zeros((len(h) + 1, h.shape[1]), dtype=h.dtype)
        table = lat.neighbour_table
    fired = k[:len(h)]
    while True:
        np.floor_divide(h, two_d, out=fired)
        if not fired.any():
            break
        h -= fired * two_d
        od += fired
        if box:
            for a, b in shifts:
                h[a] += k[b]
        else:
            for row in table:
                h += k[row]
    if not np.may_share_memory(h, quanta):
        quanta[...] = h.reshape(quanta.shape) if box else h.T
    return od.reshape(quanta.shape) if box else od.T


def btw_add(lat, heights, x, amount=1):
    """Drop `amount` grains (an integer >= 0) on site x and stabilize."""
    amount = _integer(amount, "amount", 0)
    x = _site(lat, x)
    h = _as_heights(lat, heights)
    if h.item(x) + amount >= 2**63:
        raise DomainError(f"{amount} grains at site {x} need more than int64 holds")
    h[x] += amount
    stabilize_from(lat, h, np.flatnonzero(h >= lat.threshold))
    return h


def is_allowed_bruteforce(lat, heights):
    """Decide allowedness by scanning every nonempty subset of sites.

    A subset W is forbidden when every x in W has fewer grains than
    neighbours inside W; the configuration is allowed iff no subset is
    forbidden. Exponential in the number of sites, capped accordingly.
    """
    m = lat.n_sites
    if m > BRUTEFORCE_MAX_SITES:
        raise CapacityError(
            f"subset scan is 2^{m}; refusing beyond {BRUTEFORCE_MAX_SITES} sites")
    h = [int(v) for v in _as_heights(lat, heights)]
    masks = [sum(1 << y for y in lat.adjacency[x]) for x in range(m)]
    for w in range(1, 1 << m):
        ww = w
        forbidden = True
        while ww:
            x = (ww & -ww).bit_length() - 1
            ww &= ww - 1
            if h[x] >= (masks[x] & w).bit_count():
                forbidden = False
                break
        if forbidden:
            return False
    return True


def is_recurrent_burning(lat, heights):
    """Dhar's burning test (Dhar 1990): a stable configuration eta is
    recurrent iff stabilizing eta + beta, where beta =
    `lat.boundary_degree`, topples every site exactly once. No site ever
    topples twice, so the test is one `stabilize_from` seeded at every
    site. Input must be stable."""
    h = _as_heights(lat, heights)
    if (h >= lat.threshold).any():
        raise DomainError("burning test requires a stable configuration")
    h += lat.boundary_degree
    return bool(stabilize_from(lat, h, range(lat.n_sites)).all())


def enumerate_recurrent(lat):
    """All recurrent stable configurations, in lexicographic order.

    Returns a C-ordered int64 array of shape (count, n_sites). The scan
    covers all (2d)^n_sites stable configurations, so it is capped at
    ENUMERATION_CAP. It runs Dhar's burning test on chunks of consecutive
    lexicographic indices at once: `stabilize_many` relaxes eta + beta
    for every row, and a row is recurrent iff every site toppled, in
    which case it relaxes back to eta.

    A chunk holds every value of the k lowest digits, k the smallest
    exponent (at least 1) with (2d)^k >= min((2d)^n_sites,
    ENUMERATION_CHUNK), so no row is spelled out by division: those
    digits plus beta form one block, built once, and each chunk copies it
    into a reused buffer whose other columns hold the chunk's prefix
    digits plus beta. No site topples twice, so heights stay below
    2 * 2d and the buffer takes the narrowest unsigned dtype that holds
    2 * 2d - 1 (uint8 up to d = 64). It is column-major, so
    `stabilize_many` relaxes it in place through a view, and its box
    slices or neighbour-table gathers run along the contiguous replica
    axis.
    """
    two_d = lat.threshold
    n = lat.n_sites
    total = two_d ** n
    if total > ENUMERATION_CAP:
        # Printed as a power: str() of (2d)^n past 4300 digits raises.
        raise CapacityError(
            f"{two_d}^{n} (about 10^{math.floor(n * math.log10(two_d))}) stable "
            f"configurations exceeds the enumeration cap {ENUMERATION_CAP}")
    k = 1
    while two_d ** k < min(total, ENUMERATION_CHUNK):
        k += 1
    dtype = np.min_scalar_type(2 * two_d - 1)
    beta = lat.boundary_degree.astype(dtype)
    low = np.indices((two_d,) * k, dtype=dtype).reshape(k, -1).T + beta[n - k:]
    h = np.empty((len(low), n), dtype=dtype, order="F")
    found = []
    for prefix in np.ndindex((two_d,) * (n - k)):
        h[:, n - k:] = low
        h[:, :n - k] = beta[:n - k] + prefix
        found.append(h[stabilize_many(lat, h).all(axis=1)])
    return np.concatenate(found).astype(np.int64, order="C")


def _solve_toppling(lat, x):
    """Exact solution y of Delta y = e_x and det Delta, for the integer
    toppling matrix Delta (2d on the diagonal, -1 across each in-set bond).

    Delta is symmetric positive definite, so Gaussian elimination needs no
    pivoting, its Schur complements stay symmetric, and fill-in stays
    inside the band of the site order. Only the upper triangle is kept,
    one sparse row per site; the pivots multiply to det Delta.
    """
    n = lat.n_sites
    rows = [{i: Fraction(lat.threshold)} for i in range(n)]
    for i, ys in enumerate(lat.adjacency):
        rows[i].update((j, Fraction(-1)) for j in ys if j > i)
    rhs = [Fraction(0)] * n
    rhs[x] = Fraction(1)
    det = Fraction(1)
    for k, row in enumerate(rows):
        pivot = row[k]
        det *= pivot
        upper = sorted((j, v) for j, v in row.items() if j > k)
        for j, a in upper:
            factor = a / pivot
            target = rows[j]
            for l, b in upper:
                if l >= j:
                    target[l] = target.get(l, 0) - factor * b
            rhs[j] -= factor * rhs[k]
    y = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        row = rows[k]
        acc = rhs[k] - sum(v * y[j] for j, v in row.items() if j > k)
        y[k] = acc / row[k]
    return y, int(det)


def addition_order(lat, x, recurrent=None):
    """Order of grain addition at x acting on the recurrent set.

    The sandpile group Z^n / Delta Z^n acts simply transitively on the
    recurrent configurations (Dhar 1990), so a_x^k is the identity iff
    k e_x lies in Delta Z^n, i.e. iff k Delta^-1 e_x is integral. The
    order is therefore the lcm of the denominators of the exact solution
    of Delta y = e_x; it is a Python int of any size. A `recurrent` set a
    caller scanned (exact_group's) is only cross-checked against det Delta.
    """
    y, det = _solve_toppling(lat, _site(lat, x))
    if recurrent is not None and len(recurrent) != det:
        raise DomainError(
            f"{len(recurrent)} configurations given, but the recurrent set has {det}")
    return math.lcm(*(v.denominator for v in y))


def btw_inverse_add(lat, heights, x, power=1):
    """Undo `power` grain additions at x on a recurrent configuration.

    eps = 2m - stab(2m), with m the maximal stable configuration, is Delta
    times an odometer, so it is zero in the sandpile group, and eps >= m
    at every site. Hence a_x^-k eta = stab(eta - k e_x + c eps) with
    c = ceil(k / (2d - 1)): the argument is at least eta, so its
    stabilization is the recurrent representative of eta - k e_x. The
    grains added grow with k, not with the addition order. `power` is an
    integer; a negative power adds grains.
    """
    x = _site(lat, x)
    k = _integer(power, "power")
    h = _as_heights(lat, heights)
    if not is_recurrent_burning(lat, h):
        raise DomainError("inverse addition is defined only on recurrent configurations")
    c = -(-k // (lat.threshold - 1)) if k > 0 else 0
    eps = np.zeros_like(h)
    if c:
        twice = 2 * max_stable(lat)
        eps = twice - btw_stabilize(lat, twice)[0]
    if int(h.max()) + c * int(eps.max()) + max(-k, 0) >= 2**63:
        raise DomainError(f"{abs(k)} additions at site {x} need more grains than int64 holds")
    h += c * eps
    h[x] -= k
    stabilize_from(lat, h, np.flatnonzero(h >= lat.threshold))
    return h
