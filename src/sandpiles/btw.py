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
ENUMERATION_CHUNK = 1 << 16


def _as_heights(lat, heights):
    h = np.asarray(heights)
    if h.shape != (lat.n_sites,):
        raise DomainError(f"heights must have shape ({lat.n_sites},), got {h.shape}")
    if not np.issubdtype(h.dtype, np.integer):
        raise DomainError("integer sandpile heights must be an integer array")
    if (h < 0).any():
        raise DomainError("heights must be nonnegative")
    return h.astype(np.int64)


def is_stable(lat, heights):
    """True iff every site holds fewer than 2d grains."""
    return bool((_as_heights(lat, heights) < lat.threshold).all())


def max_stable(lat):
    """The maximal stable configuration: 2d - 1 grains everywhere."""
    return np.full(lat.n_sites, lat.threshold - 1, dtype=np.int64)


def btw_topple(lat, heights, x, force=False):
    """Topple site x once.

    Returns (new_heights, legal). The toppling is legal iff x is unstable;
    when it is not and force is False the configuration is returned
    unchanged. With force=True the toppling is applied anyway and the
    height at x may go negative.
    """
    h = _as_heights(lat, heights)
    legal = bool(h[x] >= lat.threshold)
    new = h.copy()
    if legal or force:
        new[x] -= lat.threshold
        new[lat.adjacency[x]] += 1
    return new, legal


def stabilize_from(lat, heights, seeds):
    """In-place FIFO stabilization seeded from candidate sites `seeds`.

    Mutates `heights` (int64 array); only sites reachable from unstable
    seeds are touched, so a single addition stabilizes in time local to
    the avalanche. Returns the odometer.
    """
    two_d = lat.threshold
    od = np.zeros(lat.n_sites, dtype=np.int64)
    queued = bytearray(lat.n_sites)
    queue = []
    for i in map(int, seeds):
        if not queued[i] and heights[i] >= two_d:
            queued[i] = 1
            queue.append(i)
    if not queue:
        return od
    # The loop runs on Python ints: indexing numpy scalars costs several
    # times more per toppling than the toppling itself.
    nbrs = lat.neighbours
    h = heights.tolist()
    fired = {}
    while queue:
        later = []
        for x in queue:
            queued[x] = 0
            k = h[x] // two_d
            h[x] -= k * two_d
            fired[x] = fired.get(x, 0) + k
            for y in nbrs[x]:
                hy = h[y] + k
                h[y] = hy
                if hy >= two_d and not queued[y]:
                    queued[y] = 1
                    later.append(y)
        queue = later
    # Only toppled sites and their neighbours changed.
    for x, k in fired.items():
        od[x] += k
        heights[x] = h[x]
        for y in nbrs[x]:
            heights[y] = h[y]
    return od


def btw_stabilize(lat, heights):
    """Topple until stable; returns (stable_heights, odometer).

    Order-independent by abelianness; this implementation runs parallel
    rounds: each round topples every unstable site floor(h/2d) times at
    once, then every site gathers its inflow from the toppling counts of
    its in-set neighbours through `lat.neighbour_table`, whose padding
    points at a count that stays 0 (the sink). A whole configuration
    relaxes in whole-array work per round instead of interpreted work per
    toppling. It shares no code with the FIFO `stabilize_from` or the
    grid-slice `stabilize_many`, which tests and the benchmark check
    against it.
    """
    h = _as_heights(lat, heights).copy()
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
    stabilizer exactly. Rounds run on the lattice's bounding box with
    sliced neighbour additions: a box lattice relaxes through a reshaped
    view of `quanta`, and any other lattice on a copy whose cells outside
    the site set are emptied every round, so they act as the sink.
    """
    two_d = lat.threshold
    rows = quanta.shape[0]
    shape = (rows,) + lat.grid_shape
    if lat.cells is None:
        grid = quanta.reshape(shape)
        outside = None
    else:
        flat = np.zeros((rows, math.prod(lat.grid_shape)), dtype=quanta.dtype)
        flat[:, lat.cells] = quanta
        grid = flat.reshape(shape)
        outside = np.ones(flat.shape[1], dtype=bool)
        outside[lat.cells] = False
        outside = outside.reshape(lat.grid_shape)
    od = np.zeros_like(grid)
    k = np.empty_like(grid)
    shifts = _shifts(grid.ndim)
    while True:
        np.floor_divide(grid, two_d, out=k)
        if not k.any():
            break
        grid -= k * two_d
        od += k
        for a, b in shifts:
            grid[a] += k[b]
        if outside is not None:
            grid[:, outside] = 0
    if lat.cells is not None:
        quanta[...] = flat[:, lat.cells]
        return od.reshape(rows, -1)[:, lat.cells]
    if not np.may_share_memory(grid, quanta):
        quanta[...] = grid.reshape(quanta.shape)
    return od.reshape(quanta.shape)


def btw_add(lat, heights, x, amount=1):
    """Drop `amount` grains on site x and stabilize."""
    if amount < 0:
        raise DomainError("cannot add a negative number of grains")
    h = _as_heights(lat, heights).copy()
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
    masks = [int(sum(1 << int(y) for y in lat.adjacency[x])) for x in range(m)]
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


def _burns_completely(h, adj):
    """Burning pass on height tuple h given adjacency lists `adj`."""
    m = len(h)
    deg = [len(a) for a in adj]
    alive = [True] * m
    n_alive = m
    changed = True
    while changed and n_alive:
        changed = False
        for x in range(m):
            if alive[x] and h[x] >= deg[x]:
                alive[x] = False
                n_alive -= 1
                changed = True
                for y in adj[x]:
                    deg[y] -= 1
    return n_alive == 0


def is_recurrent_burning(lat, heights):
    """Burning test: repeatedly remove sites whose height is at least the
    number of still-present in-set neighbours. Recurrent iff everything
    burns. Input must be stable."""
    h = _as_heights(lat, heights)
    if (h >= lat.threshold).any():
        raise DomainError("burning test requires a stable configuration")
    return _burns_completely(tuple(int(v) for v in h), lat.neighbours)


def enumerate_recurrent(lat, cap=ENUMERATION_CAP):
    """All recurrent stable configurations, in lexicographic order.

    Returns an int64 array of shape (count, n_sites). The scan covers all
    (2d)^n_sites stable configurations, so it is capped. It burns chunks
    of consecutive lexicographic indices at once: each round removes every
    still-present site whose height reaches its count of still-present
    neighbours. Removing a site only lowers its neighbours' counts, so the
    parallel rounds burn the same sites as one sweep at a time, and n_sites
    rounds always suffice.
    """
    two_d = lat.threshold
    n = lat.n_sites
    total = two_d ** n
    if total > cap:
        # Printed as a power: str() of (2d)^n past 4300 digits raises.
        raise CapacityError(
            f"{two_d}^{n} (about 10^{math.floor(n * math.log10(two_d))}) stable "
            f"configurations exceeds the enumeration cap {cap}")
    # Padded with column n, which is never present.
    nbrs = lat.neighbour_table.T
    place = two_d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    # Heights below 2d fit int8: numpy caps a Lattice's bounding box at 64 axes.
    found = []
    for start in range(0, total, ENUMERATION_CHUNK):
        index = np.arange(start, min(start + ENUMERATION_CHUNK, total), dtype=np.int64)
        h = (index[:, None] // place % two_d).astype(np.int8)
        present = np.ones((len(index), n + 1), dtype=np.int8)
        present[:, n] = 0
        for _ in range(n):
            burns = present[:, :n] & (h >= present[:, nbrs].sum(axis=2, dtype=np.int8))
            if not burns.any():
                break
            present[:, :n] -= burns
        found.append(h[~present.any(axis=1)])
    return np.concatenate(found).astype(np.int64)


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
    for i, ys in enumerate(lat.neighbours):
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
    of Delta y = e_x; it is a Python int of any size. When the enumerated
    `recurrent` set is given, its size must equal det Delta.
    """
    y, det = _solve_toppling(lat, x)
    if recurrent is not None and len(recurrent) != det:
        raise DomainError(
            f"{len(recurrent)} configurations given, but the recurrent set has {det}")
    return math.lcm(*(v.denominator for v in y))


def btw_inverse_add(lat, heights, x, power=1, order=None):
    """Undo `power` grain additions at x on a recurrent configuration.

    eps = 2m - stab(2m), with m the maximal stable configuration, is Delta
    times an odometer, so it is zero in the sandpile group, and eps >= m
    at every site. Hence a_x^-k eta = stab(eta - k e_x + c eps) with
    c = ceil(k / (2d - 1)): the argument is at least eta, so its
    stabilization is the recurrent representative of eta - k e_x. The
    grains added grow with k, not with the addition order. Passing `order`
    reduces `power` modulo it first; a negative power adds grains.
    """
    h = _as_heights(lat, heights)
    if not is_recurrent_burning(lat, h):
        raise DomainError("inverse addition is defined only on recurrent configurations")
    k = int(power) if order is None else int(power) % int(order)
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
