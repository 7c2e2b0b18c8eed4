"""Classical integer sandpile on a finite lattice with open boundary.

Heights are nonnegative int64 arrays in the lattice's site order. A site
holding at least 2d grains is unstable and may topple: it sheds 2d grains,
each in-set neighbour gains one, and grains on boundary bonds leave the
system. Stabilization topples until every site is stable; the result and
the per-site toppling counts (odometer) do not depend on the order in
which legal topplings are performed.
"""

import itertools
import math

import numpy as np

from .errors import CapacityError, DomainError

BRUTEFORCE_MAX_SITES = 24
ENUMERATION_CAP = 1_000_000


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


def stabilize_from(lat, heights, seeds, odometer=None):
    """In-place FIFO stabilization seeded from candidate sites `seeds`.

    Mutates `heights` (int64 array); only sites reachable from unstable
    seeds are touched, so a single addition stabilizes in time local to
    the avalanche. Returns the odometer (allocated if not given).
    """
    two_d = lat.threshold
    od = odometer if odometer is not None else np.zeros(lat.n_sites, dtype=np.int64)
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

    Order-independent by abelianness; this implementation drains a FIFO
    queue and topples each popped site floor(h/2d) times at once. It stays
    independent of stabilize_many, which tests check against it.
    """
    h = _as_heights(lat, heights).copy()
    od = stabilize_from(lat, h, np.flatnonzero(h >= lat.threshold))
    return h, od


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
    (2d)^n_sites stable configurations, so it is capped.
    """
    two_d = lat.threshold
    total = two_d ** lat.n_sites
    if total > cap:
        raise CapacityError(
            f"{total} stable configurations exceeds the enumeration cap {cap}")
    rows = [h for h in itertools.product(range(two_d), repeat=lat.n_sites)
            if _burns_completely(h, lat.neighbours)]
    return np.array(rows, dtype=np.int64).reshape(len(rows), lat.n_sites)


def addition_order(lat, x, recurrent=None):
    """Order of grain addition at x acting on the recurrent set.

    Addition-and-stabilize permutes the recurrent configurations; the
    order returned is the lcm of its cycle lengths, i.e. the least n with
    a_x^n = identity on every recurrent configuration.
    """
    if recurrent is None:
        recurrent = enumerate_recurrent(lat)
    index = {tuple(int(v) for v in row): i for i, row in enumerate(recurrent)}
    n = len(index)
    perm = [0] * n
    for i, row in enumerate(recurrent):
        img = tuple(int(v) for v in btw_add(lat, row, x))
        j = index.get(img)
        if j is None:
            raise DomainError("recurrent set is not closed under addition")
        perm[i] = j
    if len(set(perm)) != n:
        raise DomainError("addition is not a bijection on the recurrent set")
    seen = [False] * n
    order = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        order = math.lcm(order, length)
    return order


def btw_inverse_add(lat, heights, x, power=1, order=None, recurrent=None):
    """Undo `power` grain additions at x on a recurrent configuration.

    Realized as a forward power: a_x^-1 = a_x^(n-1) where n is the
    addition order at x, so the inverse of `power` additions is
    (-power) mod n further additions. Pass `order` (and optionally the
    enumerated `recurrent` set) to skip recomputing it.
    """
    h = _as_heights(lat, heights)
    if not is_recurrent_burning(lat, h):
        raise DomainError("inverse addition is defined only on recurrent configurations")
    if order is None:
        order = addition_order(lat, x, recurrent)
    k = (-int(power)) % order
    return btw_add(lat, h, x, amount=k)
