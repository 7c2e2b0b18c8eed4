"""Classical integer sandpile on a finite lattice with open boundary.

Heights are nonnegative int64 arrays in the lattice's site order. A site
holding at least 2d grains is unstable and may topple: it sheds 2d grains,
each in-set neighbour gains one, and grains on boundary bonds leave the
system. Stabilization topples until every site is stable; the result and
the per-site toppling counts (odometer) do not depend on the order in
which legal topplings are performed.
"""

import math

import numpy as np

from .errors import CapacityError, DomainError

BRUTEFORCE_MAX_SITES = 24
ENUMERATION_CAP = 1_000_000
ENUMERATION_CHUNK = 1 << 14
# Replica batches relax and fold in row blocks of about this many cells:
# 256 KB per int64 working array, so a round's arrays stay in a 2 MB L2.
BLOCK_CELLS = 1 << 15
# `btw_add` moves an avalanche from a memoryview to a Python list once one
# of its waves topples more than this many sites.
WIDE_WAVE = 16


def _as_heights(lat, heights):
    """Checked heights as a fresh int64 copy: DomainError unless they are
    nonnegative integers below 2^63 (a uint64 height past int64 would
    wrap into a negative one)."""
    h = np.asarray(heights)
    if h.shape != (lat.n_sites,):
        raise DomainError(f"heights must have shape ({lat.n_sites},), got {h.shape}")
    if not np.issubdtype(h.dtype, np.integer):
        raise DomainError("integer sandpile heights must be an integer array")
    if (h < 0).any():
        raise DomainError("heights must be nonnegative")
    if h.dtype == np.uint64 and h.size and h.max() >= 2**63:
        raise DomainError(f"heights up to {h.max()} do not fit int64")
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


def _topplings_fit(lat, high, room):
    """True when relaxing heights of at most `high` topples no site more
    than `room` times. The odometer is at most Delta^-1 h <= high *
    Delta^-1 1, and every entry of Delta^-1 1 is at most a*b/2, a =
    floor((w+1)/2), b = ceil((w+1)/2), w = `lat.width` (exact on a path)."""
    w = lat.width
    return high * ((w + 1) // 2) * ((w + 2) // 2) <= 2 * room


# Integer dtype maxima capped at int64's, read once: np.iinfo costs 1.5 us.
_TOPS = {np.dtype(c).newbyteorder(o): min(int(np.iinfo(c).max), 2**63 - 1)
         for c in "bhilqBHILQ" for o in "<>"}
_ROUND_DTYPES = tuple(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64))


def _check_fifo(lat, high, dtype=np.dtype(np.int64)):
    """The FIFO rule: DomainError unless the FIFO `_relax` relaxes heights
    of at most `high` in `dtype` and in int64, its odometer's dtype. A
    site holds at most `high`, less 2d per toppling of its own, plus one
    per toppling of each of its at most 2d neighbours, so no height passes
    high + 2d max(od), which `_topplings_fit(lat, high, (top - high) // 2d)`
    keeps at most `top`, the dtype's maximum capped at int64's. Heights
    below 2d never topple, so they need only be at most `top`."""
    top = _TOPS[dtype]
    if high > top or high >= lat.threshold and not _topplings_fit(
            lat, high, (top - high) // lat.threshold):
        raise DomainError(f"heights up to {high} may overflow {dtype} while relaxing")


def _round_dtype(lat, high):
    """The rounds rule: the narrowest of int8, int16, int32 and int64 in
    which parallel rounds relax heights of at most `high` >= 0;
    DomainError when even int64 may overflow. A dtype of maximum `top`
    serves when it holds the divisor 2d, every height the rounds reach
    (high + 2d - 1 <= top) and every toppling count
    (`_topplings_fit(lat, high, top)`).

    The height bound: let K_t = max_x floor(h_t(x) / 2d) before round t,
    which topples each x k_t(x) = floor(h_t(x) / 2d) <= K_t times. Then x
    keeps h_t(x) - 2d k_t(x) <= 2d - 1 grains, and y gains k_t(x) from
    each of its at most 2d in-set neighbours x, so
    h_{t+1}(y) <= 2d - 1 + sum_{x~y} k_t(x) <= 2d - 1 + 2d K_t,
    whence K_{t+1} <= K_t. K_t never grows, so no height passes
    2d - 1 + 2d K_0 <= max(h) + 2d - 1. A round's intermediate values
    (2d k_t(x) <= h_t(x), the partial sums of its inflow, an odometer on
    its way to the final one) lie below these bounds."""
    two_d = lat.threshold
    for dtype in _ROUND_DTYPES:
        top = _TOPS[dtype]
        if two_d <= top and high + two_d - 1 <= top and _topplings_fit(lat, high, top):
            return dtype
    raise DomainError(f"heights up to {high} may overflow int64 while relaxing")


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


def _relax(h, fired, queued, queue, nbrs, two_d, wide):
    """The FIFO loop of `stabilize_from`, unchecked: topples the flagged
    sites of `queue` and all they make unstable, one wave at a time, adds
    the topplings to `fired` and clears the flags of the sites it
    topples. It returns [] once the avalanche is over, or the first wave
    of more than `wide` sites unrelaxed, its sites still flagged, so that
    a caller may go on in another container. It works on Python ints
    through memoryviews or lists: indexing numpy scalars costs more than a
    toppling."""
    while queue:
        if len(queue) > wide:
            return queue
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
    return queue


def stabilize_from(lat, heights, seeds):
    """FIFO stabilization of `heights` in place, seeded from `seeds`.

    `heights` is a writable 1-D integer array of length n_sites (a strided
    view, such as a column of a 2-D array, is fine) whose max(h) passes
    the FIFO rule `_check_fifo` in its dtype; anything else raises
    DomainError before any write. `seeds` are site indices, each an
    integer in [0, n_sites), repeats allowed. Only unstable seeds start the
    avalanche, and a site topples only when the avalanche reaches it: an
    unstable site that no toppling touches stays as it is. The interpreted
    work is proportional to the seeds plus the topplings times 2d, not to
    n_sites; only the check's maximum, the zeroed odometer and the queue
    flags have n_sites entries. The loop is `_relax`, given n_sites as its
    wave width so that it never hands a wave back; `run_chain` runs it
    too, with the odometer and flags set up once per run, and `btw_add`
    runs it on its own copy (`_drop`), finishing wide avalanches on a
    list. This function stays the pure memoryview FIFO, the reference
    that tests and the benchmark check `btw_add` against. Returns the
    odometer as an int64 array.
    """
    n, two_d = lat.n_sites, lat.threshold
    h = _relaxable(lat, heights)
    view = np.asarray(heights)
    _check_fifo(lat, int(view.max()), view.dtype)
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
    _relax(h, od.data, queued, queue, lat.adjacency, two_d, n)
    return od


def _table_rounds(lat, h):
    """Neighbour-table rounds, unchecked: relaxes site-major heights `h`,
    of shape (n_sites,) or (n_sites, replicas), in place, in their own
    dtype, which must hold every height and toppling count the rounds
    reach, and returns the odometer in that dtype and shape. Each round
    topples every unstable site floor(h/2d) times at once, then every site
    gathers its inflow from the counts of its in-set neighbours through
    `lat.neighbour_table`, whose padding points at a row of counts that
    stays 0 (the sink)."""
    two_d, rows = lat.threshold, tuple(lat.neighbour_table)  # views made once
    od = np.zeros_like(h)
    k = np.zeros((len(h) + 1,) + h.shape[1:], dtype=h.dtype)
    fired = k[:len(h)]
    while True:
        np.floor_divide(h, two_d, out=fired)
        if not fired.any():
            return od
        h -= fired * two_d
        od += fired
        for row in rows:
            h += k[row]


def btw_stabilize(lat, heights):
    """Topple until stable; returns int64 (stable_heights, odometer).

    Order-independent by abelianness; this implementation runs the
    neighbour-table rounds `_table_rounds` on the whole configuration, in
    whole-array work per round instead of interpreted work per toppling,
    and in the dtype the rounds rule `_round_dtype` picks (DomainError
    when none serves). It shares no code with the FIFO `stabilize_from`
    or with the box slices of `stabilize_many`, which tests and the
    benchmark check against it.
    """
    h = _as_heights(lat, heights)
    h = h.astype(_round_dtype(lat, int(h.max())), copy=False)
    od = _table_rounds(lat, h)
    return h.astype(np.int64, copy=False), od.astype(np.int64, copy=False)


def _shifts(ndim):
    """(a, b) index pairs that add a grid's entries at b into the
    neighbouring entries at a, for both directions of every axis before
    the last (the replica axis)."""
    pairs = []
    for axis in range(ndim - 1):
        upper = [slice(None)] * ndim
        lower = [slice(None)] * ndim
        upper[axis] = slice(1, None)
        lower[axis] = slice(None, -1)
        pairs += [(tuple(upper), tuple(lower)), (tuple(lower), tuple(upper))]
    return pairs


def _relax_block(lat, h):
    """The rounds of `stabilize_many` on one block of replicas, unchecked,
    with `_table_rounds`' contract: relaxes site-major heights `h`, a
    C-contiguous (n_sites, rows) array, in place and returns the odometer
    in their dtype and shape. A box lattice relaxes the grid view
    h.reshape(lat.dims + (rows,)) with sliced neighbour additions along
    its leading axes, each running along the contiguous replica axis; any
    other lattice runs `_table_rounds`, on a 1-D view for one row."""
    if lat.dims is None:
        return _table_rounds(lat, h[:, 0] if h.shape[1] == 1 else h).reshape(h.shape)
    g = h.reshape(lat.dims + h.shape[1:])
    two_d, od, k = lat.threshold, np.zeros_like(g), np.empty_like(g)
    shifts = [(g[a], k[b]) for a, b in _shifts(g.ndim)]  # views made once
    while True:
        np.floor_divide(g, two_d, out=k)
        if not k.any():
            return od.reshape(h.shape)
        g -= k * two_d
        od += k
        for into, inflow in shifts:
            into += inflow


def _block_rows(n_sites):
    """Rows per block of a replica batch with n_sites columns: about
    BLOCK_CELLS cells, at least one row."""
    return max(1, BLOCK_CELLS // n_sites)


def stabilize_many(lat, quanta):
    """Stabilize many configurations at once; rows of `quanta` are replicas.

    Mutates `quanta` in place and returns the int64 odometer matrix, of
    the batch's shape and site-major (column-major rows). Each round
    topples every unstable site of every replica floor(h/2d) times, which
    is a legal parallel schedule, so the fixed point matches the scalar
    stabilizer exactly. The rows relax one block at a time, each of
    `_block_rows(n_sites)` rows (BLOCK_CELLS cells, so every working array
    of a round stays in cache), in the dtype the rounds rule
    `_round_dtype` picks for the batch's largest entry. A block's one
    working copy is its site-major transpose in that dtype, a view when
    the block is already column-major in it, and only a copy is written
    back. `_relax_block` relaxes it with sliced grid additions on a box
    lattice and with `_table_rounds` on any other. The work is O(n_sites)
    per replica-round either way; there is no bounding box.
    `quanta` must be a writable 2-D integer array with n_sites columns,
    nonnegative entries that pass the rounds rule and a dtype that holds
    2d - 1; anything else raises DomainError before any write.
    """
    if not (isinstance(quanta, np.ndarray) and quanta.ndim == 2 and quanta.dtype.kind in "iu"
            and quanta.shape[1] == lat.n_sites and quanta.flags.writeable):
        raise DomainError(
            f"quanta must be a writable 2-d integer array with {lat.n_sites} columns")
    two_d = lat.threshold
    if np.iinfo(quanta.dtype).max < two_d - 1:
        raise DomainError(f"{quanta.dtype} quanta cannot hold the stable height {two_d - 1}")
    if quanta.size and quanta.min() < 0:
        raise DomainError("quanta must be nonnegative")
    dtype = _round_dtype(lat, int(quanta.max()) if quanta.size else 0)
    rows = _block_rows(lat.n_sites)
    od = np.empty(quanta.shape[::-1], dtype=np.int64)
    for start in range(0, len(quanta), rows):
        block = quanta[start:start + rows]
        h = np.ascontiguousarray(block.T, dtype=dtype)
        od[:, start:start + rows] = _relax_block(lat, h)
        if not np.may_share_memory(h, block):
            block[...] = h.T
    return od.T


def _drop(lat, h, x, amount):
    """Add `amount` grains at x to `btw_add`'s fresh int64 heights `h` and
    relax them in place with `stabilize_from`'s loop; the odometer is not
    kept. One max serves the FIFO rule, checked for max(max(h), h[x] +
    amount) before any write (DomainError), and the seeds: x alone when
    the input was stable, every unstable site otherwise, and no relaxation
    at all when no site is unstable. `_relax` runs on a memoryview until a
    wave has more than WIDE_WAVE sites, then goes on on `h.tolist()`: a
    list item costs less per toppling than a memoryview item, which
    repays the O(n) conversions on a wide avalanche. The list is written
    back once, through a bytearray when 2d <= 256 (every relaxed height
    is below 2d), four times faster than numpy's conversion of a list."""
    n, two_d = lat.n_sites, lat.threshold
    high, hx = int(h.max()), h.item(x) + amount
    stable = high < two_d
    _check_fifo(lat, max(high, hx))
    h[x] = hx
    if stable and hx < two_d:
        return
    queued = bytearray(n)
    queue = [x] if stable else np.flatnonzero(h >= two_d).tolist()
    for s in queue:
        queued[s] = 1
    wave = _relax(h.data, np.zeros(n, dtype=np.int64).data, queued, queue, lat.adjacency,
                  two_d, WIDE_WAVE)
    if wave:
        hl = h.tolist()
        _relax(hl, [0] * n, queued, wave, lat.adjacency, two_d, n)
        h[:] = bytearray(hl) if two_d <= 256 else hl


def btw_add(lat, heights, x, amount=1):
    """Drop `amount` grains (an integer >= 0) on site x and stabilize.

    Returns the stable heights as a fresh int64 array. The relaxation is
    `stabilize_from`'s FIFO, seeded at x when the input was stable and at
    every unstable site otherwise, and it moves from a memoryview to a
    Python list once an avalanche wave has more than WIDE_WAVE sites
    (`_drop`). Heights the FIFO rule `_check_fifo` refuses raise DomainError.
    """
    amount = _integer(amount, "amount", 0)
    x = _site(lat, x)
    h = _as_heights(lat, heights)
    _drop(lat, h, x, amount)
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
    lexicographic indices at once: the rounds of `stabilize_many`
    (`_relax_block`, on the whole chunk) relax eta + beta for every row,
    and a row is recurrent iff every site toppled, in which case it
    relaxes back to eta.

    A chunk holds every value of the k lowest digits, k the smallest
    exponent (at least 1) with (2d)^k >= min((2d)^n_sites,
    ENUMERATION_CHUNK), so no row is spelled out by division: those
    digits plus beta form one block, built once, and each chunk copies it
    into a reused buffer whose other columns hold the chunk's prefix
    digits plus beta. No site topples twice, so heights stay below
    2 * 2d, tighter than `_round_dtype`'s general bound, and the buffer
    takes the narrowest unsigned dtype that holds 2 * 2d - 1 (uint8 up to
    d = 64), in which the rounds run without `stabilize_many`'s checks and
    copy. It is column-major, so its transpose is the site-major block
    `_relax_block` relaxes in place, with no copy.
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
        found.append(h[_relax_block(lat, h.T).all(axis=0)])
    return np.concatenate(found).astype(np.int64, order="C")


def _bareiss(rows, b=None):
    """Fraction-free (Bareiss) elimination of a square integer matrix given
    as sparse rows, dicts column -> nonzero int: (det, z) with
    z = det * A^-1 b for a right-hand side `b` of n ints, z None when b is
    None or det is 0. A zero pivot swaps in a later row. Every entry is an
    integer minor of A, so every division is exact. A row last written at
    step s is its step-k value times scale[s] / scale[k], scale[k] being
    the step k-1 pivot, so a row is rescaled only when a step reaches it
    and band fill-in costs O(n w^2). An empty matrix has determinant 1.
    """
    n = len(rows)
    # Copies of the rows; b rides along as column n, so row operations carry it.
    rows = [{**r, n: v} if v else dict(r) for r, v in zip(rows, [0] * n if b is None else b)]
    holders = [set() for _ in range(n + 1)]  # column -> rows that ever held it
    for i, r in enumerate(rows):
        for j in r:
            holders[j].add(i)
    perm, level, scale, sign = list(range(n)), [0] * n, [1], 1  # a pivoted row has level n
    for k in range(n):
        reach = [i for i in holders[k] if level[i] <= k and rows[i].get(k)]
        if not reach:
            return 0, None
        for r in reach:
            if level[r] != k:
                rows[r] = {j: v * scale[k] // scale[level[r]] for j, v in rows[r].items()}
        i = perm[k] if perm[k] in reach else reach[0]
        if i != perm[k]:
            j = perm.index(i, k)
            perm[k], perm[j], sign = i, perm[k], -sign
        top, p, level[i] = rows[i], rows[i][k], n
        for r in reach:
            if r != i:
                row, a, new = rows[r], rows[r][k], {}
                for j in row.keys() | top.keys():
                    v = (p * row.get(j, 0) - a * top.get(j, 0)) // scale[k]  # 0 at j = k
                    if v:
                        new[j] = v
                        holders[j].add(r)
                rows[r], level[r] = new, k + 1
        scale.append(p)
    det = sign * scale[n]
    if b is None:
        return det, None
    z = [0] * n
    for k in range(n - 1, -1, -1):
        row = rows[perm[k]]
        z[k] = (det * row.get(n, 0) - sum(v * z[j] for j, v in row.items() if k < j < n)) // row[k]
    return det, z


def addition_order(lat, x, recurrent=None):
    """Order of grain addition at x acting on the recurrent set.

    The sandpile group Z^n / Delta Z^n acts simply transitively on the
    recurrent configurations (Dhar 1990), so a_x^k is the identity iff
    k e_x lies in Delta Z^n, i.e. iff k Delta^-1 e_x is integral. The
    order is the lcm of the denominators of Delta^-1 e_x = z / det, i.e.
    det // gcd(det, *z) with (det, z) from `_bareiss`, a Python int of any
    size. A `recurrent` set a caller scanned (exact_group's) is only
    cross-checked against det Delta.
    """
    x = _site(lat, x)
    rows = [{i: lat.threshold, **dict.fromkeys(ys, -1)} for i, ys in enumerate(lat.adjacency)]
    det, z = _bareiss(rows, [int(i == x) for i in range(lat.n_sites)])
    if recurrent is not None and len(recurrent) != det:
        raise DomainError(
            f"{len(recurrent)} configurations given, but the recurrent set has {det}")
    return det // math.gcd(det, *z)


def btw_inverse_add(lat, heights, x, power=1):
    """Undo `power` grain additions at x on a recurrent configuration.

    eps = 2m - stab(2m) (`lat.group_zero`, built by the first call with
    a positive power), with m the maximal stable configuration, is Delta
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
    eps = lat.group_zero if c else np.zeros_like(h)
    # No height passes this before the FIFO; it is exact when c = 0.
    _check_fifo(lat, max(int(h.max()) + c * int(eps.max()), h.item(x) - k))
    h += c * eps
    h[x] -= k
    stabilize_from(lat, h, np.flatnonzero(h >= lat.threshold))
    return h
