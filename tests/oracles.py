"""Independent reference implementations used only by the tests.

Everything here is deliberately written the slow, obvious way, sharing no
code with the package internals: single legal topplings in randomized or
stack order, dense real-height dynamics without the quanta/frac split,
a cofactor-expansion determinant, and the exact law of the fixed-amount
chain from transition maps over every stable configuration. Test
expectations computed from these are frozen in the test modules. The stepwise drivers are the
exception: they replay the random stream of the package's chain drivers
one step at a time through the scalar FIFO kernel `_add_inplace` (the
ensemble ones row by row). The reference CLI output runs on the stepwise
scalar chain, formats each simulate row from scratch and counts cell
occupancy against every recurrent row.
"""

from fractions import Fraction
import itertools
import math

import numpy as np

from sandpiles.cbtw import FRAC_BITS, AdditionParams, _add_inplace, grid_scale


def unstable_sites(heights, threshold):
    return [i for i, h in enumerate(heights) if h >= threshold]


def random_order_stabilize(lat, heights, rng):
    """Stabilize by repeatedly toppling one random unstable site once."""
    h = np.array(heights, dtype=np.int64)
    od = np.zeros(lat.n_sites, dtype=np.int64)
    two_d = 2 * lat.d
    while True:
        unstable = unstable_sites(h, two_d)
        if not unstable:
            return h, od
        x = unstable[rng.integers(len(unstable))]
        h[x] -= two_d
        for y in lat.adjacency[x]:
            h[y] += 1
        od[x] += 1


def lifo_stabilize(lat, heights):
    """Stabilize with a last-in-first-out schedule of single topplings."""
    h = np.array(heights, dtype=np.int64)
    od = np.zeros(lat.n_sites, dtype=np.int64)
    two_d = 2 * lat.d
    stack = unstable_sites(h, two_d)
    while stack:
        x = stack.pop()
        while h[x] >= two_d:
            h[x] -= two_d
            od[x] += 1
            for y in lat.adjacency[x]:
                h[y] += 1
                if h[y] >= two_d:
                    stack.append(int(y))
    return h, od


def dense_stabilize(lat, heights, rng):
    """Continuous-model stabilization on raw real heights.

    Topples one random site with mass >= 1 at a time: the site loses
    exactly 1, each in-set neighbour gains 1/2d. No decomposition, no
    integer arithmetic; float drift is the caller's concern.
    """
    h = np.array(heights, dtype=np.float64)
    od = np.zeros(lat.n_sites, dtype=np.int64)
    share = 1.0 / (2 * lat.d)
    while True:
        unstable = [i for i, v in enumerate(h) if v >= 1.0 - 1e-12]
        if not unstable:
            return h, od
        x = unstable[rng.integers(len(unstable))]
        h[x] -= 1.0
        for y in lat.adjacency[x]:
            h[y] += share
        od[x] += 1


def dense_add(lat, heights, x, u, rng):
    """Continuous-model addition on raw real heights: add u, stabilize."""
    h = np.array(heights, dtype=np.float64)
    h[x] += u
    return dense_stabilize(lat, h, rng)


def cofactor_determinant(entries):
    """Exact determinant by first-row cofactor expansion (n <= 8 or so)."""
    n = len(entries)
    rows = [[Fraction(v) for v in row] for row in entries]

    def det(rs):
        k = len(rs)
        if k == 0:
            return Fraction(1)
        if k == 1:
            return rs[0][0]
        total = Fraction(0)
        for j in range(k):
            if rs[0][j] == 0:
                continue
            minor = [[row[c] for c in range(k) if c != j] for row in rs[1:]]
            sign = -1 if j % 2 else 1
            total += sign * rs[0][j] * det(minor)
        return total

    return det(rows)


def stable_configurations(lat):
    """All integer-stable configurations, lexicographic."""
    two_d = 2 * lat.d
    return itertools.product(range(two_d), repeat=lat.n_sites)


def burns_completely(adj, h):
    """Sequential burning sweeps on adjacency lists `adj`: remove any site
    whose height reaches its count of still-present neighbours until a
    sweep removes nothing."""
    count = [len(a) for a in adj]
    present = [True] * len(adj)
    changed = True
    while changed:
        changed = False
        for x in range(len(adj)):
            if present[x] and h[x] >= count[x]:
                present[x] = False
                changed = True
                for y in adj[x]:
                    count[y] -= 1
    return not any(present)


def enumerate_recurrent(lat):
    """Recurrent configurations, lexicographic: one burning test per
    stable configuration."""
    adj = [[int(y) for y in a] for a in lat.adjacency]
    rows = [h for h in stable_configurations(lat) if burns_completely(adj, h)]
    return np.array(rows, dtype=np.int64).reshape(len(rows), lat.n_sites)


def permutation_order(lat, x, recurrent):
    """Order of grain addition at x: the lcm of the cycle lengths of the
    permutation it induces on the enumerated recurrent set."""
    index = {tuple(int(v) for v in row): i for i, row in enumerate(recurrent)}
    perm = []
    for row in recurrent:
        h = np.array(row, dtype=np.int64)
        h[x] += 1
        perm.append(index[tuple(int(v) for v in lifo_stabilize(lat, h)[0])])
    assert sorted(perm) == list(range(len(perm)))
    seen = [False] * len(perm)
    order = 1
    for i in range(len(perm)):
        length = 0
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


def fixed_amount_law(lat, base, l, t):
    """Exact law of the quanta after t steps of the fixed-amount chain
    from the stable quanta `base`, each step adding l quanta at a uniform
    site: one transition map per site over every stable configuration
    (built with lifo_stabilize), then one np.bincount per site and step.
    Returns {configuration tuple: probability}."""
    configs = list(stable_configurations(lat))
    index = {c: i for i, c in enumerate(configs)}
    maps = []
    for x in range(lat.n_sites):
        image = []
        for c in configs:
            h = np.array(c, dtype=np.int64)
            h[x] += l
            image.append(index[tuple(int(v) for v in lifo_stabilize(lat, h)[0])])
        maps.append(np.array(image))
    p = np.zeros(len(configs))
    p[index[tuple(int(v) for v in base)]] = 1.0
    for _ in range(t):
        p = sum(np.bincount(m, weights=p, minlength=len(configs)) for m in maps) / lat.n_sites
    return {configs[i]: float(p[i]) for i in np.flatnonzero(p)}


def stepwise_chain(lat, initial, params, steps, rng, on_step=None):
    """run_chain with one site draw per step, int(rng.integers(m)), then the
    amount; returns (quanta, frac, theta) and calls on_step like run_chain."""
    quanta, frac = initial.quanta.copy(), initial.frac.copy()
    theta = np.zeros(lat.n_sites)
    for t in range(1, steps + 1):
        x = int(rng.integers(lat.n_sites))
        u = float(params.a) if params.mode == "fixed" else float(rng.uniform(params.a, params.b))
        _add_inplace(lat, quanta, frac, x, u)
        theta[x] += u
        if on_step is not None:
            on_step(t, x, u, quanta, frac)
    return quanta, frac, theta


def csv_row(t, x, u, quanta, frac):
    """One `sandpiles simulate` CSV row, every entry formatted afresh."""
    row = [str(t), str(x), repr(u)]
    row += [str(int(v)) for v in quanta]
    row += [repr(float(v)) for v in frac]
    return ",".join(row)


def json_row(t, x, u, quanta, frac):
    """One `sandpiles simulate` JSON trajectory entry, built afresh."""
    return {"t": t, "site_added": x, "u": u,
            "quanta": [int(v) for v in quanta], "frac": [float(v) for v in frac]}


def occupancy_average(lat, initial, amount, steps, rng, recurrent):
    """Time fraction of each recurrent row along the fixed-amount chain:
    after every step, a 0/1 float indicator against every row, summed and
    divided by the number of steps."""
    total = np.zeros(len(recurrent))

    def on_step(t, x, u, quanta, frac):
        nonlocal total
        total = total + (recurrent == quanta).all(axis=1).astype(np.float64)

    stepwise_chain(lat, initial, AdditionParams(amount, amount), steps, rng, on_step)
    return total / steps


def stepwise_chain_ensemble(lat, quanta, frac, params, steps, rng, snapshots=()):
    """run_chain_ensemble one step at a time: every step draws the sites,
    then the amounts, of all rows and adds them row by row."""
    out = {}
    for t in range(1, steps + 1):
        xs = rng.integers(lat.n_sites, size=len(quanta)).tolist()
        us = ([params.a] * len(quanta) if params.mode == "fixed"
              else rng.uniform(params.a, params.b, size=len(quanta)).tolist())
        for row, (x, u) in enumerate(zip(xs, us)):
            _add_inplace(lat, quanta[row], frac[row], x, u)
        if t in snapshots:
            out[t] = (quanta.copy(), frac.copy())
    return out


def stepwise_coupling_ensemble(lat, eta_q, eta_f, zeta_q, zeta_f, params, n_epochs, rng):
    """run_coupling_ensemble one step at a time and row by row; returns
    (o_events, o_verified)."""
    n, m = eta_q.shape
    a, b = params.a, params.b
    M = math.ceil(4.0 / (b - a))
    scale = grid_scale(lat.d)
    A = round(a * scale)
    W = round(b * scale) - A
    events = np.zeros((n_epochs, n), dtype=bool)
    verified = np.zeros((n_epochs, n), dtype=bool)
    for e in range(n_epochs):
        gaps = [[((int(eta_q[i, x]) - int(zeta_q[i, x])) << FRAC_BITS)
                 + round(float(eta_f[i, x]) * scale) - round(float(zeta_f[i, x]) * scale)
                 for x in range(m)] for i in range(n)]
        seen = [[0] * m for _ in range(n)]
        all_mid = [True] * n
        for _ in range(m * M):
            xs = rng.integers(m, size=n).tolist()
            us = rng.uniform(a, b, size=n).tolist()
            for i, (x, u) in enumerate(zip(xs, us)):
                U = round(u * scale)
                base, extra = divmod(gaps[i][x], M)
                part = base + (seen[i][x] < extra)
                _add_inplace(lat, eta_q[i], eta_f[i], x, U)
                _add_inplace(lat, zeta_q[i], zeta_f[i], x, (U + part - A) % W + A)
                seen[i][x] += 1
                all_mid[i] = all_mid[i] and (3 * a + b) / 4 <= u <= (a + 3 * b) / 4
        for i in range(n):
            events[e, i] = all_mid[i] and all(c == M for c in seen[i])
            verified[e, i] = events[e, i] and (np.array_equal(eta_q[i], zeta_q[i])
                                               and np.array_equal(eta_f[i], zeta_f[i]))
    return events, verified


def row_histogram(counts, quanta, frac, d, bins_per_site):
    """Add a batch of configurations to the dict `counts` row by row: bins
    are floor(F B / 2^50) in Python ints, F = min(round(frac S), 2^50 - 1)
    the grid units of frac, and the distinct (quanta, bins) rows come from
    np.unique(axis=0), so new cells enter in lexicographic order. Returns
    `counts`."""
    m, scale, top = quanta.shape[1], grid_scale(d), (1 << FRAC_BITS) - 1
    bins = np.array([[min(round(f * scale), top) * bins_per_site >> FRAC_BITS for f in row]
                     for row in frac.tolist()], dtype=np.int64).reshape(frac.shape)
    rows = np.concatenate([np.asarray(quanta, dtype=np.int64), bins], axis=1)
    uniq, cnt = np.unique(rows, axis=0, return_counts=True)
    for row, c in zip(uniq.tolist(), cnt.tolist()):
        key = (tuple(row[:m]), tuple(row[m:]))
        counts[key] = counts.get(key, 0) + c
    return counts
