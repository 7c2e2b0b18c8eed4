"""The four benchmark workloads.

Each workload makes its inputs from the seed in ``setup`` and then runs
identical rounds: ``run_round`` makes its calls into the package through a
``Clock`` and keeps their outputs, ``check`` verifies those outputs
afterwards (outside any timed region and outside any traced span). A
round's inputs are the same every time, so its exact counts repeat for a
given seed. ``reference`` names the kinds of reference loop (see stats.py)
that match the work a workload does; its times are scaled by them.
"""

from dataclasses import dataclass, field
import hashlib
import os
import time

import numpy as np

from sandpiles import btw, cbtw, cli, experiments, lattice, measures

from stats import at_reference_speed, latency_summary, reference_time


class Clock:
    """Times calls into the package, with the reference loops of the given
    kinds (see stats.REFERENCE_LOOPS) between them.

    ``raw`` holds each call's CPU seconds as measured, ``scaled`` the same
    seconds at the reference speed, from the reference times just before
    and just after the call, ``wall`` each call's wall seconds and ``refs``
    every reference time taken. CPU time leaves out the time the host gave
    the processor to others; the package is single-threaded and does no
    waiting, so CPU time is all the time it spends.
    """

    def __init__(self, kinds):
        self.kinds = kinds
        self.raw, self.scaled, self.wall = [], [], []
        self.refs = [reference_time(kinds)]

    def __call__(self, fn, *args, **kwargs):
        w, t = time.perf_counter(), time.process_time()
        result = fn(*args, **kwargs)
        raw = time.process_time() - t
        self.wall.append(time.perf_counter() - w)
        self.refs.append(reference_time(self.kinds))
        self.raw.append(raw)
        self.scaled.append(at_reference_speed(raw, self.kinds, self.refs[-2], self.refs[-1]))
        return result


@dataclass
class Round:
    """What one round did.

    clock: the round's timed calls; cpu is their total CPU seconds at the
        reference speed, raw_cpu and wall as measured.
    work: the workload's unit of work, for the work_per_s metric.
    work_time: the CPU seconds, at the reference speed, that the work took;
        None for all of cpu. Only large_box sets it, to leave out its drops,
        so for the other workloads work_per_s is a constant over cpu.
    ops: operations attempted (each one passes or fails its checks).
    counts: exact counts that repeat for a given seed.
    latencies: measured seconds per operation, where the workload times
        them singly.
    outputs: what ``check`` inspects.
    """

    clock: Clock
    work: float
    ops: int
    work_time: float = None
    counts: dict = field(default_factory=dict)
    latencies: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    @property
    def cpu(self):
        return sum(self.clock.scaled)

    @property
    def raw_cpu(self):
        return sum(self.clock.raw)

    @property
    def wall(self):
        return sum(self.clock.wall)

    @property
    def work_per_s(self):
        return self.work / (self.cpu if self.work_time is None else self.work_time)


class MassLedger:
    """Exact grain balance of a relaxation on one lattice.

    For an odometer od taking `before` to `after`, every site satisfies
    before - after = 2d*od - (sum of od over in-set neighbours), and the
    grains lost through the boundary are sum(od * boundary_degree).
    """

    def __init__(self, lat):
        n = lat.n_sites
        width = max(len(a) for a in lat.adjacency)
        nbr = np.full((n, max(width, 1)), n, dtype=np.int64)
        for i, a in enumerate(lat.adjacency):
            nbr[i, :len(a)] = a
        self.nbr = nbr
        self.two_d = lat.threshold
        self.boundary = np.asarray(lat.boundary_degree, dtype=np.int64)

    def holds(self, before, after, od):
        before, after, od = (np.asarray(v, dtype=np.int64) for v in (before, after, od))
        if (od < 0).any():
            return False
        if int(before.sum() - after.sum()) != int((od * self.boundary).sum()):
            return False
        inflow = np.append(od, 0)[self.nbr].sum(axis=1)
        return bool(np.array_equal(before - after, self.two_d * od - inflow))


class EnsemblePath:
    """criteria 9 and 7 in shape: the 2-site path, 10^5 replicas."""

    name = "ensemble_path"
    work_unit = "replica-steps"
    reference = ("bulk",)  # numpy over the 10^5 replicas
    replicas = 100_000
    t_limit = 200
    decay_times = (1, 2, 4, 8, 16, 32, 64, 128)
    amount = 0.5
    params = cbtw.AdditionParams(0.2, 0.8)
    binning = measures.Binning(8)

    def setup(self, seed, out_dir):
        lat = lattice.build_lattice([2])
        recurrent = btw.enumerate_recurrent(lat)
        base = cbtw.zero_config(lat)
        experiments.rational_limit_test(lat, base, self.amount, 2, self.replicas,
                                        np.random.default_rng([seed, 0]),
                                        binning=self.binning, recurrent=recurrent)
        return {"lat": lat, "recurrent": recurrent, "base": base, "seed": seed}

    def run_round(self, st):
        lat, rec = st["lat"], st["recurrent"]
        rng = np.random.default_rng([st["seed"], 1])
        clock = Clock(self.reference)
        limit = clock(experiments.rational_limit_test, lat, st["base"], self.amount,
                      self.t_limit, self.replicas, rng, binning=self.binning, recurrent=rec)
        decay = clock(experiments.tv_decay_experiment, lat, self.params, self.decay_times,
                      self.replicas, self.binning, rng, rec)
        steps = self.replicas * (self.t_limit + self.decay_times[-1])
        return Round(clock=clock, work=steps, ops=2,
                     counts={"replica_steps": steps},
                     outputs={"limit": limit, "decay": decay})

    def check(self, st, rnd):
        limit, decay = rnd.outputs["limit"], rnd.outputs["decay"]
        fails = []
        if not limit.tv <= limit.noise_floor + 0.02:
            fails.append(f"rational limit: TV {limit.tv} > floor {limit.noise_floor} + 0.02")
        if not (decay.slope < 0.0 and decay.tvs[-1] <= 2.0 * decay.noise_floor):
            fails.append(f"TV decay: slope {decay.slope}, final TV {decay.tvs[-1]}, "
                         f"floor {decay.noise_floor}")
        rnd.counts["limit_tv"] = limit.tv
        rnd.counts["decay_tvs"] = list(decay.tvs)
        return fails


class CliScalar:
    """The README's ergodic and simulate commands, in-process through cli.main."""

    name = "cli_scalar"
    work_unit = "chain steps"
    reference = ("interpreted",)  # one step at a time
    steps = 20_000  # per command

    def _argvs(self, st, steps):
        return (["ergodic", "--dims", "2", "--a", "sqrt2-1", "--steps", str(steps),
                 "--seed", str(st["seeds"][0]), "--out", st["ergodic_out"]],
                ["simulate", "--dims", "3,3", "--a", "0.2", "--b", "0.8",
                 "--steps", str(steps), "--seed", str(st["seeds"][1]),
                 "--out", st["simulate_out"]])

    def setup(self, seed, out_dir):
        seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(2) % 2**31]
        st = {"seeds": seeds, "digests": {},
              "ergodic_out": str(out_dir / "ergodic.json"),
              "simulate_out": str(out_dir / "simulate.csv")}
        for argv in self._argvs(st, 1000):
            cli.main(argv)
        return st

    def run_round(self, st):
        clock = Clock(self.reference)
        codes = [clock(cli.main, argv) for argv in self._argvs(st, self.steps)]
        digests, size = {}, 0
        for path in (st["ergodic_out"], st["simulate_out"]):
            with open(path, "rb") as fh:
                data = fh.read()
            digests[os.path.basename(path)] = hashlib.sha256(data).hexdigest()
            size += len(data)
        steps = 2 * self.steps
        return Round(clock=clock, work=steps, ops=2,
                     counts={"chain_steps": steps, "cli.out.bytes": size, "sha256": digests},
                     outputs={"codes": codes, "digests": digests})

    def check(self, st, rnd):
        fails = [f"command {i} exited {c}" for i, c in enumerate(rnd.outputs["codes"]) if c != 0]
        for path, digest in rnd.outputs["digests"].items():
            first = st["digests"].setdefault(path, digest)
            if digest != first:
                fails.append(f"{path}: bytes differ from the first round")
        return fails


class LargeBox:
    """One huge relaxation, many single-grain drops, one parallel relaxation."""

    name = "large_box"
    work_unit = "topplings of the two relaxations"
    reference = ("interpreted",)  # FIFO relaxations, one toppling at a time
    side = 64
    grains = 4  # every site starts unstable: about 10^6 topplings
    drops = 500  # per round; p99 needs 1000 drops, pooled over the rounds
    many_side = 32
    many_grains = 6

    def setup(self, seed, out_dir):
        lat = lattice.build_lattice([self.side, self.side])
        small = lattice.build_lattice([self.many_side, self.many_side])
        start = np.full(lat.n_sites, self.grains, dtype=np.int64)
        small_start = np.full(small.n_sites, self.many_grains, dtype=np.int64)
        small_ref, small_ref_od = btw.btw_stabilize(small, small_start)
        sites = np.random.default_rng([seed, 2]).integers(lat.n_sites, size=self.drops)
        btw.btw_add(lat, np.zeros(lat.n_sites, dtype=np.int64), int(sites[0]))
        return {"lat": lat, "small": small, "start": start, "small_start": small_start,
                "small_ref": small_ref, "small_ref_od": small_ref_od, "sites": sites,
                "ledger": MassLedger(lat), "small_ledger": MassLedger(small)}

    @staticmethod
    def _drops(lat, cur, sites):
        states, latencies = [cur], []
        for x in sites:
            a = time.perf_counter()
            cur = btw.btw_add(lat, cur, x)
            latencies.append(time.perf_counter() - a)
            states.append(cur)
        return states, latencies

    def run_round(self, st):
        lat = st["lat"]
        clock = Clock(self.reference)
        relaxed, od = clock(btw.btw_stabilize, lat, st["start"])
        states, latencies = clock(self._drops, lat, relaxed, st["sites"].tolist())
        quanta = st["small_start"][None, :].copy()
        many_od = clock(btw.stabilize_many, st["small"], quanta)
        topplings = int(od.sum()) + int(many_od.sum())
        relax_s, _, many_s = clock.scaled
        return Round(clock=clock, work=topplings, work_time=relax_s + many_s,
                     ops=2 + len(latencies), latencies=latencies,
                     counts={"relax_topplings": int(od.sum()),
                             "many_topplings": int(many_od.sum())},
                     outputs={"od": od, "states": states, "quanta": quanta,
                              "many_od": many_od})

    def check(self, st, rnd):
        out, ledger = rnd.outputs, st["ledger"]
        fails = []
        states = out["states"]
        if not (ledger.holds(st["start"], states[0], out["od"])
                and (states[0] < st["lat"].threshold).all()):
            fails.append("relaxation: mass ledger or stability fails")
        drop_topplings = 0
        for i, x in enumerate(st["sites"].tolist()):
            before = states[i].copy()
            before[x] += 1
            ref = before.copy()
            od = btw.stabilize_from(st["lat"], ref, (x,))
            drop_topplings += int(od.sum())
            if not (np.array_equal(ref, states[i + 1]) and ledger.holds(before, states[i + 1], od)):
                fails.append(f"drop {i} at site {x}: differs from FIFO or breaks the ledger")
        rnd.counts["drop_topplings"] = drop_topplings
        quanta, many_od = out["quanta"][0], out["many_od"][0]
        if not (np.array_equal(quanta, st["small_ref"]) and np.array_equal(many_od, st["small_ref_od"])
                and st["small_ledger"].holds(st["small_start"], quanta, many_od)):
            fails.append("stabilize_many differs from FIFO or breaks the ledger")
        return fails

    def headline(self, rounds):
        return latency_summary([t for r in rounds for t in r.latencies], "drop")


class ExactGroup:
    """Exact (L4) work: enumeration, determinant, addition orders, inverses."""

    name = "exact_group"
    work_unit = "configurations: the 3x3 scan plus those each addition order permutes"
    reference = ("interpreted", "bulk")  # per-configuration loops and a numpy scan
    sites = (0, 4)  # corner and centre of the 3x3 box
    identity_samples = 8
    roundtrips = 16

    def setup(self, seed, out_dir):
        lat = lattice.build_lattice([3, 3])
        pair = lattice.build_lattice([2, 3])
        pair_rec = btw.enumerate_recurrent(pair)
        rng = np.random.default_rng([seed, 3])
        cases = [(measures.sample_uniform_allowed(pair, rng, pair_rec),
                  int(rng.integers(pair.n_sites)), float(rng.uniform(0.0, 1.0)))
                 for _ in range(self.roundtrips)]
        picks = rng.integers(2**31, size=self.identity_samples)
        eta, x, u = cases[0]
        cbtw.cbtw_inverse_add(pair, cbtw.cbtw_add(pair, eta, x, u), x, u, recurrent=pair_rec)
        return {"lat": lat, "pair": pair, "pair_rec": pair_rec, "cases": cases, "picks": picks}

    def run_round(self, st):
        lat, pair, pair_rec = st["lat"], st["pair"], st["pair_rec"]
        clock = Clock(self.reference)
        rec = clock(btw.enumerate_recurrent, lat)
        det = clock(lambda: lattice.determinant_exact(lattice.toppling_matrix(lat, "integer")))
        orders = [clock(btw.addition_order, lat, x, rec) for x in self.sites]
        backs = clock(lambda: [cbtw.cbtw_inverse_add(pair, cbtw.cbtw_add(pair, eta, x, u), x, u,
                                                     recurrent=pair_rec)
                               for eta, x, u in st["cases"]])
        scanned = lat.threshold ** lat.n_sites
        return Round(clock=clock, work=scanned + len(self.sites) * len(rec),
                     ops=1 + len(self.sites) + len(backs),
                     counts={"configs_scanned": scanned, "recurrent": len(rec),
                             "orders": [int(o) for o in orders]},
                     outputs={"rec": rec, "det": det, "orders": orders, "backs": backs})

    def check(self, st, rnd):
        out, lat = rnd.outputs, st["lat"]
        rec = out["rec"]
        fails = []
        if len(rec) != out["det"]:
            fails.append(f"{len(rec)} recurrent configurations, determinant {out['det']}")
        rows = rec[st["picks"] % len(rec)] if len(rec) else []
        for x, order in zip(self.sites, out["orders"]):
            if not all(np.array_equal(btw.btw_add(lat, row, x, amount=int(order)), row)
                       for row in rows):
                fails.append(f"a_{x}^{order} is not the identity")
        worst = 0.0
        for i, ((eta, _, _), back) in enumerate(zip(st["cases"], out["backs"])):
            worst = max(worst, float(np.max(np.abs(back.frac - eta.frac))))
            if not np.array_equal(back.quanta, eta.quanta):
                fails.append(f"roundtrip {i}: quanta differ")
        rnd.counts["roundtrip_max_frac_error"] = worst
        return fails


WORKLOADS = {w.name: w for w in (EnsemblePath(), CliScalar(), LargeBox(), ExactGroup())}
