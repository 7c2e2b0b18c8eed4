"""End-to-end acceptance suite.

One test per headline property, each at a fixed seed and a stated
tolerance. Every test prints a single machine-greppable line of the form

    [criterion N] PASS ...   or   [criterion N] FAIL ...

directly on the real stdout (bypassing capture) before asserting, so a
full run always shows one verdict line per criterion. Statistical checks
are calibrated: tolerances sit several standard errors above the noise
expected at the stated sample sizes, and the seeds are fixed, so the
suite is deterministic.
"""

import cmath
import math
import time

import numpy as np

from sandpiles import btw, cbtw, experiments, measures
from sandpiles.lattice import build_lattice, determinant_exact, toppling_matrix

from oracles import random_order_stabilize


def report(capfd, number, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"[criterion {number}] {verdict} {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_recurrent_count_equals_determinant(capfd):
    start = time.perf_counter()
    lattices = [build_lattice([n]) for n in range(1, 9)]
    lattices += [build_lattice([2, 2]), build_lattice([2, 3])]
    mismatches = []
    for lat in lattices:
        n_recurrent = len(btw.enumerate_recurrent(lat))
        det_int = determinant_exact(toppling_matrix(lat, "integer"))
        if n_recurrent != det_int:
            mismatches.append((lat.dims, n_recurrent, det_int))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 10.0
    report(capfd, 1, ok,
           f"recurrent count = exact determinant on 10 lattices "
           f"in {elapsed:.2f}s (mismatches: {mismatches})")


def test_criterion_02_stabilization_order_independence(capfd):
    lat = build_lattice([3, 3])
    rng = np.random.default_rng(202)
    two_d = 2 * lat.d
    btw_bad = cbtw_bad = 0
    for _ in range(1000):
        heights = rng.integers(0, 2 * two_d, size=lat.n_sites)
        ref_h, ref_od = btw.btw_stabilize(lat, heights)
        trial_h, trial_od = random_order_stabilize(lat, heights, rng)
        if not (np.array_equal(ref_h, trial_h) and np.array_equal(ref_od, trial_od)):
            btw_bad += 1
    for _ in range(1000):
        quanta = rng.integers(0, 2 * two_d, size=lat.n_sites)
        frac = rng.uniform(0.0, 1.0 / two_d, size=lat.n_sites)
        cfg = cbtw.CbtwConfig(lat.d, quanta.copy(), frac.copy())
        ref, ref_od = cbtw.cbtw_stabilize(lat, cfg)
        trial = cbtw.CbtwConfig(lat.d, quanta.copy(), frac.copy())
        trial_od = np.zeros(lat.n_sites, dtype=np.int64)
        while not trial.is_stable():
            unstable = np.flatnonzero(trial.quanta >= two_d)
            x = int(unstable[rng.integers(len(unstable))])
            trial, legal = cbtw.cbtw_topple(lat, trial, x)
            assert legal
            trial_od[x] += 1
        same = (np.array_equal(ref.quanta, trial.quanta)
                and np.array_equal(ref.frac, trial.frac)
                and np.array_equal(ref_od, trial_od))
        if not same:
            cbtw_bad += 1
    ok = btw_bad == 0 and cbtw_bad == 0
    report(capfd, 2, ok,
           f"1000 random-order trials per model on the 3x3 grid "
           f"(disagreements: integer {btw_bad}, continuous {cbtw_bad})")


def test_criterion_03_stabilization_commutes_with_decomposition(capfd):
    lat = build_lattice([3, 3])
    rng = np.random.default_rng(303)
    two_d = 2 * lat.d
    bad = 0
    for _ in range(1000):
        quanta = rng.integers(0, 3 * two_d, size=lat.n_sites)
        quanta[rng.integers(lat.n_sites)] += two_d
        frac = rng.uniform(0.0, 1.0 / two_d, size=lat.n_sites)
        cfg = cbtw.CbtwConfig(lat.d, quanta.copy(), frac.copy())
        stable, od = cbtw.cbtw_stabilize(lat, cfg)
        ref_q, ref_od = btw.btw_stabilize(lat, quanta)
        same = (np.array_equal(stable.quanta, ref_q)
                and np.array_equal(od, ref_od)
                and np.array_equal(stable.frac, frac))
        if not same:
            bad += 1
    ok = bad == 0
    report(capfd, 3, ok,
           f"1000 random unstable 3x3 configs: continuous stabilization = "
           f"integer stabilization of the quanta, frac bitwise ({bad} failures)")


def test_criterion_04_burning_matches_subset_scan(capfd):
    lattices = [build_lattice([n]) for n in (1, 2, 3, 4)] + [build_lattice([2, 2])]
    checked = 0
    bad = 0
    for lat in lattices:
        for heights in np.ndindex(*([2 * lat.d] * lat.n_sites)):
            h = np.array(heights, dtype=np.int64)
            checked += 1
            if btw.is_recurrent_burning(lat, h) != btw.is_allowed_bruteforce(lat, h):
                bad += 1
    ok = bad == 0
    report(capfd, 4, ok,
           f"burning test = subset scan on all {checked} stable configs "
           f"(paths n<=4 and the 2x2 grid), {bad} disagreements")


def test_criterion_05_addition_bijection_roundtrip(capfd):
    lat = build_lattice([2])
    rng = np.random.default_rng(505)
    recurrent = btw.enumerate_recurrent(lat)
    worst = 0.0
    bad = 0
    for _ in range(500):
        zeta = measures.sample_uniform_allowed(lat, rng, recurrent)
        x = int(rng.integers(lat.n_sites))
        u = float(rng.uniform(0.0, 1.0))
        pre = cbtw.cbtw_inverse_add(lat, zeta, x, u, recurrent=recurrent)
        back = cbtw.cbtw_add(lat, pre, x, u)
        err = float(np.max(np.abs(back.frac - zeta.frac)))
        worst = max(worst, err)
        if not np.array_equal(back.quanta, zeta.quanta) or err > 1e-10:
            bad += 1
    ok = bad == 0
    report(capfd, 5, ok,
           f"500 add(inverse_add(.)) roundtrips on the 2-site path: quanta exact, "
           f"max frac error {worst:.2e} (tolerance 1e-10)")


def test_criterion_06_uniform_law_is_invariant(capfd):
    lat = build_lattice([2])
    rng = np.random.default_rng(606)
    start = time.perf_counter()
    result = experiments.invariance_experiment(lat, measures.Binning(8), 100000, rng)
    elapsed = time.perf_counter() - start
    ok = result.tv <= result.noise_floor + 0.01 and elapsed < 60.0
    report(capfd, 6, ok,
           f"one random addition preserves the uniform-allowed law: "
           f"TV {result.tv:.4f} <= floor {result.noise_floor:.4f} + 0.01 "
           f"at 100000 samples in {elapsed:.1f}s")


def test_criterion_07_coupling_event_and_tv_decay(capfd):
    lat = build_lattice([2])
    params = cbtw.AdditionParams(0.2, 0.8)
    rng = np.random.default_rng(707)
    recurrent = btw.enumerate_recurrent(lat)

    n_replicas, n_epochs = 20000, 100
    eta_q = np.zeros((n_replicas, lat.n_sites), dtype=np.int64)
    eta_f = np.zeros((n_replicas, lat.n_sites))
    zeta_q, zeta_f = measures.sample_uniform_allowed_batch(lat, rng, n_replicas)
    ensemble = experiments.run_coupling_ensemble(
        lat, eta_q, eta_f, zeta_q, zeta_f, params, n_epochs, rng)
    all_verified = np.array_equal(ensemble.o_events, ensemble.o_verified)

    p = float(experiments.coupling_success_probability(lat, params))
    n_cells = n_replicas * n_epochs
    observed = int(ensemble.o_events.sum())
    expected = p * n_cells
    sigma = math.sqrt(n_cells * p * (1.0 - p))
    freq_ok = abs(observed - expected) <= 3.0 * sigma

    times = (1, 2, 4, 8, 16, 32, 64, 128, 256)
    decay = experiments.tv_decay_experiment(lat, params, times, 100000,
                                            measures.Binning(8), rng, recurrent)
    decay_ok = decay.slope < 0.0 and decay.tvs[-1] <= 2.0 * decay.noise_floor

    ok = all_verified and freq_ok and decay_ok
    report(capfd, 7, ok,
           f"coupling on the 2-site path: {observed} success events over "
           f"{n_cells} epochs all coalesced exactly (expected {expected:.1f}"
           f"+-{3 * sigma:.1f}); TV decay slope {decay.slope:.3f}, "
           f"final TV {decay.tvs[-1]:.4f} <= 2x floor {2 * decay.noise_floor:.4f}")


def test_criterion_08_fixed_amount_phase_rotation(capfd):
    lat = build_lattice([2])
    a = math.sqrt(2.0) - 1.0
    params = cbtw.AdditionParams(a, a)
    rng = np.random.default_rng(808)
    initial = cbtw.zero_config(lat)
    theta0 = cmath.phase(experiments.phase_observable(initial))
    spin = 4.0 * lat.d * math.pi * a
    worst = [0.0]

    def on_step(t, x, u, quanta, frac):
        g = cmath.exp(4j * math.pi * lat.d * float(frac.sum()))
        predicted = cmath.exp(1j * (theta0 + spin * t))
        worst[0] = max(worst[0], abs(cmath.phase(g / predicted)))

    experiments.run_chain(lat, initial, params, 10000, rng, on_step=on_step)
    ok = worst[0] <= 1e-9
    report(capfd, 8, ok,
           f"fixed amount sqrt(2)-1: phase argument tracks the rigid rotation "
           f"for 10000 steps, max deviation {worst[0]:.2e} (tolerance 1e-9)")


def test_criterion_09_rational_amount_limit_law(capfd):
    lat = build_lattice([2])
    rng = np.random.default_rng(909)
    base = cbtw.zero_config(lat)
    result = experiments.rational_limit_test(lat, base, 0.5, 10000, 100000, rng,
                                             binning=measures.Binning(8))
    ok = result.tv <= result.noise_floor + 0.02
    report(capfd, 9, ok,
           f"fixed amount 1/2 from zero: chain law at t=10000 vs predicted "
           f"limit, TV {result.tv:.4f} <= floor {result.noise_floor:.4f} + 0.02 "
           f"at 100000 replicas")


def test_criterion_10_translate_mixture_fourier(capfd):
    rng = np.random.default_rng(1010)
    mc_bad = 0
    worst_sigma = 0.0
    cases = []
    for _ in range(20):
        m = int(rng.integers(1, 4))
        k = rng.integers(-3, 4, size=m)
        while not k.any():
            k = rng.integers(-3, 4, size=m)
        x = rng.uniform(0.0, 1.0, size=m)
        step = float(rng.uniform(0.0, 1.0))
        n_terms = int(rng.integers(1, 201))
        cases.append((step, k, x, n_terms))
        exact = experiments.translation_mixture_fourier(step, k, x, n_terms)
        mc, se = experiments.translation_mixture_fourier_mc(step, k, x, n_terms,
                                                            50000, rng)
        diff = abs(exact - mc)
        if diff > 4.0 * se + 1e-12:
            mc_bad += 1
        if se > 0:
            worst_sigma = max(worst_sigma, diff / se)
    bound_bad = 0
    for step, k, x, _ in cases:
        for n_terms in (10, 100, 1000):
            coeff = abs(experiments.translation_mixture_fourier(step, k, x, n_terms))
            bound = experiments.translation_mixture_bound(step, k, n_terms)
            if not math.isinf(bound) and coeff > bound + 1e-12:
                bound_bad += 1
    ok = mc_bad == 0 and bound_bad == 0
    report(capfd, 10, ok,
           f"mixture coefficients: 20 random cases within 4 sigma of Monte Carlo "
           f"(worst {worst_sigma:.2f} sigma), modulus bound holds for "
           f"N in (10, 100, 1000) ({bound_bad} violations)")


def test_criterion_11_time_fractions_match_uniform_cells(capfd):
    lat = build_lattice([2])
    rng = np.random.default_rng(1111)
    recurrent = btw.enumerate_recurrent(lat)
    initial = cbtw.zero_config(lat)

    def occupancy(cfg):
        return (recurrent == cfg.quanta).all(axis=1).astype(np.float64)

    freqs = experiments.ergodic_average(lat, initial, math.sqrt(2.0) - 1.0,
                                        10**6, occupancy, rng)
    expected = 1.0 / len(recurrent)
    max_dev = float(np.max(np.abs(freqs - expected)))
    ok = max_dev <= 0.02
    report(capfd, 11, ok,
           f"fixed amount sqrt(2)-1 for 10^6 steps: time fraction per quanta "
           f"cell within {max_dev:.4f} of 1/3 (tolerance 0.02; consistency "
           f"check, not a proof artifact)")
