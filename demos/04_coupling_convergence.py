"""Coupling two chains until they coalesce, and the TV decay it implies.

With amounts drawn from a genuine interval [a, b], two copies of the
chain driven by shifted randomness meet exactly after a geometric number
of epochs: whenever one epoch hits every site the same balanced number of
times with all amounts in the middle half of the interval (event O), the
shifted copy absorbs the difference and the states agree bit for bit.
This script shows one coupled pair, measures the empirical frequency of
O against its exact probability, and tracks the distance to the
stationary law along the chain.
"""

import numpy as np

from sandpiles import (AdditionParams, Binning, build_lattice,
                       coupling_success_probability, epoch_shape,
                       run_coupling, run_coupling_ensemble,
                       sample_uniform_allowed, sample_uniform_allowed_batch,
                       tv_decay_experiment, zero_config)

rng = np.random.default_rng(11)
lat = build_lattice([2])
params = AdditionParams(0.2, 0.8)

M, L = epoch_shape(lat, params)
p = coupling_success_probability(lat, params)
print(f"2-site path, amounts uniform on [{params.a}, {params.b}]")
print(f"epoch = {L} steps ({M} visits per site); "
      f"P(O per epoch) = {p} = {float(p):.3e}")

print()
print("one coupled pair, from the empty configuration vs a stationary draw:")
eta0 = zero_config(lat)
zeta0 = sample_uniform_allowed(lat, rng)
result = run_coupling(lat, eta0, zeta0, params, rng)
print(f"  coalesced after {result.n_epochs} epochs "
      f"({result.n_epochs * L} steps)")
print(f"  final heights agree exactly: "
      f"{np.array_equal(result.eta.quanta, result.zeta.quanta)} / "
      f"max frac gap {np.max(np.abs(result.eta.frac - result.zeta.frac)):.1e}")

n_rep, n_ep = 4000, 50
eta_q = np.zeros((n_rep, lat.n_sites), dtype=np.int64)
eta_f = np.zeros((n_rep, lat.n_sites))
zeta_q, zeta_f = sample_uniform_allowed_batch(lat, rng, n_rep)
ens = run_coupling_ensemble(lat, eta_q, eta_f, zeta_q, zeta_f, params, n_ep, rng)
cells = n_rep * n_ep
observed = int(ens.o_events.sum())
verified = int(ens.o_verified.sum())
sigma = float(np.sqrt(cells * float(p) * (1 - float(p))))
print()
print(f"ensemble: {n_rep} pairs x {n_ep} epochs = {cells} epoch trials")
print(f"  O occurred {observed} times (expected {cells * float(p):.1f} "
      f"+- {sigma:.1f}), every one coalesced exactly: {verified == observed}")

times = (1, 2, 4, 8, 16, 32, 64, 128)
decay = tv_decay_experiment(lat, params, times, 20000, Binning(8), rng)
print()
print("TV distance from the stationary law, chain started empty:")
print("    t    TV")
for t, tv in zip(decay.times, decay.tvs):
    bar = "#" * int(round(80 * tv))
    print(f"  {t:>3}  {tv:.4f}  {bar}")
print(f"noise floor {decay.noise_floor:.4f}; "
      f"log-linear slope {decay.slope:.3f} per step")
