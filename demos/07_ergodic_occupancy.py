"""Time fractions along one fixed-amount trajectory.

A single chain with fixed irrational amount a never converges in law, yet
its time averages still see the stationary picture: the fraction of steps
the quanta spend in each recurrent cell approaches 1/|R^o|, uniformly.
This is a numerical consistency check of the measure bookkeeping (the
cells partition the state space into equal volumes), not a substitute for
a proof; we simply run the chain and count.
"""

import math

import numpy as np

from sandpiles import build_lattice, ergodic_average, zero_config

rng = np.random.default_rng(47)
lat = build_lattice([2])
recurrent = lat.recurrent
a = math.sqrt(2.0) - 1.0

def occupancy(cfg):
    return (recurrent == cfg.quanta).all(axis=1).astype(np.float64)

print(f"2-site path, fixed amount a = sqrt(2)-1, "
      f"{len(recurrent)} recurrent quanta cells")
print()
print("time fraction spent in each cell (expected 1/3 each):")
print("      T    " + "   ".join(f"cell {list(map(int, r))}" for r in recurrent))
for steps in (1000, 10000, 100000):
    freqs = ergodic_average(lat, zero_config(lat), a, steps, occupancy,
                            np.random.default_rng(47))
    row = "   ".join(f"{f:10.4f}" for f in freqs)
    print(f"{steps:>7}  {row}")

freqs = ergodic_average(lat, zero_config(lat), a, 100000, occupancy,
                        np.random.default_rng(47))
dev = float(np.max(np.abs(freqs - 1.0 / len(recurrent))))
print()
print(f"max deviation from uniform at T=100000: {dev:.4f}")
print("the trajectory visits every cell equally often even though the")
print("marginal law at a fixed time keeps rotating and never settles.")
