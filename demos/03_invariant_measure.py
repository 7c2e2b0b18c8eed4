"""The uniform law on allowed configurations is invariant.

Draw a large sample from the product law "uniform recurrent quanta times
independent uniform fractional parts", push every sample through one
random addition (uniform site, uniform amount in [0,1)), and compare the
before and after laws on a product discretization. The total variation
distance between them should sit at the sampling noise floor, which we
calibrate with two fresh draws from the same law.
"""

import numpy as np
from scipy import stats

from sandpiles import (Binning, Histogram, build_lattice,
                       sample_uniform_allowed_batch, step_ensemble,
                       tv_noise_floor, estimate_tv)

rng = np.random.default_rng(7)
lat = build_lattice([2])
recurrent = lat.recurrent
N = 50000
binning = Binning(8)

print(f"2-site path: {len(recurrent)} recurrent quanta cells, "
      f"{binning.bins_per_site} fractional bins per site, {N} samples")

quanta, frac = sample_uniform_allowed_batch(lat, rng, N)
before = Histogram.from_samples(lat.d, binning, quanta, frac)

xs = rng.integers(lat.n_sites, size=N)
us = rng.uniform(0.0, 1.0, size=N)
step_ensemble(lat, quanta, frac, xs, us)
after = Histogram.from_samples(lat.d, binning, quanta, frac)

tv = estimate_tv(before, after)
floor = tv_noise_floor(lat, binning, N, rng)
print()
print(f"TV(before, after)  = {tv:.4f}")
print(f"noise floor        = {floor:.4f}  (two fresh same-law samples)")
print(f"invariant at scale: {tv <= floor + 0.01}")

cell_counts = np.zeros(len(recurrent), dtype=np.int64)
for i, row in enumerate(recurrent):
    cell_counts[i] = int(((quanta == row).all(axis=1)).sum())
print()
print("post-step occupancy of the quanta cells (uniform expected):")
for row, c in zip(recurrent, cell_counts):
    bar = "#" * int(round(60 * c / N))
    print(f"  {list(map(int, row))}  {c:>6}  {bar}")
chi = stats.chisquare(cell_counts)
print(f"chi-square p-value vs uniform: {chi.pvalue:.3f}")

ks = stats.kstest(np.sort(frac[:, 0] * 2 * lat.d), "uniform")
print(f"KS p-value, site-0 fractional part vs uniform on its cell: {ks.pvalue:.3f}")
