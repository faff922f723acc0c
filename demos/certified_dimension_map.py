"""From a measured twisted commutation value to a dimension certificate.

A pair with || u v - e^{2 pi i alpha} v u || <= delta pins eigenvalues of u
inside arcs around the powers of e^{2 pi i alpha}.  Stabbing all arcs with as
few points as possible (greedily, after forcing the +1 eigenvalue) counts how
many distinct eigenvalues u must have.  This script reproduces the worked
(alpha, delta) = (1/4, 1/2) example and sweeps the certified-dimension map.
"""

import numpy as np

from twistcert import (
    certify_grid,
    certify_single,
    greedy_transversal,
    minimal_intervals,
    single_pair_threshold,
)

# -- the worked example, step by step ----------------------------------------
alpha, delta = 0.25, 0.5
intervals = minimal_intervals(alpha, delta)
stabs = greedy_transversal(intervals)
print(f"alpha = {alpha}, delta = {delta}")
print(f"  surviving minimal intervals (degrees):")
for lo, hi in intervals:
    print(f"    [{np.degrees(lo):7.2f}, {np.degrees(hi):7.2f}]")
print(f"  greedy stab angles: {[round(np.degrees(s), 2) for s in stabs]}")
cert = certify_single(alpha, delta)
print(f"  certified dimension: 1 (forced +1) + {len(stabs)} stabs"
      f" = {cert.d_min}")
print(f"  certificate weakens once delta exceeds {delta + cert.slack:.6f}")

# -- the closed-form threshold points ----------------------------------------
# at twist 1/d, any value strictly below 2 (1 - cos(pi/d)) / (d - 1)
# certifies dimension d; the sweep recovers each of them
print("\nclosed-form thresholds vs the sweep:")
dims = range(2, 9)
thresholds = [single_pair_threshold(d) for d in dims]
certified = certify_grid((1.0 / d, thr - 1e-9) for d, thr in zip(dims, thresholds))
for d, thr, got in zip(dims, thresholds, certified):
    print(f"  d={d}: threshold {thr:.6f} -> certified {got}")

# -- a coarse map of certified dimension over (alpha, delta) ------------------
print("\ncertified dimension (rows: delta, cols: alpha):")
alphas = np.linspace(0.05, 0.95, 19)
print("        " + " ".join(f"{a:4.2f}" for a in alphas))
for delta in (1.0, 0.5, 0.2, 0.1, 0.05, 0.02):
    row = certify_grid((a, delta) for a in alphas)
    print(f"  {delta:5.2f} " + " ".join(f"{d:4d}" for d in row))

# exact twisted commutation at a rational twist forces divisibility, so the
# delta -> 0 limit of the map lands on the denominator
print("\nexact case: certify_single(3/7, 0) ->",
      certify_single(3.0 / 7.0, 0.0).d_min)
