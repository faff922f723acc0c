"""From a measured twisted commutation value to a dimension certificate.

A pair with || u v - e^{2 pi i alpha} v u || <= delta pins eigenvalues of u
inside arcs around the powers of e^{2 pi i alpha}.  Stabbing all arcs with as
few points as possible (greedily, after forcing the +1 eigenvalue) counts how
many distinct eigenvalues u must have: the paper's arc construction.  The
determinant floor certifies more: det(u v u^dag v^dag) = 1 forces
|| u v - eta v u || >= lambda_min(g, alpha) in dimension g, and the clock/shift
pair attains it, so the least g with lambda_min(g, alpha) <= delta is the
exact minimum dimension.  This script reproduces the worked
(alpha, delta) = (1/4, 1/2) example and sweeps both certified-dimension maps.
"""

import numpy as np

from twistcert import (
    arc_dimension,
    certify_grid,
    certify_single,
    greedy_transversal,
    lambda_min,
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
print(f"  greedy stab angles: {[round(float(np.degrees(s)), 2) for s in stabs]}")
print(f"  arcs certify: 1 (forced +1) + {len(stabs)} stabs"
      f" = {arc_dimension(alpha, delta)}")
cert = certify_single(alpha, delta)
floors = ", ".join(f"g={g}: {lambda_min(g, alpha):.4f}" for g in range(1, cert.d_min + 1))
print(f"  floors lambda_min(g, alpha): {floors}")
print(f"  the floor certifies {cert.d_min}; it weakens once delta exceeds"
      f" {delta + cert.slack:.6f}")

# -- the closed-form threshold points ----------------------------------------
# at twist 1/d, any value strictly below 2 (1 - cos(pi/d)) / (d - 1)
# certifies dimension d; both methods recover each of them
print("\nclosed-form thresholds: arcs and floor")
dims = range(2, 9)
thresholds = [single_pair_threshold(d) for d in dims]
cells = [(1.0 / d, thr - 1e-9) for d, thr in zip(dims, thresholds)]
for (d, thr), cell, got in zip(zip(dims, thresholds), cells, certify_grid(cells)):
    print(f"  d={d}: threshold {thr:.6f} -> arcs {arc_dimension(*cell)}, floor {got}")

# -- a coarse map of certified dimension over (alpha, delta) ------------------
print("\ncertified dimension, arcs / floor (rows: delta, cols: alpha):")
alphas = np.linspace(0.05, 0.95, 19)
print("        " + " ".join(f"{a:7.2f}" for a in alphas))
for delta in (1.0, 0.5, 0.2, 0.1, 0.05, 0.02):
    floor = certify_grid((a, delta) for a in alphas)
    arcs = [arc_dimension(a, delta) for a in alphas]
    print(f"  {delta:5.2f} " + " ".join(f"{a:3d}/{f:<3d}" for a, f in zip(arcs, floor)))

# exact twisted commutation at a rational twist forces divisibility, so the
# delta -> 0 limit of the map lands on the denominator
print("\nexact case: certify_single(3/7, 0) ->",
      certify_single(3.0 / 7.0, 0.0).d_min)
