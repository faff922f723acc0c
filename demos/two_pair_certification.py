"""Certifying a product dimension from two mutually compatible twisted pairs.

Two pairs with twists 1/d1 and 1/d2 whose five mutual commutation values are
small force the dimension to at least d1 * d2: a shared approximate +1
eigenvector of u1 and u2 is pushed around by v1 and v2 into d1 * d2 states
whose Gram matrix is provably nonsingular below the threshold.
"""

import numpy as np

from twistcert import (
    ModelSpec,
    certify_double,
    ground_symmetry,
    tensor_double_model,
    verify_double_witness,
)
from twistcert.certify import pair_values

# -- the closed-form threshold ------------------------------------------------
print("certification threshold sin^2(pi/2 d1) / (d1 d2 - 1)^2:")
for d1, d2 in ((2, 2), (2, 3), (3, 3), (2, 4)):
    rhs = np.sin(np.pi / (2 * d1)) ** 2 / (d1 * d2 - 1) ** 2
    print(f"  (d1, d2) = ({d1}, {d2}): {rhs:.6f}")

cert = certify_double(2, 3, 1e-6, 1e-4)
print(f"\ncertify_double(2, 3, 1e-6, 1e-4): d_min = {cert.d_min},"
      f" slack = {cert.slack:.6f}")

# gamma too large: the closed form falls back to the best single-pair bound
fallback = certify_double(2, 3, 1.0, 0.0)
print(f"out-of-threshold fallback: d_min = {fallback.d_min}"
      f" via {fallback.method}")

# -- end to end on a perturbed tensor model -----------------------------------
# code space C^2 (x) C^3 with pairs (C (x) I, S (x) I) and (I (x) C, I (x) S),
# embedded in a gapped Hamiltonian, perturbed, restricted to the band, and
# certified from the measured band values
d1, d2 = 2, 3
spec = ModelSpec(kind="tensor-double", g=d1, g2=d2, n_excited=d1 * d2,
                 gap=1.0, perturbation_strength=0.002, seed=9)
model = tensor_double_model(spec)
ground = [ground_symmetry(op, model.band)
          for op in (model.u1, model.u2, model.v1, model.v2)]
gamma, _ = pair_values(model.u1, model.u2, model.v1, model.v2, d1, d2)
print(f"\nperturbed tensor model: ambient gamma = {gamma:.2e},"
      f" xi = {max(gs.xi for gs in ground):.4f}")

report = verify_double_witness(*(gs.on_band for gs in ground), d1, d2)
print(f"restricted five-norm budget: gamma = {report.gamma:.3e},"
      f" delta = {report.delta:.3e}")
print(f"threshold check: lhs = {report.threshold_lhs:.3e}"
      f" < rhs = {report.threshold_rhs:.3e} -> {report.threshold_lhs < report.threshold_rhs}")
print(f"witness orbit Gram rank: {report.gram_rank} (want {d1 * d2});"
      f" min eigenvalue {report.gram_min_eigenvalue:.4f}")

cert = certify_double(d1, d2, report.gamma, report.delta)
print(f"certificate: band dimension >= {cert.d_min} via {cert.method}")
