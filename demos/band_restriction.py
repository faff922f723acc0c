"""Restricting approximate symmetries of a gapped Hamiltonian to a band.

Generates a gapped model carrying an exact clock/shift pair, perturbs it,
and shows that the symmetries restrict to honest unitaries on the band whose
twisted commutation value obeys the certified budget
delta + 2 xi^2 + 4 f(xi^2) with xi = (epsilon + width) / gap.
"""

import numpy as np

from twistcert import (
    ModelSpec,
    certify_single,
    clock_model,
    commutator_epsilon,
    gibbs_transform,
    offdiag_norm,
    restrict_pair,
)

# -- a perturbation sweep at g = 3 -------------------------------------------
print("perturbed clock model, g = 3, gap 1:")
print(f"{'s':>7} {'eps_max':>9} {'xi':>8} {'bound':>9} {'measured':>9} {'d_min':>6}")
for s in (0.0, 0.005, 0.01, 0.02, 0.05, 0.1):
    spec = ModelSpec(kind="clock-block", g=3, n_excited=6, gap=1.0,
                     perturbation_strength=s, seed=20)
    model = clock_model(spec)
    res = restrict_pair(model.u, model.v, model.band, model.alpha)
    bound = res.delta_out_bound
    cert = certify_single(model.alpha, max(bound, 1e-6) if bound > 0 else 0.0)
    print(f"{s:7.3f} {max(res.eps_u, res.eps_v):9.5f} {res.xi:8.5f}"
          f" {bound:9.5f} {res.delta_out_measured:9.2e} {cert.d_min:6d}")
print("the measured restricted value sits far below its certified budget,")
print("and the certificate holds the full band dimension until xi grows.")

# -- the off-diagonal bound and its tight configuration ----------------------
spec = ModelSpec(kind="flat-band", g=3, n_excited=6, gap=1.0,
                 perturbation_strength=0.0, seed=4)
model = clock_model(spec)
rng = np.random.default_rng(0)
from twistcert import haar_unitary  # noqa: E402

u = haar_unitary(model.band.dim, rng)
eps = commutator_epsilon(u, model.band)
off = offdiag_norm(u, model.band)
print(f"\nflat excited band: off-diagonal part {off:.6f}"
      f" = eps/gap {eps / model.band.gap:.6f} (tight)")

# -- trading gap scaling through the thermal weight ---------------------------
# commutation with exp(-beta H) is commutation with I - exp(-beta H), which
# shares the band and has gap 1 - exp(-beta * gap): beta = ln(2)/gap fixes the
# effective gap at 1/2 regardless of the original scale
spec = ModelSpec(kind="clock-block", g=3, n_excited=6, gap=0.05,
                 perturbation_strength=0.0, seed=5)
model = clock_model(spec)
beta = np.log(2.0) / model.band.gap
thermal = gibbs_transform(model.band, beta)
print(f"\noriginal gap {model.band.gap:.4f};"
      f" transformed gap {thermal.gap:.4f} at beta = ln(2)/gap")
res = restrict_pair(model.u, model.v, thermal, model.alpha)
print(f"restriction against the transformed band: xi = {res.xi:.2e},"
      f" measured {res.delta_out_measured:.2e}")
