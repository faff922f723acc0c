"""Central numerical tolerances used across the package."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Default tolerances for structural matrix checks.

    unitarity     : ||U^dag U - I||_2 threshold for accepting a unitary.
    normality     : relative defect ||A^*A - AA^*||_F / ||A||_F^2 threshold.
    eig_residual  : max ||A x - lam x||_2 accepted from the normal eigensolver,
                    relative to max(1, ||A||_2).  The shared-eigenvector
                    routines also snap a seed eigenvalue lying within this
                    times max(1, max |lambda|) of the spectrum onto it.
    projector     : ||P^2 - P||_2 and ||P - P^dag||_2 threshold.
    hermiticity   : ||H - H^dag||_2 threshold, relative to ||H||_2.
    spectral_rel  : relative tolerance when verifying a stated gap/width
                    against the actual spectrum.
    angle_merge   : radians; arc endpoints closer than this are treated as
                    coincident by the transversal certifier.
    """

    unitarity: float = 1e-10
    normality: float = 1e-8
    eig_residual: float = 1e-9
    projector: float = 1e-10
    hermiticity: float = 1e-10
    spectral_rel: float = 1e-8
    angle_merge: float = 1e-12


DEFAULT_TOL = Tolerances()
