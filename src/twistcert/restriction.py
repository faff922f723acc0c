"""Restriction of approximate symmetries of a gapped Hamiltonian to a band,
with certified error bookkeeping.

A unitary U with small ||[U, H]|| is nearly block diagonal with respect to a
gapped band projector P, and its band block is nearly unitary.  Replacing the
band block by its polar unitary factor yields an operator commuting with P
and acting unitarily on the band, at a certified distance from U.  Twisted
commutation relations between two such symmetries survive the restriction up
to an additive penalty controlled by xi = (epsilon + width) / gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .linalg import (
    NormSpec,
    OPERATOR,
    as_matrix,
    is_unitary,
    norm_at_most,
    polar_unitary,
    schatten_kyfan_norm,
    twisted_commutator,
)

__all__ = [
    "sqrt_defect",
    "BandSpec",
    "GroundSymmetry",
    "RestrictionResult",
    "commutator_epsilon",
    "offdiag_norm",
    "ground_symmetry",
    "restrict_pair",
    "gibbs_transform",
]


def sqrt_defect(x: float) -> float:
    """1 - sqrt(1 - x) on [0, 1]: the unitary-distance a contraction with
    squared defect x can sit from the identity.  Satisfies x/2 <= f(x) <= x."""
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"argument must lie in [0, 1], got {x}")
    return 1.0 - np.sqrt(1.0 - x)


class _LowestBand:
    """The band argument of `BandSpec.lowest`: the `rank` lowest eigenvectors
    of H, taken from the constructor's own eigh."""

    def __init__(self, rank: int):
        self.rank = rank

    def pick(self, evals: np.ndarray, evecs: np.ndarray):
        """(P, gap, width) of the band from an ascending eigensystem."""
        n = evals.size
        if not 0 < self.rank < n:
            raise ValueError(f"band rank must lie in [1, {n - 1}], got {self.rank}")
        vecs = evecs[:, :self.rank]
        p = vecs @ vecs.conj().T
        return ((p + p.conj().T) / 2.0, float(np.min(np.abs(evals[self.rank:]))),
                float(np.max(np.abs(evals[:self.rank]))))


class BandSpec:
    """A Hermitian H together with an orthogonal projector P onto a gapped
    band, the gap `gap` (distance of the complement spectrum from zero) and
    the width `width` = ||H P||_2 (norm of H on the band).

    Validates on construction, from one eigh of (H + H^dag) / 2:
      * H Hermitian, P an orthogonal projector (to tolerance),
      * each eigenvector of H lies in range(P) or its complement,
      * ||H P||_2 <= width  and  H^2 >= gap^2 (I - P).

    Relative tolerances scale with max(1, ||H||_2), read off the spectrum of
    (H + H^dag) / 2; each "||X||_2 <= t" check runs an SVD only when the
    Frobenius norm of X exceeds t.  The last two checks are first decided by
    bounds drawn from the eigensystem, with V the in-band eigenvectors and
    D = ||P - V V^dag||_F:

        ||H P||_2                       <= ||H V||_2 + ||H||_2 D,
        lambda_min(H^2 - gap^2 (I - P)) >= min_j (lambda_j^2 - gap^2 [j excited])
                                           - gap^2 D   (Weyl),

    each widened by a few n u ||H|| eigh backward errors (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 3).  Only when a bound leaves
    the decision open does the check run its dense form (the n x n SVD of
    H P, the eigvalsh of H^2 - gap^2 (I - P)), so every accept, reject and
    message is the one the dense checks give; an omitted width is always
    measured by that SVD.

    When `gap` or `width` is omitted it is computed from the spectrum.  A
    supplied gap may understate but never overstate the actual gap (the
    restriction bounds are vacuous otherwise); a supplied width may overstate
    but never understate ||H P||.
    """

    def __init__(self, h, p, gap: float | None = None, width: float | None = None,
                 tol: Tolerances = DEFAULT_TOL):
        for name, value in (("gap", gap), ("width", width)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        h = as_matrix(h, square=True)
        self.h = (h + h.conj().T) / 2.0
        evals, evecs = np.linalg.eigh(self.h)
        if isinstance(p, _LowestBand):
            p, gap, width = p.pick(evals, evecs)
        else:
            p = as_matrix(p, square=True)
            if h.shape != p.shape:
                raise ValueError(f"dimension mismatch: H {h.shape} vs P {p.shape}")
        scale = max(1.0, float(np.max(np.abs(evals))))
        skew = h - h.conj().T
        # ||sym(H)||_2 <= ||H||_2: passing against the eigenvalue scale passes
        # against max(1, ||H||_2), which decides the check otherwise
        if not (norm_at_most(skew, tol.hermiticity * scale) or norm_at_most(
                skew, tol.hermiticity * max(1.0, float(np.linalg.norm(h, 2))))):
            raise ValueError("H is not Hermitian to tolerance")
        if not norm_at_most(p - p.conj().T, tol.projector):
            raise ValueError("P is not Hermitian to tolerance")
        if not norm_at_most(p @ p - p, tol.projector):
            raise ValueError("P is not idempotent to tolerance")

        self.p = (p + p.conj().T) / 2.0
        self.tol = tol
        self.dim = h.shape[0]
        self.rank = int(round(float(np.trace(self.p).real)))
        if self.rank < 1:
            raise ValueError("band projector has rank 0")

        pe = self.p @ evecs
        weights = np.linalg.norm(pe, axis=0) ** 2
        mix = np.minimum(weights, 1.0 - weights)
        if np.max(mix) > 1e-6:
            raise ValueError(
                "P is not a spectral projector for H: eigenvector band weight "
                f"{np.max(mix):.3e} away from {{0, 1}}"
            )
        in_band = weights > 0.5
        if int(np.sum(in_band)) != self.rank:
            raise ValueError("band eigenvector count does not match rank of P")

        self._band_evals = evals[in_band]
        self._band_evecs = evecs[:, in_band]
        self._excited_evals = evals[~in_band]

        if self._excited_evals.size == 0:
            raise ValueError("band covers the whole space; no gapped complement")
        gap_actual = float(np.min(np.abs(self._excited_evals)))

        rel = tol.spectral_rel
        # D = ||P - V V^dag||_F = ||P E - E [in band]||_F for unitary E, and a
        # margin for the eigh here and the dense check each bound stands in for
        pe[:, in_band] -= self._band_evecs
        defect = float(np.linalg.norm(pe))
        backward = 4.0 * self.dim * np.finfo(float).eps * scale
        # a stated width settled by ||H V|| + ||H|| D needs no SVD of H P
        width_actual = None
        if width is None or not (
                float(np.linalg.norm(self.h @ self._band_evecs, 2)) + scale * defect
                + backward <= width * (1.0 + rel) + rel * scale):
            width_actual = float(np.linalg.norm(self.h @ self.p, 2))

        if gap is None:
            gap = gap_actual
        elif gap > gap_actual * (1.0 + rel) + rel * scale:
            raise ValueError(
                f"stated gap {gap:.6g} overstates the actual gap {gap_actual:.6g}"
            )
        if width is None:
            width = width_actual
        elif width_actual is not None and width < width_actual * (1.0 - rel) - rel * scale:
            # implies the "exceeds" failure below, so a settled bound skips both
            raise ValueError(
                f"stated width {width:.6g} understates the actual ||H P|| "
                f"{width_actual:.6g}"
            )
        if gap <= 0:
            raise ValueError(f"gap must be positive, got {gap}")
        if width < 0:
            raise ValueError(f"width must be nonnegative, got {width}")
        self.gap = float(gap)
        self.width = float(width)

        # operational invariants
        if width_actual is not None and width_actual > self.width * (1.0 + rel) + rel * scale:
            raise ValueError("||H P|| exceeds the stated width")
        floor = min(float(np.min(self._band_evals ** 2)),
                    float(np.min(self._excited_evals ** 2 - self.gap ** 2)))
        if not (floor - self.gap ** 2 * defect - backward * scale >= -rel * scale ** 2):
            h2 = self.h @ self.h - self.gap ** 2 * (np.eye(self.dim) - self.p)
            min_eig = float(np.min(np.linalg.eigvalsh((h2 + h2.conj().T) / 2.0)))
            if min_eig < -rel * scale ** 2:
                raise ValueError("H^2 >= gap^2 (I - P) fails to tolerance")

    @classmethod
    def lowest(cls, h, rank: int, tol: Tolerances = DEFAULT_TOL) -> "BandSpec":
        """The band of the `rank` lowest eigenvalues of (H + H^dag) / 2, with
        gap = min |lambda| over the rest and width = max |lambda| over the
        band, all from the constructor's one eigh, then validated like any
        stated band."""
        return cls(h, _LowestBand(int(rank)), tol=tol)

    @cached_property
    def band_basis(self) -> np.ndarray:
        """Orthonormal basis of range(P), dim x rank: the QR factor of P V,
        where V holds the in-band eigenvectors of H found on construction.
        All band restrictions use this basis; they depend on it only up to a
        unitary change of basis within the band.

        Checked by ||P B - B||_2 <= tol.eig_residual, the residual bound the
        normal eigensolver applies (||P||_2 is 1 up to tol.projector)."""
        basis, _ = np.linalg.qr(self.p @ self._band_evecs)
        if not norm_at_most(self.p @ basis - basis, self.tol.eig_residual):
            raise ArithmeticError("band basis is not invariant under P to tolerance")
        return basis

    @property
    def p_bar(self) -> np.ndarray:
        return np.eye(self.dim) - self.p

    def band_eigenvalues(self) -> np.ndarray:
        return self._band_evals.copy()

    def excited_eigenvalues(self) -> np.ndarray:
        return self._excited_evals.copy()


def _require_unitary(u, tol: Tolerances, name: str = "U") -> np.ndarray:
    u = as_matrix(u, square=True)
    if not is_unitary(u, tol.unitarity * 100):
        raise ValueError(f"{name} is not unitary to tolerance")
    return u


def commutator_epsilon(u, band: BandSpec, spec: NormSpec = OPERATOR) -> float:
    """||[U, H]|| in the chosen norm: the epsilon of an approximate symmetry."""
    u = _require_unitary(u, band.tol)
    return schatten_kyfan_norm(u @ band.h - band.h @ u, spec)


def offdiag_norm(u, band: BandSpec, spec: NormSpec = OPERATOR) -> float:
    """||Pbar U P + P U Pbar||: the off-block-diagonal part of U with respect
    to the band.  Bounded by commutator_epsilon / gap for zero-width bands,
    with equality in the operator norm when H = gap * Pbar."""
    u = _require_unitary(u, band.tol)
    pb = band.p_bar
    return schatten_kyfan_norm(pb @ u @ band.p + band.p @ u @ pb, spec)


@dataclass
class GroundSymmetry:
    """A band symmetry constructed from an approximate symmetry U.

    full      : operator on the whole space commuting with P, unitary on the band
    on_band   : its restriction to the band basis (rank x rank unitary)
    xi        : (epsilon + width) / gap for the norm used
    epsilon   : measured ||[U, H]||
    dist_full_measured / dist_full_bound   : ||U - full|| vs xi + f(xi^2)
    dist_band_measured / dist_band_bound   : ||P (U - full) P|| vs f(xi^2)

    The measured distances are norms of the dense differences, evaluated on
    the rank x rank and 2 rank x 2 rank blocks that carry all their singular
    values (see `ground_symmetry`).
    """

    full: np.ndarray
    on_band: np.ndarray
    xi: float
    epsilon: float
    dist_full_measured: float
    dist_full_bound: float
    dist_band_measured: float
    dist_band_bound: float


def _band_norm(spec: NormSpec, band: BandSpec) -> NormSpec:
    """One unitarily invariant gauge usable on the ambient and band spaces at
    once: clamp k to the band rank.  On the band, (2, rank) is the Frobenius
    norm; the restriction bounds hold for any single such gauge applied to
    every quantity in the chain."""
    if spec.k <= band.rank:
        return spec
    return NormSpec(spec.p, band.rank)


def ground_symmetry(u, band: BandSpec, spec: NormSpec = OPERATOR,
                    slack: float = 1e-9) -> GroundSymmetry:
    """Construct the nearby band symmetry: polar-unitarize the band block of U
    and keep U on the complement.

    Requires xi = (epsilon + width) / gap < 1, which keeps the band block of U
    invertible (its singular values are at least 1 - f(xi^2) > 0).  The
    measured distances are checked against their certified bounds.  A spec
    with k above the band rank is clamped so the same norm applies on the
    band.

    With B the band basis (so P = B B^dag), A = B^dag U B, W its polar
    factor and thin QRs Pbar U B = Q_f R_f and Pbar U^dag B = Q_e R_e,

        full     = B W B^dag + Pbar U Pbar
                 = U - (U B) B^dag - B (U^dag B)^dag + B (A + W) B^dag,
        U - full = [B, Q_f] [[A - W, R_e^dag], [R_f, 0]] [B, Q_e]^dag.

    Everything is formed from U B, U^dag B and B in O(n^2 rank), with no
    n x n product.  The core's singular values depend on R_f and R_e only
    through R^dag R, so the outer factors may be taken with orthonormal
    columns: ||U - full|| is the norm of the 2 rank x 2 rank core and
    ||P (U - full) P|| = ||A - W||.
    """
    u = as_matrix(u, square=True)
    spec = _band_norm(spec, band)
    eps = commutator_epsilon(u, band, spec)  # also checks that U is unitary
    xi = (eps + band.width) / band.gap
    if xi >= 1.0:
        raise ValueError(
            f"xi = (epsilon + width)/gap = {xi:.6g} >= 1; restriction bounds are void"
        )
    basis = band.band_basis
    basis_h = basis.conj().T
    ub = u @ basis
    udb = u.conj().T @ basis
    block = basis_h @ ub
    w = polar_unitary(block)
    full = u - ub @ basis_h - basis @ (udb.conj().T - (block + w) @ basis_h)

    g = band.rank
    core = np.zeros((2 * g, 2 * g), dtype=complex)
    core[:g, :g] = block - w
    core[:g, g:] = np.linalg.qr(udb - basis @ block.conj().T, mode="r").conj().T
    core[g:, :g] = np.linalg.qr(ub - basis @ block, mode="r")

    fx = sqrt_defect(xi ** 2)
    dist_full = schatten_kyfan_norm(core, spec)
    dist_band = schatten_kyfan_norm(core[:g, :g], spec)
    bound_full = xi + fx
    bound_band = fx
    if dist_full > bound_full + slack or dist_band > bound_band + slack:
        raise ArithmeticError(
            "certified distance bound violated: "
            f"full {dist_full:.3e} vs {bound_full:.3e}, "
            f"band {dist_band:.3e} vs {bound_band:.3e}"
        )
    return GroundSymmetry(
        full=full,
        on_band=w,
        xi=xi,
        epsilon=eps,
        dist_full_measured=dist_full,
        dist_full_bound=bound_full,
        dist_band_measured=dist_band,
        dist_band_bound=bound_band,
    )


@dataclass
class RestrictionResult:
    """Band restrictions u, v of two approximate symmetries, the ground
    symmetries they come from, and the twisted commutation bookkeeping of the
    restriction."""

    u: np.ndarray
    v: np.ndarray
    alpha: float
    xi: float
    eps_u: float
    eps_v: float
    delta_in: float
    delta_out_bound: float
    delta_out_measured: float
    ground_u: GroundSymmetry
    ground_v: GroundSymmetry


def restrict_pair(u, v, band: BandSpec, alpha: float, spec: NormSpec = OPERATOR,
                  slack: float = 1e-8) -> RestrictionResult:
    """Restrict two approximate symmetries to the band and certify the twisted
    commutation value of the restrictions:

        || [[u, v]]_alpha || <= delta + 2 xi^2 + 4 f(xi^2),

    with xi = (max epsilon + width) / gap and delta the measured ambient
    twisted commutation value.  The measured restricted value is asserted
    against the bound (violation would indicate a numerical failure).  One
    gauge is used throughout: a spec with k above the band rank is clamped.
    """
    spec = _band_norm(spec, band)
    gs_u = ground_symmetry(u, band, spec)
    gs_v = ground_symmetry(v, band, spec)
    xi = max(gs_u.xi, gs_v.xi)
    delta_in = schatten_kyfan_norm(twisted_commutator(u, v, alpha), spec)
    bound = delta_in + 2.0 * xi ** 2 + 4.0 * sqrt_defect(xi ** 2)
    measured = schatten_kyfan_norm(
        twisted_commutator(gs_u.on_band, gs_v.on_band, alpha), spec
    )
    if measured > bound + slack:
        raise ArithmeticError(
            f"restricted twisted commutation value {measured:.6e} exceeds the "
            f"certified bound {bound:.6e}"
        )
    return RestrictionResult(
        u=gs_u.on_band,
        v=gs_v.on_band,
        alpha=alpha,
        xi=xi,
        eps_u=gs_u.epsilon,
        eps_v=gs_v.epsilon,
        delta_in=delta_in,
        delta_out_bound=bound,
        delta_out_measured=measured,
        ground_u=gs_u,
        ground_v=gs_v,
    )


def gibbs_transform(band: BandSpec, beta: float) -> BandSpec:
    """Replace H by I - exp(-beta H), which shares the band projector and has
    gap at least 1 - exp(-beta * gap).

    Commutation with the unnormalized Gibbs weight exp(-beta H) is commutation
    with the transformed Hamiltonian, so at beta = ln(2)/gap an approximate
    symmetry certifies against a fixed gap of 1/2 regardless of the original
    scale.  Computed by eigendecomposition of the Hermitian input.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    evals, evecs = np.linalg.eigh(band.h)
    transformed = 1.0 - np.exp(-beta * evals)
    h2 = (evecs * transformed) @ evecs.conj().T
    h2 = (h2 + h2.conj().T) / 2.0
    new_gap = 1.0 - np.exp(-beta * band.gap)
    return BandSpec(h2, band.p, gap=new_gap, width=None, tol=band.tol)
