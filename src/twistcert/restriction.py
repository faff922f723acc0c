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

from .config import (BAND_WEIGHT, BOUND_SLACK, EIG_RESIDUAL, GROUND_SLACK, HERMITICITY,
                     PROJECTOR, SPECTRAL_REL)
from .linalg import (
    as_matrix,
    norm_at_most,
    norm_upper,
    operator_norm,
    polar_unitary,
    require_unitary,
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


def _check_hermitian(h: np.ndarray, scale: float) -> None:
    """ValueError unless ||H - H^dag||_2 <= config.HERMITICITY max(1, ||H||_2).
    `scale`, max(1, |lambda|) over some eigenvalues of sym(H), is at most that
    bound, so passing against it first passes the check."""
    skew = h - h.conj().T
    if not (norm_at_most(skew, HERMITICITY * scale) or norm_at_most(
            skew, HERMITICITY * max(1.0, float(np.linalg.norm(h, 2))))):
        raise ValueError("H is not Hermitian to tolerance")


class BandSpec:
    """A Hermitian H together with an orthogonal projector P onto a gapped
    band, the gap `gap` (distance of the complement spectrum from zero) and
    the width `width` = ||H P||_2 (norm of H on the band).

    A stated P is validated on construction, from one eigh of (H + H^dag) / 2:
      * H Hermitian, P an orthogonal projector (to tolerance),
      * each eigenvector of H lies in range(P) or its complement,
      * ||H P||_2 <= width  and  H^2 >= gap^2 (I - P).

    The tolerances are config.HERMITICITY, config.PROJECTOR and
    config.SPECTRAL_REL; relative ones scale with max(1, ||H||_2), read off the
    spectrum of (H + H^dag) / 2.  Each "||X||_2 <= t" check runs an SVD only
    when the Frobenius norm of X exceeds t.  The last two checks are first
    decided by bounds drawn from the eigensystem, with V the in-band
    eigenvectors and D = ||P - V V^dag||_F:

        ||H P||_2                       <= ||H V||_2 + ||H||_2 D,
        lambda_min(H^2 - gap^2 (I - P)) >= min_j (lambda_j^2 - gap^2 [j excited])
                                           - gap^2 D   (Weyl),

    each widened by a few n u ||H|| eigh backward errors (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 3).  Only when a bound leaves
    the decision open does the check run its dense form (the n x n SVD of
    H P, the eigvalsh of H^2 - gap^2 (I - P)), so every accept, reject and
    message is the one the dense checks give; an omitted width is always
    measured by that SVD.

    `lowest` and `gibbs_transform` validate bands on eigenpairs they already
    hold, without this constructor's eigh (see there).

    When `gap` or `width` is omitted it is computed from the spectrum.  A
    supplied gap may understate but never overstate the actual gap (the
    restriction bounds are vacuous otherwise); a supplied width may overstate
    but never understate ||H P||.
    """

    def __init__(self, h, p, gap: float | None = None, width: float | None = None):
        for name, value in (("gap", gap), ("width", width)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        h = as_matrix(h, square=True)
        p = as_matrix(p, square=True)
        if h.shape != p.shape:
            raise ValueError(f"dimension mismatch: H {h.shape} vs P {p.shape}")
        self.h = (h + h.conj().T) / 2.0
        self._validate(h, p, gap, width, *np.linalg.eigh(self.h))

    def _validate(self, h, p, gap, width, evals, evecs) -> None:
        """Validate the stated band P of the raw matrix h, with self.h its
        Hermitian part and (evals, evecs) the ascending eigensystem of self.h,
        and set every attribute but self.h."""
        scale = max(1.0, float(np.max(np.abs(evals))))
        _check_hermitian(h, scale)
        if not norm_at_most(p - p.conj().T, PROJECTOR):
            raise ValueError("P is not Hermitian to tolerance")
        if not norm_at_most(p @ p - p, PROJECTOR):
            raise ValueError("P is not idempotent to tolerance")

        self.p = (p + p.conj().T) / 2.0
        self.dim = h.shape[0]
        self.rank = int(round(float(np.trace(self.p).real)))
        if self.rank < 1:
            raise ValueError("band projector has rank 0")

        pe = self.p @ evecs
        weights = np.linalg.norm(pe, axis=0) ** 2
        mix = np.minimum(weights, 1.0 - weights)
        if np.max(mix) > BAND_WEIGHT:
            raise ValueError(
                "P is not a spectral projector for H: eigenvector band weight "
                f"{np.max(mix):.3e} away from {{0, 1}}"
            )
        in_band = weights > 0.5
        if int(np.sum(in_band)) != self.rank:
            raise ValueError("band eigenvector count does not match rank of P")
        self._band_evecs = evecs[:, in_band]
        # D = ||P - V V^dag||_F = ||P E - E [in band]||_F for unitary E
        pe[:, in_band] -= self._band_evecs
        defect = float(np.linalg.norm(pe))
        band_evals, excited_evals = evals[in_band], evals[~in_band]

        if excited_evals.size == 0:
            raise ValueError("band covers the whole space; no gapped complement")
        gap_actual = float(np.min(np.abs(excited_evals)))

        rel = SPECTRAL_REL
        # a margin for the eigensolve here and the dense check each bound
        # stands in for
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
        floor = min(float(np.min(band_evals ** 2)),
                    float(np.min(excited_evals ** 2 - self.gap ** 2)))
        if not (floor - self.gap ** 2 * defect - backward * scale >= -rel * scale ** 2):
            h2 = self.h @ self.h - self.gap ** 2 * (np.eye(self.dim) - self.p)
            min_eig = float(np.min(np.linalg.eigvalsh((h2 + h2.conj().T) / 2.0)))
            if min_eig < -rel * scale ** 2:
                raise ValueError("H^2 >= gap^2 (I - P) fails to tolerance")

    @classmethod
    def lowest(cls, h, rank: int) -> "BandSpec":
        """The band of the `rank` lowest eigenvalues of (H + H^dag) / 2, with
        gap = min |lambda| over the rest and width = max |lambda| over the
        band.  ValueError unless 0 < rank < n.

        One subset eigensolve (scipy.linalg.eigh, driver "evr") finds the
        rank + 1 lowest eigenpairs.  When lambda_rank < 0 the gap need not be
        lambda_rank, and the band of one full eigh is validated as a stated
        band.  Otherwise, as for every generated model, P = sym(V V^dag),
        gap = lambda_rank, width = max |lambda_0..lambda_{rank-1}| and
        scale = max(1, |lambda_0|, |lambda_rank|), and four O(n^2 rank)
        checks run: H Hermitian, ||V^dag V - I||_2 <= config.PROJECTOR,
        ||H V - V Lambda||_2 <= config.EIG_RESIDUAL scale (ArithmeticError
        for these two) and gap > 0.  They imply the stated band's other checks:
          * P is Hermitian: it is built as sym(V V^dag);
          * round(tr P) = rank >= 1 with a nonempty complement: tr P lies
            within rank PROJECTOR of rank, and 0 < rank < n holds;
          * the stated gap and width are read off the same eigenvalues, so
            comparing them with the actual ones checks nothing;
          * ||H P||_2 <= width: ||H V_band||_2 <= width sqrt(1 + PROJECTOR)
            + EIG_RESIDUAL scale, inside the width tolerance since
            EIG_RESIDUAL is below SPECTRAL_REL;
          * H^2 >= gap^2 (I - P): every eigenvalue past lambda_rank is at
            least lambda_rank = gap >= 0.
        """
        import scipy.linalg

        h = as_matrix(h, square=True)
        n = h.shape[0]
        rank = int(rank)
        if not 0 < rank < n:
            raise ValueError(f"band rank must lie in [1, {n - 1}], got {rank}")
        band = cls.__new__(cls)
        band.h = (h + h.conj().T) / 2.0
        evals, evecs = scipy.linalg.eigh(band.h, subset_by_index=[0, rank], driver="evr")
        full = evals[rank] < 0
        if full:
            evals, evecs = np.linalg.eigh(band.h)
        vecs = evecs[:, :rank]
        p = vecs @ vecs.conj().T
        p = (p + p.conj().T) / 2.0
        gap = float(np.min(np.abs(evals[rank:])))
        width = float(np.max(np.abs(evals[:rank])))
        if full:
            band._validate(h, p, gap, width, evals, evecs)
            return band

        scale = max(1.0, float(np.max(np.abs(evals))))
        _check_hermitian(h, scale)
        # P = V V^dag with V^dag V = I + E has P^2 - P = V E V^dag
        if not norm_at_most(evecs.conj().T @ evecs - np.eye(rank + 1), PROJECTOR):
            raise ArithmeticError("band eigenvectors are not orthonormal to tolerance")
        if not norm_at_most(band.h @ evecs - evecs * evals, EIG_RESIDUAL * scale):
            raise ArithmeticError("band eigenpair residual above tolerance")
        if gap <= 0:
            raise ValueError(f"gap must be positive, got {gap}")
        band.p, band.dim, band.rank, band._band_evecs = p, n, rank, vecs
        band.gap, band.width = gap, width
        return band

    @cached_property
    def band_basis(self) -> np.ndarray:
        """Orthonormal basis of range(P), dim x rank: the QR factor of P V,
        where V holds the in-band eigenvectors of H found on construction.
        All band restrictions use this basis; they depend on it only up to a
        unitary change of basis within the band.

        Checked by ||P B - B||_2 <= config.EIG_RESIDUAL, the residual bound
        the normal eigensolver applies (||P||_2 is 1 up to config.PROJECTOR)."""
        basis, _ = np.linalg.qr(self.p @ self._band_evecs)
        if not norm_at_most(self.p @ basis - basis, EIG_RESIDUAL):
            raise ArithmeticError("band basis is not invariant under P to tolerance")
        return basis

    @property
    def p_bar(self) -> np.ndarray:
        return np.eye(self.dim) - self.p


def commutator_epsilon(u, band: BandSpec) -> float:
    """||[U, H]||_2: the epsilon of an approximate symmetry, an upper bound
    proven by `linalg.norm_upper`, at most 1e-9 relative above the true value
    for n <= 1000."""
    u = require_unitary(u, "U")
    return norm_upper(u @ band.h - band.h @ u)


def offdiag_norm(u, band: BandSpec) -> float:
    """||Pbar U P + P U Pbar||_2: the off-block-diagonal part of U with
    respect to the band.  Bounded by commutator_epsilon / gap for zero-width
    bands, with equality when H = gap * Pbar."""
    u = require_unitary(u, "U")
    pb = band.p_bar
    return operator_norm(pb @ u @ band.p + band.p @ u @ pb)


@dataclass
class GroundSymmetry:
    """A band symmetry constructed from an approximate symmetry U: the
    operator S = B W B^dag + Pbar U Pbar, with B the band basis and W the
    polar factor of the band block B^dag U B.  S commutes with P, acts
    unitarily on the band and equals U on the complement; only W is kept.

    on_band   : W (rank x rank unitary)
    xi        : (epsilon + width) / gap
    epsilon   : ||[U, H]||_2, a proven upper bound (`commutator_epsilon`)
    dist_full_measured / dist_full_bound   : ||U - S|| vs xi + f(xi^2)
    dist_band_measured / dist_band_bound   : ||P (U - S) P|| vs f(xi^2)

    The measured distances are norms of the dense differences, evaluated on
    the rank x rank and 2 rank x 2 rank blocks that carry all their singular
    values (see `ground_symmetry`).
    """

    on_band: np.ndarray
    xi: float
    epsilon: float
    dist_full_measured: float
    dist_full_bound: float
    dist_band_measured: float
    dist_band_bound: float


def ground_symmetry(u, band: BandSpec) -> GroundSymmetry:
    """Construct the nearby band symmetry S (see GroundSymmetry):
    polar-unitarize the band block of U and keep U on the complement.

    Requires xi = (epsilon + width) / gap < 1, which keeps the band block of U
    invertible (its singular values are at least 1 - f(xi^2) > 0).  The
    measured distances are checked against their certified bounds, with
    allowance config.GROUND_SLACK.

    With B the band basis (so P = B B^dag), A = B^dag U B, W its polar
    factor and thin QRs Pbar U B = Q_f R_f and Pbar U^dag B = Q_e R_e,

        U - S = [B, Q_f] [[A - W, R_e^dag], [R_f, 0]] [B, Q_e]^dag.

    Everything is formed from U B, U^dag B and B in O(n^2 rank), and S
    itself is never formed.  The core's singular values depend on R_f and
    R_e only through R^dag R, so the outer factors may be taken with
    orthonormal columns: ||U - S|| is the norm of the 2 rank x 2 rank core
    and ||P (U - S) P|| = ||A - W||.
    """
    u = as_matrix(u, square=True)
    eps = commutator_epsilon(u, band)  # also checks that U is unitary
    xi = (eps + band.width) / band.gap
    if xi >= 1.0:
        raise ValueError(
            f"xi = (epsilon + width)/gap = {xi:.6g} >= 1; restriction bounds are void"
        )
    basis = band.band_basis
    ub = u @ basis
    udb = u.conj().T @ basis
    block = basis.conj().T @ ub
    w = polar_unitary(block)

    g = band.rank
    core = np.zeros((2 * g, 2 * g), dtype=complex)
    core[:g, :g] = block - w
    core[:g, g:] = np.linalg.qr(udb - basis @ block.conj().T, mode="r").conj().T
    core[g:, :g] = np.linalg.qr(ub - basis @ block, mode="r")

    fx = sqrt_defect(xi ** 2)
    dist_full = operator_norm(core)
    dist_band = operator_norm(core[:g, :g])
    bound_full = xi + fx
    bound_band = fx
    if dist_full > bound_full + GROUND_SLACK or dist_band > bound_band + GROUND_SLACK:
        raise ArithmeticError(
            "certified distance bound violated: "
            f"full {dist_full:.3e} vs {bound_full:.3e}, "
            f"band {dist_band:.3e} vs {bound_band:.3e}"
        )
    return GroundSymmetry(
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


def restrict_pair(u, v, band: BandSpec, alpha: float) -> RestrictionResult:
    """Restrict two approximate symmetries to the band and certify the twisted
    commutation value of the restrictions:

        || [[u, v]]_alpha || <= delta + 2 xi^2 + 4 f(xi^2),

    with xi = (max epsilon + width) / gap and delta the measured ambient
    twisted commutation value, all in the operator norm.  Epsilon and delta
    are upper bounds proven by `linalg.norm_upper` (at most 1e-9 relative
    above the true values for n <= 1000), so no SVD rounding can understate
    the budget.  The measured restricted value is asserted against the bound
    with allowance config.BOUND_SLACK (violation would indicate a numerical
    failure).
    """
    gs_u = ground_symmetry(u, band)
    gs_v = ground_symmetry(v, band)
    xi = max(gs_u.xi, gs_v.xi)
    delta_in = norm_upper(twisted_commutator(u, v, alpha))
    bound = delta_in + 2.0 * xi ** 2 + 4.0 * sqrt_defect(xi ** 2)
    measured = operator_norm(twisted_commutator(gs_u.on_band, gs_v.on_band, alpha))
    if measured > bound + BOUND_SLACK:
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
    scale.  Computed by one eigendecomposition of the Hermitian input: since
    f(lambda) = 1 - exp(-beta lambda) is increasing, (f(lambda), V) is already
    the ascending eigensystem of the new H, and the new band is validated on
    it as a stated band.
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    evals, evecs = np.linalg.eigh(band.h)
    transformed = 1.0 - np.exp(-beta * evals)
    h2 = (evecs * transformed) @ evecs.conj().T
    new = BandSpec.__new__(BandSpec)
    new.h = (h2 + h2.conj().T) / 2.0
    new._validate(new.h, band.p, 1.0 - np.exp(-beta * band.gap), None, transformed, evecs)
    return new
