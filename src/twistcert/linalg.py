"""Dense complex linear algebra kernels: twisted commutators, Schatten-Ky Fan
norms, eigensolvers with deterministic ordering, polar factors, and the
permutation-minimized spectral distance.

scipy is imported inside the functions that call it, so that a process loads
only the scipy it uses: certify --alpha/--delta, check, mountains and minima
load none, and skip the half second that importing it costs."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .config import (EIG_RESIDUAL, INPUT_UNITARITY, NORM_LANCZOS_BREAKDOWN,
                     NORM_LANCZOS_STEPS, NORM_SVD_BELOW, NORM_WIDENING, NORM_WIDENING_MAX,
                     NORMALITY, UNITARITY)

__all__ = [
    "NormSpec",
    "EigDecomp",
    "as_matrix",
    "twisted_commutator",
    "schatten_kyfan_norm",
    "operator_norm",
    "norm_upper",
    "spectral_distance",
    "normality_defect",
    "is_normal",
    "eig_normal",
    "eig_general",
    "right_eigenvector",
    "polar_unitary",
    "norm_at_most",
    "is_unitary",
    "require_unitary",
    "haar_unitary",
]


def as_matrix(a, square: bool = False) -> np.ndarray:
    """Coerce to a 2-D complex array and validate finiteness."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return _checked(m, square)


def _as_square_stack(a) -> np.ndarray:
    """Coerce to a complex (..., n, n) array, a matrix or a stack of them,
    and validate finiteness and squareness."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got shape {m.shape}")
    return _checked(m, True)


def _checked(m: np.ndarray, square: bool) -> np.ndarray:
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    if square and m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class NormSpec:
    """A (p, k) Schatten-Ky Fan norm: the p-norm of the k largest singular
    values.  p = inf gives the operator norm; (2, dim) the Frobenius norm."""

    p: float
    k: int

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    @classmethod
    def operator(cls) -> "NormSpec":
        return cls(p=math.inf, k=1)

    def validate_for(self, m: np.ndarray) -> None:
        if self.k > min(m.shape):
            raise ValueError(
                f"k = {self.k} exceeds the matrix rank bound {min(m.shape)}"
            )


OPERATOR = NormSpec.operator()


def twisted_commutator(x, y, alpha: float) -> np.ndarray:
    """X @ Y - exp(2 pi i alpha) * Y @ X.

    alpha = 0 is the commutator, alpha = 1/2 the anticommutator.  X and Y may
    also be equal-shape (..., n, n) stacks; the result is then the stack of
    the slice-wise commutators, each equal to the 2-D call on its slices.
    """
    x = _as_square_stack(x)
    y = _as_square_stack(y)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return x @ y - np.exp(2j * np.pi * alpha) * (y @ x)


def schatten_kyfan_norm(m, spec: NormSpec) -> float:
    """(sum of the k largest singular values to the p-th power)^(1/p).

    For p = inf returns the largest singular value regardless of k.
    """
    m = as_matrix(m)
    spec.validate_for(m)
    sv = np.linalg.svd(m, compute_uv=False)
    if math.isinf(spec.p):
        return float(sv[0]) if sv.size else 0.0
    top = sv[: spec.k]
    return float(np.sum(top ** spec.p) ** (1.0 / spec.p))


def operator_norm(m) -> float:
    return schatten_kyfan_norm(m, OPERATOR)


_UNIT = 2.0 ** -53  # unit roundoff of IEEE double


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u)."""
    return k * _UNIT / (1.0 - k * _UNIT)


def _lanczos_max(c: np.ndarray) -> float:
    """lambda_max estimated from below for the Hermitian -c: the largest
    Ritz value of a fully reorthogonalised Lanczos run from a fixed-seed
    random start (Kuczynski and Wozniakowski, SIAM J. Matrix Anal. Appl. 13
    (1992)).  The run stops early when the Krylov space is invariant, judged
    relative to the largest Lanczos diagonal entry, not by an absolute floor."""
    import scipy.linalg

    d = c.shape[0]
    steps = min(d, int(NORM_LANCZOS_STEPS))
    rng = np.random.default_rng(0)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    basis = np.empty((d, steps), dtype=complex, order="F")
    gemv = scipy.linalg.blas.zgemv
    diag, offdiag = [], []
    for j in range(steps):
        basis[:, j] = v
        w = gemv(-1.0, c, v)
        diag.append(float(np.vdot(v, w).real))
        q = basis[:, : j + 1]
        for _ in range(2):  # classical Gram-Schmidt twice: orthogonal to working precision
            w = gemv(-1.0, q, gemv(1.0, q, w, trans=2), beta=1.0, y=w, overwrite_y=1)
        beta = float(np.linalg.norm(w))
        if j + 1 == steps or beta <= NORM_LANCZOS_BREAKDOWN * max(diag):
            break
        offdiag.append(beta)
        v = w / beta
    k = len(diag) - 1
    return float(scipy.linalg.eigvalsh_tridiagonal(
        np.array(diag), np.array(offdiag), select="i", select_range=(k, k))[0])


def _svd_estimate(x: np.ndarray) -> float:
    """sigma_1(X)^2 from a dense SVD: norm_upper's estimate below
    config.NORM_SVD_BELOW and its fallback when a Lanczos estimate fails."""
    return float(np.linalg.svd(x, compute_uv=False)[0]) ** 2


def _widenings():
    """config.NORM_WIDENING, 100 times it, ..., up to config.NORM_WIDENING_MAX."""
    eta = NORM_WIDENING
    while eta < NORM_WIDENING_MAX:
        yield eta
        eta *= 100.0
    yield NORM_WIDENING_MAX


def _negated_gram(y: np.ndarray, trans: int) -> np.ndarray:
    """-y y^dag (trans 0) or -y^dag y (trans 2) by BLAS zherk, with the lower
    triangle filled in by blocks so that the result is the whole Hermitian
    matrix; negation is exact, and zherk reads and writes one buffer."""
    import scipy.linalg

    c = scipy.linalg.blas.zherk(-1.0, y, trans=trans)
    d = c.shape[0]
    for j in range(0, d, 64):
        e = min(j + 64, d)
        block = c[j:e, j:e]
        block[...] = np.triu(block) + np.triu(block, 1).conj().T
        c[e:, j:e] = c[j:e, e:].conj().T
    return c


def norm_upper(x) -> float:
    """A proven upper bound on ||X||_2.  It exceeds ||X||_2 by at most
    about eta / 2 + (2d + 4) d u relative (u the unit roundoff; eta the
    widening that proved it, see below): under 1e-9 for d <= 1000, and about
    2e-11 at d = 300 when the first widening proves it.

    With C the Gram X^dag X or X X^dag, whichever is smaller (d x d, inner
    products of length k), formed once by BLAS zherk into one buffer, an
    estimate lam of lambda_max(C) is widened to s = lam (1 + eta) and
    s I - C is factored in place by LAPACK potrf.  A Cholesky that runs to
    completion proves lambda_max(C) <= s + margin (Rump, "Verification of
    positive definiteness", BIT 46 (2006)).  The margin holds the Cholesky
    backward error gamma_{2d+4} tr(s I - C), the rounding of the shifted
    diagonal and the Gram's own rounding gamma_{2k+4} ||X||_F^2 (complex
    inner products; Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 3 and 10).  The bound is sqrt(s + margin), rounded upward.

    The estimate is a Lanczos run on C (`_lanczos_max`), or the SVD's
    sigma_1^2 when d < config.NORM_SVD_BELOW.  Each estimate is tried with
    the widenings eta from config.NORM_WIDENING to config.NORM_WIDENING_MAX,
    and a Lanczos estimate that none of them proves falls back to the SVD's.
    ArithmeticError when no proof succeeds: an unproven number is never
    returned.  X = 0 gives 0.0.  X is scaled by a power of two when its
    largest column norm leaves [2^-200, 2^200], so that neither the Gram
    nor the squared norms of the Lanczos vectors overflow or underflow.
    """
    import scipy.linalg

    x = as_matrix(x)
    if x.size == 0:
        return 0.0
    # y y^dag = conj(X^dag X) and y^dag y = conj(X X^dag): the Grams' spectra
    trans = 0 if x.shape[1] <= x.shape[0] else 2
    d, k = min(x.shape), max(x.shape)
    c = _negated_gram(x.T, trans)
    top = -float(np.min(c.diagonal().real))  # the largest squared column norm
    shift = 0
    lost = 0.0
    if not 2.0 ** -400 <= top <= 2.0 ** 400:
        x = np.ascontiguousarray(x)
        big = float(np.max(np.abs(x.view(np.float64))))
        if big == 0.0:
            return 0.0
        # exact unless an entry underflows: each such real part moves by at
        # most 2^-1075, so ||X||_2 moves by at most sqrt(m n) 2^-1074
        shift = math.frexp(big)[1]
        x = np.ldexp(x.view(np.float64), -shift).view(np.complex128)
        lost = math.sqrt(x.size) * 2.0 ** -1074
        c = _negated_gram(x.T, trans)
    cdiag = -c.diagonal().real
    # ||X||_F^2 from above times the Gram's rounding; the floor covers
    # underflow in zherk and potrf, and lies below 2^-590 relative to
    # ||X||_2^2, which is at least the largest squared column norm 2^-400
    gram_err = _gamma(2 * k + 4) * float(np.sum(cdiag)) * (1.0 + _gamma(2 * k + d + 4))
    floor = (k + d + 4) ** 2 * 2.0 ** -1021
    chol = _gamma(2 * d + 4)

    def estimates():
        if d >= NORM_SVD_BELOW:
            yield _lanczos_max(c)  # before any proof overwrites c
        yield _svd_estimate(x)

    dirty = False
    for estimate in estimates():
        # lambda_max(C) is at least its largest diagonal entry
        lam = max(estimate, float(np.max(cdiag)))
        for eta in _widenings():
            if dirty:
                c = _negated_gram(x.T, trans)
            s = lam * (1.0 + eta)
            shifted = s - cdiag
            c.flat[:: d + 1] = shifted
            _, info = scipy.linalg.lapack.zpotrf(c, lower=0, clean=0, overwrite_a=1)
            dirty = True
            if info != 0:
                continue
            # s I - C = M - D with M the factored matrix and |D_ii| <= 2 u |M_ii|;
            # each term is evaluated to within a few ulps, which 1.01 covers
            margin = 1.01 * (2.0 * _UNIT * float(np.max(np.abs(shifted)))
                             + 2.0 * chol * float(np.sum(np.abs(shifted)))
                             + gram_err + floor)
            t = math.nextafter(math.sqrt(math.nextafter(s + margin, math.inf)), math.inf)
            if shift:
                try:
                    t = math.ldexp(math.nextafter(t + lost, math.inf), shift)
                except OverflowError:
                    return math.inf
                if t < sys.float_info.min:
                    t = math.nextafter(t, math.inf)
            return t
    raise ArithmeticError("no Cholesky proof of an upper bound on ||X||_2 succeeded")


def normality_defect(a) -> float:
    """Relative normality defect ||A^*A - AA^*||_F / ||A||_F^2."""
    a = as_matrix(a, square=True)
    scale = np.linalg.norm(a) ** 2
    if scale == 0.0:
        return 0.0
    ah = a.conj().T
    return float(np.linalg.norm(ah @ a - a @ ah) / scale)


def is_normal(a) -> bool:
    return normality_defect(a) <= NORMALITY


def _eig_order(vals: np.ndarray) -> np.ndarray:
    """Deterministic eigenvalue ordering: descending magnitude, then
    descending real part, then descending imaginary part."""
    return np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))


@dataclass
class EigDecomp:
    """Eigendecomposition of a normal matrix with orthonormal eigenvectors
    (columns) and the worst-case residual max_j ||A x_j - lam_j x_j||_2."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float = field(default=0.0)


def eig_normal(a) -> EigDecomp:
    """Eigendecomposition of a normal matrix via a complex Schur reduction.

    The Schur form of a normal matrix is diagonal, so the Schur basis is an
    orthonormal eigenbasis even across degenerate eigenvalues.  Rejects
    matrices whose relative normality defect exceeds config.NORMALITY, and
    fails when a residual exceeds config.EIG_RESIDUAL * max(1, ||A||_2).
    """
    import scipy.linalg

    a = as_matrix(a, square=True)
    defect = normality_defect(a)
    if defect > NORMALITY:
        raise ValueError(
            f"matrix is not normal: relative defect {defect:.3e} > {NORMALITY:.1e}"
        )
    if a.shape[0] == 0:
        return EigDecomp(np.array([], dtype=complex), a.copy(), 0.0)
    t, q = scipy.linalg.schur(a, output="complex")
    vals = np.diag(t).copy()
    order = _eig_order(vals)
    vals = vals[order]
    vecs = q[:, order]
    resid = float(np.max(np.linalg.norm(a @ vecs - vecs * vals, axis=0)))
    if resid > EIG_RESIDUAL * max(1.0, float(np.linalg.norm(a, 2))):
        raise ArithmeticError(
            f"normal eigendecomposition residual {resid:.3e} above tolerance"
        )
    return EigDecomp(vals, vecs, resid)


def eig_general(a) -> np.ndarray:
    """Eigenvalues of a general square matrix (Schur-type reduction),
    deterministically ordered."""
    import scipy.linalg

    a = as_matrix(a, square=True)
    if a.shape[0] == 0:
        return np.array([], dtype=complex)
    vals = scipy.linalg.eigvals(a)
    return vals[_eig_order(vals)]


def right_eigenvector(a, target: complex) -> tuple[complex, np.ndarray]:
    """One right eigenvector for the eigenvalue of `a` nearest `target`.

    Returns (eigenvalue, unit vector).  The input need not be normal, and
    the residual ||A x - lam x||_2 is left to the caller.
    """
    import scipy.linalg

    a = as_matrix(a, square=True)
    vals, vecs = scipy.linalg.eig(a)
    idx = int(np.argmin(np.abs(vals - target)))
    lam = complex(vals[idx])
    x = vecs[:, idx]
    return lam, x / np.linalg.norm(x)


def polar_unitary(m) -> np.ndarray:
    """Unitary factor W of the polar decomposition M = W |M|, via SVD.

    W^dag M is positive semidefinite.  For singular M the null-space
    completion is the one induced by the SVD ordering (descending singular
    values), which is deterministic for a fixed input.
    """
    m = as_matrix(m, square=True)
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def norm_at_most(x, t: float) -> bool:
    """Whether ||X||_2 <= t.

    The Frobenius norm bounds the 2-norm, so a Frobenius norm at most t
    settles the question without a factorization; only otherwise is the
    2-norm computed by SVD.  The answer is the one the SVD alone would give.
    """
    if np.linalg.norm(x) <= t:
        return True
    return bool(np.linalg.norm(x, 2) <= t)


def is_unitary(m, tol: float | None = None) -> bool:
    """Whether M is square with ||M^dag M - I||_2 <= tol (default
    config.UNITARITY), decided by `norm_at_most`: an SVD runs only when the
    Frobenius norm of the defect exceeds tol."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    tol = UNITARITY if tol is None else tol
    eye = np.eye(m.shape[0])
    return norm_at_most(m.conj().T @ m - eye, tol)


def require_unitary(m, name: str) -> np.ndarray:
    """M as a square complex matrix, provided ||M^dag M - I||_2 <=
    config.INPUT_UNITARITY; otherwise ValueError naming it."""
    m = as_matrix(m, square=True)
    if not is_unitary(m, INPUT_UNITARITY):
        raise ValueError(f"{name} is not unitary to tolerance")
    return m


def _haar_from_normals(x: np.ndarray) -> np.ndarray:
    """The Haar unitaries of an (..., 2, n, n) stack of standard normals,
    real parts before imaginary ones: the Q factor of each complex Gaussian
    (x[..., 0] + i x[..., 1]) / sqrt(2), by one batched QR, with the phase
    convention R_ii > 0.  Returns the (..., n, n) stack; each slice equals
    the call on that slice alone."""
    z = (x[..., 0, :, :] + 1j * x[..., 1, :, :]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed n x n unitary, deterministic per seed.

    QR of a seeded complex Gaussian with the phase convention R_ii > 0
    (`_haar_from_normals`), the real part drawn before the imaginary one.
    Accepts an int seed or a numpy Generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return _haar_from_normals(rng.standard_normal((2, n, n)))


def _require_normal_pair(a, b):
    a = as_matrix(a, square=True)
    b = as_matrix(b, square=True)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    for name, m in (("first", a), ("second", b)):
        defect = normality_defect(m)
        if defect > NORMALITY:
            raise ValueError(f"{name} argument is not normal (defect {defect:.3e})")
    return a, b


def _bottleneck_assignment(cost: np.ndarray) -> float:
    """Minimal over permutations of the maximal cost entry, by bisection over
    the distinct costs with a bipartite perfect-matching test."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    n = cost.shape[0]
    levels = np.unique(cost)
    lo, hi = 0, len(levels) - 1

    def feasible(threshold: float) -> bool:
        mask = csr_matrix((cost <= threshold).astype(np.int8))
        match = maximum_bipartite_matching(mask, perm_type="column")
        return bool(np.all(match >= 0))

    if feasible(levels[lo]):
        return float(levels[lo])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(levels[mid]):
            hi = mid
        else:
            lo = mid
    return float(levels[hi])


def spectral_distance(a, b, p: float = 2.0) -> float:
    """Distance between the spectra of two normal matrices, minimized over
    all pairings of eigenvalues:

        min_sigma ( sum_j |lam_sigma(j)(A) - lam_j(B)|^p )^(1/p)

    Solved exactly: Hungarian assignment on the cost |lam_i - mu_j|^p for
    finite p, bottleneck assignment for p = inf.
    """
    from scipy.optimize import linear_sum_assignment

    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    a, b = _require_normal_pair(a, b)
    la = eig_general(a)
    lb = eig_general(b)
    diff = np.abs(la[:, None] - lb[None, :])
    if math.isinf(p):
        return _bottleneck_assignment(diff)
    cost = diff ** p
    rows, cols = linear_sum_assignment(cost)
    return float(np.sum(cost[rows, cols]) ** (1.0 / p))
