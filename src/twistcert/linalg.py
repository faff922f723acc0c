"""Dense complex linear algebra kernels: twisted commutators, Schatten-Ky Fan
norms, eigensolvers with deterministic ordering, polar factors, and the
permutation-minimized spectral distance."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .config import EIG_RESIDUAL, INPUT_UNITARITY, NORMALITY, UNITARITY

__all__ = [
    "NormSpec",
    "EigDecomp",
    "as_matrix",
    "twisted_commutator",
    "schatten_kyfan_norm",
    "operator_norm",
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
    a = as_matrix(a, square=True)
    if a.shape[0] == 0:
        return np.array([], dtype=complex)
    vals = scipy.linalg.eigvals(a)
    return vals[_eig_order(vals)]


def right_eigenvector(a, target: complex) -> tuple[complex, np.ndarray, float]:
    """One right eigenvector for the eigenvalue of `a` nearest `target`.

    Returns (eigenvalue, unit vector, residual ||A x - lam x||_2).  The input
    need not be normal; the residual is reported rather than enforced.
    """
    a = as_matrix(a, square=True)
    vals, vecs = scipy.linalg.eig(a)
    idx = int(np.argmin(np.abs(vals - target)))
    lam = complex(vals[idx])
    x = vecs[:, idx]
    x = x / np.linalg.norm(x)
    resid = float(np.linalg.norm(a @ x - lam * x))
    return lam, x, resid


def polar_unitary(m) -> np.ndarray:
    """Unitary factor W of the polar decomposition M = W |M|, via SVD.

    W^dag M is positive semidefinite.  For singular M the null-space
    completion is the one induced by the SVD ordering (descending singular
    values), which is deterministic for a fixed input.  M may also be a
    (..., n, n) stack: one batched SVD then gives the stack of unitary
    factors, each equal to the 2-D call on its slice.
    """
    m = _as_square_stack(m)
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


def haar_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed n x n unitary, deterministic per seed.

    QR of a seeded complex Gaussian with the phase convention R_ii > 0.
    Accepts an int seed or a numpy Generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


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
