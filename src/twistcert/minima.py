"""The minimum possible twisted commutation value over unitary pairs of a
given dimension, its closed form for (p, k) Schatten-Ky Fan norms with p >= 2,
the clock/shift family that saturates it, and a gradient-descent oracle for
the underlying minimization over pairs of unitaries."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    NormSpec,
    OPERATOR,
    haar_unitary,
    operator_norm,
    polar_unitary,
    require_unitary,
    schatten_kyfan_norm,
    twisted_commutator,
)

__all__ = [
    "TwistedPair",
    "round_half_away",
    "lambda_min",
    "lambda_upper_bound",
    "excluded_dimensions",
    "clock_matrix",
    "shift_matrix",
    "optimal_pair",
    "optimal_angles",
    "permutation_cost",
    "brute_min",
]


def round_half_away(x: float) -> int:
    """Nearest integer with half-integers rounded away from zero.

    At a tie |x - round(x)| = 1/2 either way, so the minimum value below is
    unaffected; only the saturating shift exponent depends on the convention.
    """
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


@dataclass
class TwistedPair:
    """Two unitaries with a twisting parameter and their measured
    twisted commutation value (operator norm)."""

    u: np.ndarray
    v: np.ndarray
    alpha: float
    eta: complex = field(init=False)
    delta: float = field(init=False)

    def __post_init__(self):
        self.u = require_unitary(self.u, "u")
        self.v = require_unitary(self.v, "v")
        if self.u.shape != self.v.shape:
            raise ValueError("twisted pair members must have equal dimension")
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha}")
        self.eta = complex(np.exp(2j * np.pi * self.alpha))
        self.delta = operator_norm(self.commutator())

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    def commutator(self) -> np.ndarray:
        return twisted_commutator(self.u, self.v, self.alpha)


def lambda_min(g: int, alpha: float, spec: NormSpec = OPERATOR) -> float:
    """Closed-form minimum of || [[u, v]]_alpha ||_(p,k) over unitary pairs of
    dimension g, valid for p >= 2:

        2 k^(1/p) sin(pi |round(g alpha) - g alpha| / g)

    Zero exactly when g * alpha is an integer.  The twist is reduced with
    math.fmod(alpha, 1.0) before g alpha is formed: fmod is exact, so the
    value is that of alpha itself, and g alpha cannot overflow (alpha = 1e308
    is an integer twist, with floor 0).
    """
    if g < 1:
        raise ValueError(f"dimension must be positive, got {g}")
    if spec.p < 2.0:
        raise ValueError(f"closed form requires p >= 2, got p = {spec.p}")
    if spec.k > g:
        raise ValueError(f"k = {spec.k} exceeds dimension {g}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    alpha = math.fmod(alpha, 1.0)
    m = round_half_away(g * alpha)
    prefactor = 1.0 if math.isinf(spec.p) else spec.k ** (1.0 / spec.p)
    return float(2.0 * prefactor * np.sin(np.pi * abs(m - g * alpha) / g))


def lambda_upper_bound(g: int, spec: NormSpec = OPERATOR) -> float:
    """Twist-independent upper bound 2 k^(1/p) sin(pi / 2g), from
    |x - round(x)| <= 1/2."""
    prefactor = 1.0 if math.isinf(spec.p) else spec.k ** (1.0 / spec.p)
    return float(2.0 * prefactor * np.sin(np.pi / (2.0 * g)))


def excluded_dimensions(delta: float, alpha: float, g_max: int,
                        spec: NormSpec = OPERATOR) -> list[int]:
    """Dimensions g <= g_max that are impossible for a unitary pair whose
    twisted commutation value is delta: those with delta < lambda_min(g).

    The minimum is not monotone in g, so this is a classification rather than
    a single threshold.  For k > g the norm is evaluated with k clamped to g.
    """
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    out = []
    for g in range(1, g_max + 1):
        eff = NormSpec(spec.p, min(spec.k, g))
        if delta < lambda_min(g, alpha, eff):
            out.append(g)
    return out


def clock_matrix(g: int) -> np.ndarray:
    """diag(1, w, w^2, ..., w^(g-1)) with w = exp(2 pi i / g)."""
    if g < 1:
        raise ValueError(f"dimension must be positive, got {g}")
    omega = np.exp(2j * np.pi / g)
    return np.diag(omega ** np.arange(g))


def shift_matrix(g: int) -> np.ndarray:
    """The cyclic permutation |j> -> |j + 1 mod g>."""
    if g < 1:
        raise ValueError(f"dimension must be positive, got {g}")
    s = np.zeros((g, g), dtype=np.complex128)
    s[(np.arange(g) + 1) % g, np.arange(g)] = 1.0
    return s


def optimal_pair(g: int, alpha: float) -> TwistedPair:
    """The clock/shift pair (C, S^round(g alpha)) saturating lambda_min.

    With C = diag(w^j) and S the increment permutation, C S^k = w^k S^k C, so
    the twisted commutator of (C, S^k) at twist alpha is (w^k - eta) S^k C and
    its norm is minimized by k = round(g alpha).  The commutator is a scalar
    multiple of a unitary, so its singular values are flat and the (p, k) norm
    equals lambda_min for every p >= 2 and k <= g.  At a rounding tie both
    candidate exponents saturate.
    """
    m = round_half_away(g * alpha)
    c = clock_matrix(g)
    s = shift_matrix(g)
    v = np.linalg.matrix_power(s, m % g)
    return TwistedPair(u=c, v=v, alpha=alpha)


def optimal_angles(g: int, alpha: float) -> np.ndarray:
    """The minimizing eigenvalue angles for the cyclic pairing:
    theta_j = 2 pi round(g alpha) (j - 1) / g, j = 1..g (theta_1 = 0 gauge),
    evenly spaced with step 2 pi round(g alpha) / g."""
    m = round_half_away(g * alpha)
    return 2.0 * np.pi * m * np.arange(g) / g


def permutation_cost(angles, alpha: float, perm=None) -> float:
    """Sum of squared chord lengths sum_j 4 sin^2((theta_perm(j) - theta_j -
    2 pi alpha)/2); perm defaults to the cyclic shift j -> j+1.

    The square root of its minimum over angles is the spectral-distance lower
    bound on the Frobenius twisted commutation value.
    """
    theta = np.asarray(angles, dtype=float)
    g = theta.size
    if perm is None:
        perm = (np.arange(g) + 1) % g
    perm = np.asarray(perm, dtype=int)
    return float(np.sum(4.0 * np.sin((theta[perm] - theta - 2.0 * np.pi * alpha) / 2.0) ** 2))


def _fro2(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of an (..., n, n) stack."""
    return np.sum(x.real ** 2 + x.imag ** 2, axis=(-2, -1))


def _descend(u: np.ndarray, v: np.ndarray, alpha: float,
             iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient descent on the smooth Frobenius-squared objective
    ||u v - eta v u||_F^2, with polar retraction to the unitary group and a
    backtracking line search, run on every pair of the (R, g, g) stacks u, v
    at once.  Frobenius minimizers have flat-spectrum twisted commutators,
    so they minimize every (p, k) norm simultaneously.

    Each restart keeps its own step (starting at 0.25), accepted-step
    count, value and gradient.  A round gives every active restart one
    trial: all trials of the round share one polar retraction (a batched
    SVD), one commutator and one Armijo test.  An accepted trial grows the step by 1.3 (capped at 1)
    and refreshes that restart's gradient; a rejected one halves the step.
    A restart stops after `iters` accepted steps, at a vanishing gradient,
    or once its step falls to 1e-14.  Every slice is computed on its own, so
    a restart follows the same path whichever restarts share the stacks.
    Returns new stacks; the inputs are not modified.
    """
    eta = np.exp(2j * np.pi * alpha)
    u, v = u.copy(), v.copy()
    t = twisted_commutator(u, v, alpha)
    fval = _fro2(t)
    step = np.full(u.shape[0], 0.25)
    taken = np.zeros(u.shape[0], dtype=int)
    gu, gv = np.empty_like(u), np.empty_like(v)
    gnorm2 = np.empty(u.shape[0])
    active = np.ones(u.shape[0], dtype=bool)
    stale = active.copy()  # gradient out of date: the last trial was accepted
    while True:
        active &= taken < iters
        new = np.flatnonzero(active & stale)
        if new.size:
            tn = t[new]
            uh = u[new].conj().swapaxes(-1, -2)
            vh = v[new].conj().swapaxes(-1, -2)
            gu[new] = tn @ vh - np.conj(eta) * (vh @ tn)
            gv[new] = uh @ tn - np.conj(eta) * (tn @ uh)
            gnorm2[new] = _fro2(gu[new]) + _fro2(gv[new])
            active[new] = gnorm2[new] >= 1e-30
        active &= step > 1e-14
        idx = np.flatnonzero(active)
        if not idx.size:
            return u, v
        s = step[idx, None, None]
        w = polar_unitary(np.stack((u[idx] - s * gu[idx], v[idx] - s * gv[idx])))
        t2 = twisted_commutator(w[0], w[1], alpha)
        f2 = _fro2(t2)
        ok = f2 <= fval[idx] - 1e-4 * step[idx] * gnorm2[idx]
        acc = idx[ok]
        u[acc], v[acc], t[acc], fval[acc] = w[0, ok], w[1, ok], t2[ok], f2[ok]
        step[acc] = np.minimum(step[acc] * 1.3, 1.0)
        step[idx[~ok]] *= 0.5
        taken[acc] += 1
        stale[:] = False
        stale[acc] = True


def brute_min(g: int, alpha: float, spec: NormSpec = OPERATOR,
              restarts: int = 50, seed: int = 0, iters: int = 300,
              trace: bool = False):
    """Locally minimize the twisted commutation value over pairs of g x g
    unitaries by seeded random restarts and projected descent.

    One-sided oracle for the closed form: the returned value can never fall
    below lambda_min (up to numerical tolerance).  Restart r starts from Haar
    unitaries u0, v0 drawn in that order from default_rng([seed, r]), so runs
    are reproducible.  All restarts descend together as one (restarts, g, g)
    stack, but independently: restart r ends on the same pair whatever the
    number of restarts.  Restricted to 1 <= g <= 4; the cost grows quickly
    beyond desk scale.

    Returns the best value found in the requested norm; with trace=True also
    returns the list of final (u, v) pairs, one per restart, as views into
    one stack.
    """
    if not 1 <= g <= 4:
        raise ValueError(f"brute_min is restricted to 1 <= g <= 4, got {g}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    if spec.k > g:
        raise ValueError(f"k = {spec.k} exceeds dimension {g}")
    u0 = np.empty((restarts, g, g), dtype=np.complex128)
    v0 = np.empty_like(u0)
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        u0[r] = haar_unitary(g, rng)
        v0[r] = haar_unitary(g, rng)
    u, v = _descend(u0, v0, alpha, iters=iters)
    t = twisted_commutator(u, v, alpha)
    best = min(schatten_kyfan_norm(t_r, spec) for t_r in t)
    if trace:
        return best, list(zip(u, v))
    return best
