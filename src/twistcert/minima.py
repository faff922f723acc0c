"""The minimum possible twisted commutation value over unitary pairs of a
given dimension, its closed form for (p, k) Schatten-Ky Fan norms with p >= 2,
the clock/shift family that saturates it, and a gradient-descent oracle for
the underlying minimization over pairs of unitaries."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import UNITARITY
from .linalg import (
    NormSpec,
    OPERATOR,
    _haar_from_normals,
    operator_norm,
    require_unitary,
    twisted_commutator,
)

__all__ = [
    "TwistedPair",
    "round_half_away",
    "lambda_min",
    "lambda_low",
    "lambda_upper_bound",
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


# Relative widening of lambda_low, 2^-40 = 9.1e-13: it covers the roundings
# after the distance and the error of numpy's sin (each a few ulp) about a
# thousand times over.
_FLOOR_MARGIN = 2.0 ** -40


def lambda_low(gs, alpha) -> np.ndarray:
    """Lower bounds on the operator-norm lambda_min(g, alpha) for an integer
    array gs of dimensions 1 <= g < 2^53, with alpha a finite float or an
    array that broadcasts against gs, rounded outward: never above the exact
    2 sin(pi dist(g alpha, Z) / g) of the float alpha.

    The twist is reduced with fmod(alpha, 1), which is exact, so |a| < 1 and
    the float product g a lies within u g of the exact one (u = 2^-53).
    fmod(g a, 1) and, for a fraction f >= 1/2, 1 - f are exact, so the
    computed distance to Z lies within u g of the exact one and distance
    - u g lies below it.  math.pi lies below pi, and sin increases on the
    range [0, pi / 2] of the angle, so what remains is the relative
    rounding of the subtraction, the product and the quotient (u each) and
    numpy's sin (a few ulp); the final factor 1 - _FLOOR_MARGIN covers them.
    The result lies below the exact value by at most 4 pi u + 2^-39 of it:
    the exact floor times (1 - 1e-11), less 1.4e-15."""
    gs = np.asarray(gs, dtype=np.float64)
    frac = np.abs(np.fmod(gs * np.fmod(alpha, 1.0), 1.0))
    dist = np.maximum(np.minimum(frac, 1.0 - frac) - gs * 2.0 ** -53, 0.0)
    return 2.0 * np.sin(math.pi * dist / gs) * (1.0 - _FLOOR_MARGIN)


def lambda_upper_bound(g: int, spec: NormSpec = OPERATOR) -> float:
    """Twist-independent upper bound 2 k^(1/p) sin(pi / 2g), from
    |x - round(x)| <= 1/2."""
    prefactor = 1.0 if math.isinf(spec.p) else spec.k ** (1.0 / spec.p)
    return float(2.0 * prefactor * np.sin(np.pi / (2.0 * g)))


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
    candidate exponents saturate.  The exponent is taken from
    math.fmod(alpha, 1.0), as in lambda_min; alpha itself must lie in [0, 1).
    """
    m = round_half_away(g * math.fmod(alpha, 1.0))
    c = clock_matrix(g)
    s = shift_matrix(g)
    v = np.linalg.matrix_power(s, m % g)
    return TwistedPair(u=c, v=v, alpha=alpha)


def optimal_angles(g: int, alpha: float) -> np.ndarray:
    """The minimizing eigenvalue angles for the cyclic pairing:
    theta_j = 2 pi round(g alpha) (j - 1) / g, j = 1..g (theta_1 = 0 gauge),
    evenly spaced with step 2 pi round(g alpha) / g.  The twist is reduced
    with math.fmod(alpha, 1.0) first, as in lambda_min, which changes the
    angles only by multiples of 2 pi and keeps g alpha finite."""
    m = round_half_away(g * math.fmod(alpha, 1.0))
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
    return (x.real ** 2 + x.imag ** 2).sum(axis=(-2, -1))


def _dagger(x: np.ndarray) -> np.ndarray:
    return x.conj().swapaxes(-1, -2)


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Real inner products Re tr(x^dag y) of two (2, R, g, g) stacks of
    pairs, summed over the pair: one value per restart."""
    return (x.real * y.real + x.imag * y.imag).sum(axis=(-2, -1)).sum(axis=0)


def _descend(w: np.ndarray, alpha: float, iters: int) -> np.ndarray:
    """Riemannian gradient descent on the smooth Frobenius-squared objective
    ||u v - eta v u||_F^2 over pairs of unitaries, with a Cayley retraction,
    Barzilai-Borwein steps and a backtracking line search, run on every pair
    (u, v) = (w[0, r], w[1, r]) of the (2, R, g, g) stack w at once.
    Frobenius minimizers have flat-spectrum twisted commutators, so they
    minimize every (p, k) norm simultaneously.

    With G_u the Euclidean gradient in u, the Riemannian gradient is u A_u
    for the skew-Hermitian A_u = skew(u^dag G_u), and likewise for v
    (Edelman, Arias and Smith, SIAM J. Matrix Anal. Appl. 20 (1998)).  A
    trial of step s moves u along the Cayley retraction (Wen and Yin, Math.
    Program. 142 (2013))

        u (I + s A_u / 2)^-1 (I - s A_u / 2) = 2 u (I + s A_u / 2)^-1 - u,

    unitary in exact arithmetic, and is accepted by the Armijo test against
    ||A_u||_F^2 + ||A_v||_F^2.

    Each restart keeps its own step, accepted-step count, value and
    gradient.  A round gives every active restart one trial: all trials of
    the round share one batched solve, one commutator and one Armijo test.
    A restart's first trial step is 0.25.  After its k-th accepted step the
    next trial step is the Barzilai-Borwein step (IMA J. Numer. Anal. 8
    (1988)) from S = X_k - X_(k-1) and Y = (u A_u, v A_v)_k - (u A_u, v
    A_v)_(k-1), the ambient gradients, with inner products summed over the
    pair: <S, S> / |<S, Y>| for odd k and |<S, Y>| / <Y, Y> for even k, as
    Wen and Yin alternate them, clipped to [1e-10, 1e3]; a zero denominator
    keeps the step.  A rejected trial halves the step.  A restart stops once
    step * ||grad||^2 <= 2^-52 f, where the predicted decrease is below the
    rounding of its value f; it also stops after `iters` accepted steps, at
    a vanishing gradient, or once its step falls to 1e-14.  At a value that
    is all rounding (a floor of 0) the halving ends on a step too small to
    move the pair, which the Armijo test accepts; then S = Y = 0, the step
    is kept and every later round repeats that trial, so the restart stops
    there, on the pair that `iters` accepted steps would give.  Every slice
    is computed on its own, so a restart follows the same path whichever
    restarts share the stack.  Returns a new stack; the input is not
    modified.
    """
    eta = np.exp(2j * np.pi * alpha)
    w = w.copy()
    restarts = w.shape[1]
    t = twisted_commutator(w[0], w[1], alpha)
    fval = _fro2(t)
    step = np.full(restarts, 0.25)
    taken = np.zeros(restarts, dtype=int)
    a = np.empty_like(w)  # A_u, A_v
    grad = np.zeros_like(w)  # u A_u, v A_v at the last accepted point
    moved = np.zeros_like(w)  # S, the last accepted move
    gnorm2 = np.zeros(restarts)
    eye = np.eye(w.shape[-1])
    active = np.ones(restarts, dtype=bool)
    stale = active.copy()  # gradient out of date: the last trial was accepted
    while True:
        active &= taken < iters
        new = np.flatnonzero(active & stale)
        if new.size:
            tn, wn = t[new], w[:, new]
            uh, vh = _dagger(wn)
            gu = tn @ vh - np.conj(eta) * (vh @ tn)
            gv = uh @ tn - np.conj(eta) * (tn @ uh)
            an = np.stack((uh @ gu, vh @ gv))
            an = 0.5 * (an - _dagger(an))
            gn = wn @ an
            sn, yn = moved[:, new], gn - grad[:, new]
            ss, sy, yy = _inner(sn, sn), np.abs(_inner(sn, yn)), _inner(yn, yn)
            k = taken[new]
            num, den = np.where(k % 2 == 1, ss, sy), np.where(k % 2 == 1, sy, yy)
            bb = (k > 0) & (den > 0)
            step[new[bb]] = np.clip(num[bb] / den[bb], 1e-10, 1e3)
            a[:, new], grad[:, new] = an, gn
            gnorm2[new] = _fro2(an).sum(axis=0)
            # a pair that an accepted step left unchanged repeats that step
            stuck = (k > 0) & ~sn.any(axis=(0, -2, -1))
            active[new] = (gnorm2[new] >= 1e-30) & ~stuck
        active &= (step > 1e-14) & (step * gnorm2 > 2.0 ** -52 * fval)
        idx = np.flatnonzero(active)
        if not idx.size:
            return w
        wi = w[:, idx]
        ht = (0.5 * step[idx, None, None]) * a[:, idx].swapaxes(-1, -2)
        # Z = w (I + h)^-1 from the transposed system (I + h)^T Z^T = w^T
        z = np.linalg.solve(eye + ht, wi.swapaxes(-1, -2)).swapaxes(-1, -2)
        trial = 2.0 * z - wi
        t2 = twisted_commutator(trial[0], trial[1], alpha)
        f2 = _fro2(t2)
        ok = f2 <= fval[idx] - 1e-4 * step[idx] * gnorm2[idx]
        acc = idx[ok]
        moved[:, acc] = trial[:, ok] - wi[:, ok]
        w[:, acc], t[acc], fval[acc] = trial[:, ok], t2[ok], f2[ok]
        step[idx[~ok]] *= 0.5
        taken[acc] += 1
        stale[:] = False
        stale[acc] = True


def brute_min(g: int, alpha: float, spec: NormSpec = OPERATOR,
              restarts: int = 50, seed: int = 0, iters: int = 300,
              trace: bool = False):
    """Locally minimize the twisted commutation value over pairs of g x g
    unitaries by seeded random restarts and Riemannian descent (`_descend`).

    One-sided oracle for the closed form: the returned value can never fall
    below lambda_min (up to numerical tolerance).  Restart r starts from Haar
    unitaries u0, v0 drawn in that order from default_rng([seed, r]), so runs
    are reproducible: each restart's normals are drawn from its own
    generator, and one batched QR turns all 2 * restarts of them into the
    same unitaries `haar_unitary` gives.  All restarts descend together as
    one (2, restarts, g, g) stack of (u, v) pairs, but independently:
    restart r ends on the same pair whatever the number of restarts.
    Restricted to 1 <= g <= 4; the cost grows quickly beyond desk scale.
    alpha must be finite and is reduced with math.fmod(alpha, 1.0) first,
    as in lambda_min.  Every final u and v is checked to be unitary to
    config.UNITARITY in the Frobenius norm, which bounds the operator norm;
    ArithmeticError if one is not.

    Returns the best value found in the requested norm, from one batched
    SVD of the final commutators; with trace=True also returns the list of
    final (u, v) pairs, one per restart, as views into one stack.
    """
    if not 1 <= g <= 4:
        raise ValueError(f"brute_min is restricted to 1 <= g <= 4, got {g}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    if spec.k > g:
        raise ValueError(f"k = {spec.k} exceeds dimension {g}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    alpha = math.fmod(alpha, 1.0)
    normals = np.stack([np.random.default_rng([seed, r]).standard_normal((2, 2, g, g))
                        for r in range(restarts)])
    w = _descend(_haar_from_normals(normals).swapaxes(0, 1), alpha, iters=iters)
    if not np.all(_fro2(_dagger(w) @ w - np.eye(g)) <= UNITARITY ** 2):
        raise ArithmeticError("descent left the unitary group")
    u, v = w
    sv = np.linalg.svd(twisted_commutator(u, v, alpha), compute_uv=False)
    if math.isinf(spec.p):
        values = sv[:, 0]
    else:
        values = np.sum(sv[:, :spec.k] ** spec.p, axis=1) ** (1.0 / spec.p)
    best = float(values.min())
    if trace:
        return best, list(zip(u, v))
    return best
