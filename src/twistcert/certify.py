"""Certified lower bounds on the dimension of approximately twisted-commuting
unitary pairs.

A pair (u, v) with || u v - eta v u || <= delta forces eigenvalues of u into
arcs around the powers of eta; the minimum number of points meeting every arc
(the transversal number, computed greedily on the circle) lower bounds the
number of distinct eigenvalues and hence the dimension.  Two mutually
approximately commuting twisted pairs certify the product dimension through a
shared approximate eigenvector and a Gram-matrix independence argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOL
from .linalg import (
    NormSpec,
    OPERATOR,
    as_matrix,
    eig_normal,
    is_unitary,
    operator_norm,
    twisted_commutator,
)
from .minima import TwistedPair, excluded_dimensions, lambda_min
from .shared_eig import shared_approx_eigenvector_normal

__all__ = [
    "METHODS",
    "Arc",
    "Certificate",
    "GramCheck",
    "OrbitExpectation",
    "DoubleWitnessReport",
    "single_pair_threshold",
    "eigenvalue_arc",
    "build_arcs",
    "minimal_intervals",
    "greedy_transversal",
    "certify_single",
    "certify_double",
    "certify_lambda_exclusion",
    "orbit_expectations",
    "overlap_bound",
    "gram_independent",
    "pair_values",
    "verify_double_witness",
]

TWO_PI = 2.0 * np.pi

METHODS = (
    "single-closed-form",
    "greedy-transversal",
    "double-pair",
    "lambda-exclusion",
)

# Arc systems below this twisted commutation value are too large to sweep.
_MIN_DELTA = 1e-6
# Resolution of the slack search.  The sweep compares angles below 2 pi, each
# a few roundings off, and an arc's half-width arccos(1 - |j| delta) grows at
# least as fast as delta, so a computed packing event lies within this
# distance of the delta at which the sweep's answer changes.
_EVENT_STEP = 2.0 ** -48


@dataclass(frozen=True)
class Arc:
    """A closed arc on the unit circle: |angle - center| <= half_width
    (circularly).  `index` records which orbit power produced it."""

    center: float
    half_width: float
    index: int

    def __post_init__(self):
        if not (0.0 <= self.half_width <= np.pi):
            raise ValueError(f"half width must lie in [0, pi], got {self.half_width}")

    def contains(self, angle: float, tol: float = 0.0) -> bool:
        d = abs(angle - self.center) % TWO_PI
        d = min(d, TWO_PI - d)
        return d <= self.half_width + tol


@dataclass
class Certificate:
    """A certified dimension lower bound with the data needed to re-verify it.

    slack is the distance of the inputs from the point where the certificate
    would weaken (None when no finite margin applies).
    """

    d_min: int
    method: str
    inputs: dict
    slack: float | None = None
    witness: dict | None = None

    def __post_init__(self):
        if self.d_min < 1:
            raise ValueError("certified dimension must be >= 1")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


def single_pair_threshold(d: int) -> float:
    """2 (1 - cos(pi/d)) / (d - 1): twisted commutation values strictly below
    this certify dimension >= d at twist 1/d."""
    if d < 2:
        raise ValueError(f"threshold requires d >= 2, got {d}")
    return float(2.0 * (1.0 - np.cos(np.pi / d)) / (d - 1))


def eigenvalue_arc(zeta: float, theta: float) -> Arc:
    """Arc of possible eigenvalue angles for a unitary whose expectation value
    in some state is within zeta of exp(i theta): half-width arccos(1 - zeta).
    """
    if not (0.0 <= zeta <= 2.0):
        raise ValueError(f"expectation error must lie in [0, 2], got {zeta}")
    return Arc(center=float(theta) % TWO_PI, half_width=float(np.arccos(1.0 - zeta)),
               index=0)


def _arcs(alpha: float, delta: float, js: np.ndarray):
    """The arcs of the orbit powers js at delta: powers with |j| delta >= 2
    give the full circle and are skipped, so arccos never leaves [-1, 1];
    the rest get half-widths arccos(1 - |j| delta) and centers
    2 pi alpha j (mod 2 pi)."""
    z = np.abs(js) * delta
    keep = z < 2.0
    js = js[keep]
    return js, np.arccos(1.0 - z[keep]), (TWO_PI * alpha * js) % TWO_PI


def _arc_arrays(alpha: float, delta: float):
    """Every orbit power j != 0 with |j| delta < 2, with its arc (see _arcs)."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    jmax = int(math.floor(2.0 / delta))
    js = np.arange(-jmax, jmax + 1)
    return _arcs(alpha, delta, js[js != 0])


def build_arcs(alpha: float, delta: float) -> list[Arc]:
    """Nontrivial eigenvalue arcs for orbit powers j != 0: centered at
    2 pi alpha j with half-width arccos(1 - |j| delta).  Powers with
    |j| delta >= 2 give the full circle and are excluded; |j| <= floor(2/delta)
    suffices.  The j = 0 arc is the single point +1 (handled by the caller)."""
    js, half, centers = _arc_arrays(alpha, delta)
    return [Arc(float(c), float(h), int(j)) for c, h, j in zip(centers, half, js)]


def _minimal(js: np.ndarray, half: np.ndarray, centers: np.ndarray,
             merge_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The body of minimal_intervals on given arcs: the powers j of the
    inclusion-minimal intervals and their endpoints lo, hi, ascending in both
    (hi by more than merge_tol from one interval to the next)."""
    dist0 = np.minimum(centers, TWO_PI - centers)
    away = dist0 > half + merge_tol  # arcs through the forced point drop out
    js, half, centers = js[away], half[away], centers[away]
    lo = (centers - half) % TWO_PI
    hi = lo + 2.0 * half
    if js.size == 0:
        return js, lo, hi

    order = np.lexsort((-hi, lo))  # lo ascending, hi descending
    js, lo, hi = js[order], lo[order], hi[order]
    dup = np.zeros(lo.size, dtype=bool)
    dup[1:] = (np.abs(np.diff(lo)) <= merge_tol) & (np.abs(np.diff(hi)) <= merge_tol)
    js, lo, hi = js[~dup], lo[~dup], hi[~dup]
    # with this ordering any interval contained in [lo_i, hi_i] appears later,
    # so interval i is minimal iff every later right endpoint exceeds hi_i
    min_hi_after = np.empty_like(hi)
    min_hi_after[-1] = math.inf
    if hi.size > 1:
        min_hi_after[:-1] = np.minimum.accumulate(hi[::-1])[::-1][1:]
    keep = min_hi_after > hi + merge_tol
    return js[keep], lo[keep], hi[keep]


class MinimalIntervals(list):
    """The (lo, hi) pairs of minimal_intervals; `powers` holds the orbit
    power j whose arc gave each pair."""

    def __init__(self, js: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        super().__init__(zip(lo.tolist(), hi.tolist()))
        self.powers = js


def minimal_intervals(alpha: float, delta: float,
                      merge_tol: float | None = None) -> MinimalIntervals:
    """The inclusion-minimal interval system on (0, 2 pi) after forcing an
    eigenvalue at angle 0: arcs containing 0 are discarded, the circle is
    unfolded at 0, duplicates are merged, and intervals containing another
    interval are dropped (stabbing the inner one stabs them both).  The
    returned list of (lo, hi) pairs is ascending and carries the orbit power
    of each pair in its `powers` attribute."""
    merge_tol = DEFAULT_TOL.angle_merge if merge_tol is None else merge_tol
    return MinimalIntervals(*_minimal(*_arc_arrays(alpha, delta), merge_tol))


def _stab_indices(lo: list[float], hi: list[float], merge_tol: float) -> list[int]:
    """The greedy stabbing on intervals sorted by right endpoint: the indices
    of the intervals whose right end becomes a stab.  Each lies more than
    merge_tol beyond the previous one, so they form a packing."""
    picked: list[int] = []
    last = -math.inf
    for i, (a, b) in enumerate(zip(lo, hi)):
        if last < a - merge_tol:
            picked.append(i)
            last = b
    return picked


def greedy_transversal(intervals, merge_tol: float | None = None) -> list[float]:
    """Minimum stabbing points for closed intervals on a line: sort by right
    endpoint and stab at the right end of each interval not already covered.
    Optimal for interval systems (exchange argument on the earliest right
    endpoint)."""
    merge_tol = DEFAULT_TOL.angle_merge if merge_tol is None else merge_tol
    ordered = sorted(intervals, key=lambda t: t[1])
    his = [hi for _, hi in ordered]
    return [his[i] for i in _stab_indices([lo for lo, _ in ordered], his, merge_tol)]


def _rational_twist(alpha: float, cap: int = 10 ** 6) -> tuple[int, int] | None:
    """Detect alpha = p/q with q <= cap.  The accept window sits at float
    resolution: a true rational hits its reduced form to within an ulp, while
    the best cap-bounded approximant of an irrational misses by ~1/q^2."""
    frac = Fraction(alpha).limit_denominator(cap)
    if abs(alpha - float(frac)) <= 1e-15:
        return frac.numerator, frac.denominator
    return None


def _packing_event(alpha: float, js: np.ndarray, merge_tol: float) -> float:
    """The smallest delta at which the intervals of the powers js (ascending,
    clear of angle 0 and of each other by more than merge_tol) stop forming
    such a packing: one comes within merge_tol of angle 0, or two neighbours
    come within merge_tol of each other.

    An arc's half-width x = arccos(1 - |j| delta) is reached at
    delta = 2 sin^2(x / 2) / |j|.  Two neighbours a = |j|, b = |k| with
    centres c_j < c_k meet at x_j + x_k = c_k - c_j - merge_tol = 2 e; with
    sin(x_j / 2) = sqrt(a delta / 2) and the like for k, the sine of
    x_j / 2 = e - x_k / 2 gives
        delta = 2 sin^2 e / (a + b + 2 sqrt(a b) cos e),
    a root of the meeting equation while sqrt(b) + sqrt(a) cos e and
    sqrt(a) + sqrt(b) cos e are nonnegative; otherwise an arc reaches angle 0
    first."""
    a = np.abs(js).astype(float)
    centers = (TWO_PI * alpha * js) % TWO_PI
    reach = np.minimum(centers, TWO_PI - centers) - merge_tol
    first = float(np.min(2.0 * np.sin(reach / 2.0) ** 2 / a))
    if js.size < 2:
        return first
    e = (np.diff(centers) - merge_tol) / 2.0
    cos_e = np.cos(e)
    ra, rb = np.sqrt(a[:-1]), np.sqrt(a[1:])
    meet = 2.0 * np.sin(e) ** 2 / (a[:-1] + a[1:] + 2.0 * ra * rb * cos_e)
    root = (rb + ra * cos_e >= 0.0) & (ra + rb * cos_e >= 0.0)
    return min(first, float(np.min(meet, where=root, initial=math.inf)))


def _slack(alpha: float, delta: float, d_min: int, powers: np.ndarray,
           merge_tol: float) -> float:
    """How far delta can grow while the sweep still certifies d_min (see
    certify_single); `powers` are those of the minimal intervals at delta."""

    def packing(x: float, js: np.ndarray):
        """The powers minimal at x among js, with the powers of the greedy's
        stabbed intervals (None when they certify less than d_min)."""
        js, lo, hi = _minimal(*_arcs(alpha, x, js), merge_tol)
        picked = _stab_indices(lo.tolist(), hi.tolist(), merge_tol)
        return js, (js[picked] if len(picked) + 1 >= d_min else None)

    good, bad = delta, 2.0  # no arc is left at delta = 2: it certifies 1
    powers, pack = packing(delta, powers)
    while pack is not None:
        # the packing holds up to its event, which rounding misplaces by less
        # than _EVENT_STEP: probe just past the event, then just before it
        event = _packing_event(alpha, pack, merge_tol)
        if event <= good:
            break  # rounding put the event at or below the current point
        after, before = event + _EVENT_STEP, event - _EVENT_STEP
        if after < bad:
            js, pack = packing(after, powers)
            if pack is not None:
                good, powers = after, js
                continue
            bad = after
        if before <= good or packing(before, powers)[1] is not None:
            return max(good, before) - delta
        bad = before
        break
    while bad - good > _EVENT_STEP:  # bisection on the powers still minimal
        mid = 0.5 * (good + bad)
        js, pack = packing(mid, powers)
        if pack is None:
            bad = mid
        else:
            good, powers = mid, js
    return good - delta


def certify_single(alpha: float, delta: float, compute_slack: bool = True,
                   merge_tol: float | None = None) -> Certificate:
    """Certified minimum dimension of unitaries u, v with
    || u v - exp(2 pi i alpha) v u || <= delta (operator norm).

    delta > 0 runs the greedy arc-transversal sweep; delta = 0 requires a
    rational twist alpha = p/q (continued-fraction detection, denominator up
    to 1e6) and certifies q exactly.  Works for arbitrary alpha; at twist 1/d
    it certifies at least d for every delta below single_pair_threshold(d).

    With compute_slack, a sweep certificate of d_min > 1 reports as slack how
    far delta can grow before the sweep certifies less than d_min.  Arc k can
    sit inside arc j only if |k| <= |j|, and then the containment, like an
    arc's passage through angle 0, persists as delta grows.  So the powers
    minimal at any larger delta are among those minimal at delta, and every
    probe of the search sweeps only those: tens to hundreds of arcs instead of
    up to 2 / delta.  The intervals the greedy stabs are disjoint, so they keep
    certifying d_min until the first packing event, where two neighbours meet
    or one reaches angle 0 (closed forms in _packing_event).  The search
    probes just past that event; while d_min holds there it takes the new
    packing and repeats, otherwise it confirms the point just before the
    event.  Where rounding contradicts the computed event (it falls at or
    below the current point, or the point just before it fails), a bisection
    on the same minimal powers finishes.  The slack agrees with a bisection
    over full sweeps to within 2 * _EVENT_STEP (7e-15).
    """
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    merge_tol = DEFAULT_TOL.angle_merge if merge_tol is None else merge_tol

    if delta == 0.0:
        rat = _rational_twist(alpha)
        if rat is None:
            raise ValueError(
                "delta = 0 with an irrational twist certifies no finite dimension; "
                "supply a rational alpha"
            )
        _, q = rat
        return Certificate(
            d_min=q,
            method="single-closed-form",
            inputs={"alpha": alpha, "delta": 0.0},
            slack=0.0,
            witness={"exact": True, "denominator": q},
        )

    if delta < _MIN_DELTA:
        raise ValueError(
            f"delta = {delta:.3e} requires more than {int(2 / _MIN_DELTA)} arcs; "
            "use the exact route (delta = 0) or a coarser value"
        )

    intervals = minimal_intervals(alpha, delta, merge_tol)
    stabs = greedy_transversal(intervals, merge_tol)
    d_min = 1 + len(stabs)
    slack = None
    if compute_slack and d_min > 1:
        slack = _slack(alpha, delta, d_min, intervals.powers, merge_tol)

    return Certificate(
        d_min=d_min,
        method="greedy-transversal",
        inputs={"alpha": alpha, "delta": delta},
        slack=slack,
        witness={
            "forced_angle": 0.0,
            "stab_angles": [float(s % TWO_PI) for s in stabs],
            "minimal_interval_count": len(intervals),
        },
    )


def _double_threshold(d1: int, d2: int, gamma: float,
                      delta: float) -> tuple[float, float]:
    """Both sides of the two-pair condition lhs < rhs of certify_double."""
    lhs = math.sqrt(gamma) * d1 * d2 + (d1 + d2) * delta
    rhs = float(np.sin(np.pi / (2 * d1)) ** 2 / (d1 * d2 - 1) ** 2)
    return lhs, rhs


def certify_double(d1: int, d2: int, gamma: float, delta: float,
                   compute_slack: bool = True) -> Certificate:
    """Certified dimension for two twisted pairs (twists 1/d1 and 1/d2) whose
    five mutual (twisted) commutation values are bounded by gamma and delta.

    Certifies d1 * d2 when

        sqrt(gamma) d1 d2 + (d1 + d2) delta < sin^2(pi / 2 d1) / (d1 d2 - 1)^2,

    otherwise falls back to the best single-pair certificate.
    """
    if not (2 <= d1 <= d2):
        raise ValueError(f"need 2 <= d1 <= d2, got d1={d1}, d2={d2}")
    for name, value in (("gamma", gamma), ("delta", delta)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if gamma < 0 or delta < 0:
        raise ValueError("gamma and delta must be nonnegative")
    lhs, rhs = _double_threshold(d1, d2, gamma, delta)
    inputs = {"d1": d1, "d2": d2, "gamma": gamma, "delta": delta}
    if lhs < rhs:
        return Certificate(
            d_min=d1 * d2,
            method="double-pair",
            inputs=inputs,
            slack=rhs - lhs,
            witness={"lhs": lhs, "rhs": rhs},
        )
    singles = [
        certify_single(1.0 / d1, delta, compute_slack=compute_slack),
        certify_single(1.0 / d2, delta, compute_slack=compute_slack),
    ]
    best = max(singles, key=lambda c: c.d_min)
    witness = dict(best.witness or {})
    witness["double_pair_threshold_failed_by"] = lhs - rhs
    witness["single_pair_twist"] = best.inputs["alpha"]
    return Certificate(
        d_min=best.d_min,
        method=best.method,
        inputs=inputs,
        slack=best.slack,
        witness=witness,
    )


def certify_lambda_exclusion(alpha: float, delta: float, g_max: int = 64,
                             spec: NormSpec = OPERATOR) -> Certificate:
    """Certificate from the closed-form minimum twisted commutation value:
    every dimension g with delta < lambda_min(g, alpha) is impossible, so the
    smallest non-excluded dimension is a lower bound.  The full excluded set
    (not monotone in g) is returned as the witness."""
    excluded = excluded_dimensions(delta, alpha, g_max, spec)
    excluded_set = set(excluded)
    d_min = next(g for g in range(1, g_max + 2) if g not in excluded_set)
    margins = [lambda_min(g, alpha, NormSpec(spec.p, min(spec.k, g))) - delta
               for g in range(1, d_min)]
    return Certificate(
        d_min=d_min,
        method="lambda-exclusion",
        inputs={"alpha": alpha, "delta": delta, "g_max": g_max,
                "p": spec.p, "k": spec.k},
        slack=min(margins) if margins else None,
        witness={"excluded_dimensions": excluded},
    )


class OrbitExpectation(NamedTuple):
    j: int
    expectation: complex
    bound: float
    deviation: float


def _phase_normalize(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, complex]:
    """Multiply u by the conjugate phase of its most-positive eigenvalue
    (maximal real part, ties by smaller |imaginary part|), so the returned
    operator has an exact +1 eigenvector (up to the modulus of that
    eigenvalue).  Returns (u', eigenvector, its eigenvalue under u')."""
    dec = eig_normal(u)
    vals = dec.eigenvalues
    idx = min(range(len(vals)), key=lambda i: (-vals[i].real, abs(vals[i].imag)))
    lam = vals[idx] / abs(vals[idx])
    return np.conj(lam) * u, dec.eigenvectors[:, idx], complex(np.conj(lam) * vals[idx])


def _orbit_range(d: int) -> range:
    """The d orbit powers j = -floor((d-1)/2) .. ceil((d-1)/2)."""
    return range(-((d - 1) // 2), d // 2 + 1)


def _orbit(m: np.ndarray, js, x: np.ndarray) -> dict:
    """m^j x for every j between min(js, 0) and max(js, 0), built by repeated
    products with m (j > 0) or m^dag (j < 0)."""
    out = {0: x}
    cur = x
    for j in range(1, max(js, default=0) + 1):
        cur = m @ cur
        out[j] = cur
    cur = x
    mdag = m.conj().T
    for j in range(-1, min(js, default=0) - 1, -1):
        cur = mdag @ cur
        out[j] = cur
    return out


def orbit_expectations(pair: TwistedPair, j_range=None,
                       tol: float = 1e-8) -> list[OrbitExpectation]:
    """Expectation values of u along the orbit |j> = v^j |psi> of a +1
    eigenvector of (phase-normalized) u.

    Each expectation lies within |j| * delta of eta^j; a violation beyond
    `tol` indicates a numerical failure and raises.  The default orbit covers
    j = -floor((d-1)/2) .. ceil((d-1)/2) with d = round(1/alpha); pass
    j_range explicitly when alpha = 0.
    """
    u_norm, psi, _ = _phase_normalize(pair.u)
    if j_range is None:
        if pair.alpha <= 0.0:
            raise ValueError("j_range is required when alpha = 0")
        j_range = _orbit_range(max(1, round(1.0 / pair.alpha)))
    js = sorted(set(int(j) for j in j_range))
    states = _orbit(pair.v, js, psi)

    out = []
    for j in js:
        state = states[j]
        expect = complex(np.vdot(state, u_norm @ state))
        target = pair.eta ** j
        bound = abs(j) * pair.delta
        dev = abs(expect - target)
        if dev > bound + tol:
            raise ArithmeticError(
                f"orbit expectation at j={j} deviates by {dev:.3e}, above the "
                f"bound {bound:.3e}"
            )
        out.append(OrbitExpectation(j, expect, bound, dev))
    return out


def overlap_bound(zeta: float, theta_x: float, theta_y: float) -> float:
    """Upper bound sqrt(2 zeta) |csc((theta_y - theta_x)/4)| on the overlap of
    two approximate eigenvectors of a unitary whose expectation values sit
    within zeta of distinct circle points.  The separation is folded to the
    minor arc; coincident targets admit no bound and raise."""
    if zeta < 0:
        raise ValueError(f"zeta must be nonnegative, got {zeta}")
    sep = abs(theta_y - theta_x) % TWO_PI
    sep = min(sep, TWO_PI - sep)
    if sep <= 1e-15:
        raise ValueError("coincident expectation targets: no overlap bound")
    return float(np.sqrt(2.0 * zeta) / np.sin(sep / 4.0))


class GramCheck(NamedTuple):
    independent: bool
    min_eigenvalue: float
    max_overlap: float
    threshold: float


def gram_independent(vectors, tol: float = 1e-8) -> GramCheck:
    """Linear independence via strict diagonal dominance of the Gram matrix:
    pairwise overlaps below 1/(n-1) make the Gram matrix nonsingular
    (Gershgorin).  The minimum Gram eigenvalue is reported as a direct
    certificate.  At overlap exactly -1/(n-1) the Gram matrix is singular, so
    the strict inequality is required."""
    mat = np.asarray([np.asarray(v, dtype=np.complex128).ravel() for v in vectors])
    n = mat.shape[0]
    norms = np.linalg.norm(mat, axis=1)
    if np.any(np.abs(norms - 1.0) > tol):
        raise ValueError("vectors must be normalized")
    gram = mat.conj() @ mat.T
    eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
    if n == 1:
        return GramCheck(True, float(eigs[0]), 0.0, math.inf)
    off = gram - np.diag(np.diag(gram))
    max_overlap = float(np.max(np.abs(off)))
    threshold = 1.0 / (n - 1)
    return GramCheck(max_overlap < threshold, float(eigs[0]), max_overlap, threshold)


@dataclass
class DoubleWitnessReport:
    """Measured data and bound checks for a two-pair dimension witness."""

    n: int
    d1: int
    d2: int
    gamma: float
    delta: float
    delta_parts: dict
    threshold_lhs: float
    threshold_rhs: float
    eigvec_bound: float
    residual_u1: float
    residual_u2: float
    dim_assumption_ok: bool
    expectation_failures: list
    gram_rank: int
    gram_min_eigenvalue: float
    independent: bool
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def pair_values(u1, u2, v1, v2, d1: int, d2: int) -> tuple[float, dict]:
    """The five commutation values of two twisted pairs (u1, v1) at twist
    1/d1 and (u2, v2) at twist 1/d2: gamma = ||[u1, u2]|| and the four deltas
    (both twisted commutators and the cross commutators [u1, v2], [u2, v1])."""
    gamma = operator_norm(twisted_commutator(u1, u2, 0.0))
    deltas = {
        "u1v1_twist": operator_norm(twisted_commutator(u1, v1, 1.0 / d1)),
        "u2v2_twist": operator_norm(twisted_commutator(u2, v2, 1.0 / d2)),
        "u1v2": operator_norm(twisted_commutator(u1, v2, 0.0)),
        "u2v1": operator_norm(twisted_commutator(u2, v1, 0.0)),
    }
    return gamma, deltas


def verify_double_witness(u1, u2, v1, v2, d1: int, d2: int,
                          tol: float = 1e-8) -> DoubleWitnessReport:
    """Construct and check the two-pair dimension witness directly.

    Measures the five commutation values, builds a shared approximate +1
    eigenvector |psi> of u1 and u2 (after phase normalization), forms the
    orbit |i, j> = v1^i v2^j |psi>, checks the expectation-value bounds
    sqrt(gamma) d1 d2 / 2 + (|i| + |j|) delta for both operator families, and
    reports the rank of the orbit Gram matrix at the given tolerance.  Any
    failed bound is recorded in `failures` rather than raised: instances
    outside the certification threshold are expected to fail here.
    """
    if not (2 <= d1 <= d2):
        raise ValueError(f"need 2 <= d1 <= d2, got d1={d1}, d2={d2}")
    mats = [as_matrix(m, square=True) for m in (u1, u2, v1, v2)]
    u1, u2, v1, v2 = mats
    n = u1.shape[0]
    if any(m.shape != (n, n) for m in mats):
        raise ValueError("all four operators must share one dimension")
    for name, m in zip(("u1", "u2", "v1", "v2"), mats):
        if not is_unitary(m, 100 * DEFAULT_TOL.unitarity):
            raise ValueError(f"{name} is not unitary to tolerance")

    gamma, delta_parts = pair_values(u1, u2, v1, v2, d1, d2)
    delta = max(delta_parts.values())
    lhs, rhs = _double_threshold(d1, d2, gamma, delta)

    failures: list[str] = []
    if lhs >= rhs:
        failures.append(f"double-pair threshold: lhs {lhs:.3e} >= rhs {rhs:.3e}")

    u1p, _, seed = _phase_normalize(u1)
    shared = shared_approx_eigenvector_normal(u1p, u2, seed_lambda=seed)
    psi = shared.vector
    nu = shared.eigenvalue_b / abs(shared.eigenvalue_b)
    u2p = np.conj(nu) * u2
    resid1 = float(np.linalg.norm(u1p @ psi - psi))
    resid2 = float(np.linalg.norm(u2p @ psi - psi))
    eig_bound = math.sqrt(gamma) * d1 * d2 / 2.0
    if resid1 > eig_bound + tol:
        failures.append(f"shared eigenvector residual (u1) {resid1:.3e} > {eig_bound:.3e}")
    if resid2 > eig_bound + tol:
        failures.append(f"shared eigenvector residual (u2) {resid2:.3e} > {eig_bound:.3e}")

    range1, range2 = _orbit_range(d1), _orbit_range(d2)
    eta1 = np.exp(2j * np.pi / d1)
    eta2 = np.exp(2j * np.pi / d2)

    pow1 = _orbit(v1, range1, np.eye(n, dtype=complex))
    cols = _orbit(v2, range2, psi)
    states = {(i, j): pow1[i] @ cols[j] for j in range2 for i in range1}

    expectation_failures = []
    for (i, j), state in states.items():
        bound = eig_bound + (abs(i) + abs(j)) * delta
        e1 = complex(np.vdot(state, u1p @ state))
        e2 = complex(np.vdot(state, u2p @ state))
        dev1 = abs(e1 - eta1 ** i)
        dev2 = abs(e2 - eta2 ** j)
        if dev1 > bound + tol:
            expectation_failures.append(("u1", i, j, dev1, bound))
        if dev2 > bound + tol:
            expectation_failures.append(("u2", i, j, dev2, bound))
    if expectation_failures:
        failures.append(f"{len(expectation_failures)} expectation bounds failed")

    ordered = [states[(i, j)] for i in range1 for j in range2]
    mat = np.asarray(ordered)
    gram = mat.conj() @ mat.T
    eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
    rank = int(np.sum(eigs > tol))
    independent = rank == d1 * d2
    if not independent:
        failures.append(f"gram rank {rank} < {d1 * d2}")

    return DoubleWitnessReport(
        n=n,
        d1=d1,
        d2=d2,
        gamma=gamma,
        delta=delta,
        delta_parts=delta_parts,
        threshold_lhs=lhs,
        threshold_rhs=rhs,
        eigvec_bound=eig_bound,
        residual_u1=resid1,
        residual_u2=resid2,
        dim_assumption_ok=(n <= d1 * d2),
        expectation_failures=expectation_failures,
        gram_rank=rank,
        gram_min_eigenvalue=float(eigs[0]),
        independent=independent,
        failures=failures,
    )

