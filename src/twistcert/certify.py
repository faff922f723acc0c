"""Certified lower bounds on the dimension of approximately twisted-commuting
unitary pairs.

For g x g unitaries u, v the commutator w = u v u^dag v^dag has det w = 1, so
|| u v - exp(2 pi i alpha) v u || >= lambda_min(g, alpha), and the clock/shift
pair attains it.  certify_single certifies the least g whose floor reaches
delta, the exact minimum dimension, from the outward-rounded floors of
minima.lambda_low: O(d_min) vectorised work, and certify_grid finds it for
many (alpha, delta) cells in one array.  The paper's arc construction stays as
arc_dimension, a reference no command calls: a pair within delta forces
eigenvalues of u into arcs around every power eta^j, 0 < |j| <= 2 / delta
(so its cost grows as 1 / delta), and the least number of points meeting
every arc (computed greedily on the circle) lower bounds the dimension, never
above the floor.  Two mutually approximately commuting twisted pairs certify
the product dimension through a shared approximate eigenvector and a
Gram-matrix independence argument.  verify_certificate checks a written
certificate of each kind in METHODS, the kinds certify_single and
certify_double write, from its own witness with exact comparisons.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .config import (
    ANGLE_MERGE,
    BOUND_SLACK,
    COINCIDENT_ANGLE,
    GRAM_TOL,
    RATIONAL_TWIST,
)
from .linalg import (
    eig_normal,
    norm_upper,
    require_unitary,
    twisted_commutator,
)
from .minima import TwistedPair, lambda_low
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
    "minimal_intervals",
    "greedy_transversal",
    "arc_dimension",
    "certify_single",
    "certify_grid",
    "certify_double",
    "verify_certificate",
    "orbit_expectations",
    "overlap_bound",
    "gram_independent",
    "pair_values",
    "verify_double_witness",
]

TWO_PI = 2.0 * np.pi

METHODS = ("single-closed-form", "determinant-floor", "double-pair")

# The least positive delta certify_single and the arc sweep accept.  It
# bounds the floor search: by Dirichlet's theorem some q < ceil(2 pi / delta)
# has dist(q alpha, Z) <= 1 / ceil(2 pi / delta), so lambda_min(q, alpha) <=
# delta and d_min < ceil(2 pi / delta) <= 6.3e6.  The arc sweep's 4 / delta
# orbit powers stay within 4e6.
_MIN_DELTA = 1e-6
# The floor search evaluates dimensions in chunks: _FIRST_CHUNK first, then
# twice as many each time, while one evaluation over all the open cells stays
# within _CHUNK_FLOORS floors (or _FIRST_CHUNK per cell).
_FIRST_CHUNK = 32
_CHUNK_FLOORS = 1 << 16


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

    def contains(self, angle: float) -> bool:
        d = abs(angle - self.center) % TWO_PI
        d = min(d, TWO_PI - d)
        return d <= self.half_width


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


def _arcs(alpha: float, delta: float):
    """The arcs of the orbit powers 0 < |j| <= floor(2 / delta), as (js,
    half, centers): powers with |j| delta >= 2 give the full circle and are
    skipped, so arccos never leaves [-1, 1]; the rest get half-widths
    arccos(1 - |j| delta) and centers 2 pi alpha j (mod 2 pi).  alpha must
    lie in [0, 1) and delta be finite and at least _MIN_DELTA (ValueError
    otherwise)."""
    if not (math.isfinite(delta) and delta >= _MIN_DELTA):
        raise ValueError(f"delta must be finite and at least {_MIN_DELTA:g}, got {delta}")
    _check_domain(alpha, delta)  # alpha in [0, 1)
    jmax = int(math.floor(2.0 / delta))
    js = np.arange(-jmax, jmax + 1)
    js = js[js != 0]
    z = np.abs(js) * delta
    keep = z < 2.0
    centers = (TWO_PI * alpha * js) % TWO_PI
    return js[keep], np.arccos(1.0 - z[keep]), centers[keep]


def minimal_intervals(alpha: float, delta: float) -> list[tuple[float, float]]:
    """The inclusion-minimal interval system on (0, 2 pi) after forcing an
    eigenvalue at angle 0, as (lo, hi) pairs ascending in lo and in hi (hi
    by more than ANGLE_MERGE from one interval to the next).  The arcs of
    _arcs within half + ANGLE_MERGE of angle 0 are discarded, the others
    unfolded at 0 to lo = (center - half) mod 2 pi, hi = lo + 2 half;
    duplicates are merged, and intervals containing another interval are
    dropped (stabbing the inner one stabs them both)."""
    _, half, centers = _arcs(alpha, delta)
    # arcs through the forced point drop out
    clear = np.minimum(centers, TWO_PI - centers) > half + ANGLE_MERGE
    half, centers = half[clear], centers[clear]
    lo = (centers - half) % TWO_PI
    hi = lo + 2.0 * half
    order = np.lexsort((-hi, lo))  # lo ascending, hi descending
    lo, hi = lo[order], hi[order]
    dup = np.zeros(lo.size, dtype=bool)
    dup[1:] = (np.abs(np.diff(lo)) <= ANGLE_MERGE) & (np.abs(np.diff(hi)) <= ANGLE_MERGE)
    lo, hi = lo[~dup], hi[~dup]
    # with this ordering any interval contained in [lo_i, hi_i] appears
    # later, so interval i is minimal iff every later right endpoint exceeds
    # hi_i + ANGLE_MERGE
    after = np.minimum.accumulate(hi[::-1])[::-1]
    keep = np.ones(hi.size, dtype=bool)
    keep[:-1] = after[1:] > hi[:-1] + ANGLE_MERGE
    return list(zip(lo[keep].tolist(), hi[keep].tolist()))


def greedy_transversal(intervals) -> list[float]:
    """Minimum stabbing points for closed intervals on a line: sort by right
    endpoint and stab at the right end of each interval not already covered,
    that is, starting more than ANGLE_MERGE beyond the last stab.  Optimal
    for interval systems (exchange argument on the earliest right endpoint)."""
    stabs: list[float] = []
    last = -math.inf
    for lo, hi in sorted(intervals, key=lambda t: t[1]):
        if last < lo - ANGLE_MERGE:
            stabs.append(hi)
            last = hi
    return stabs


def arc_dimension(alpha: float, delta: float) -> int:
    """The dimension the paper's arc construction certifies at delta >=
    _MIN_DELTA: the forced eigenvalue at angle 0 plus the greedy stabs of the
    minimal intervals.  Never above certify_single(alpha, delta).d_min."""
    return 1 + len(greedy_transversal(minimal_intervals(alpha, delta)))


def _rational_twist(alpha: float, cap: int = 10 ** 6) -> tuple[int, int] | None:
    """Detect alpha = p/q with q <= cap.  The accept window sits at float
    resolution: a true rational hits its reduced form to within an ulp, while
    the best cap-bounded approximant of an irrational misses by ~1/q^2."""
    frac = Fraction(alpha).limit_denominator(cap)
    if abs(alpha - float(frac)) <= RATIONAL_TWIST:
        return frac.numerator, frac.denominator
    return None


def certify_single(alpha: float, delta: float) -> Certificate:
    """Certified minimum dimension of unitaries u, v with
    || u v - exp(2 pi i alpha) v u || <= delta (operator norm).

    delta > 0 certifies the least g whose outward-rounded floor
    minima.lambda_low(g, alpha) is at most delta: every smaller dimension
    has lambda_min > delta, so no pair of it comes within delta, and the
    clock/shift pair of dimension g attains lambda_min(g, alpha).  The
    search evaluates the floors in doubling chunks and stops at the first
    hit, below ceil(2 pi / delta) (see _MIN_DELTA).  The certificate's kind
    is determinant-floor, its witness is empty, and for d_min > 1 its slack
    is the least floor below d_min less delta: up to that distance delta
    can grow with d_min still certified.  delta = 0 requires a rational
    twist alpha = p/q (continued-fraction detection, denominator up to 1e6)
    and certifies q exactly.
    """
    _check_domain(alpha, delta)

    if delta == 0.0:
        q = _exact_dimension(alpha)
        return Certificate(
            d_min=q,
            method="single-closed-form",
            inputs={"alpha": alpha, "delta": 0.0},
            slack=0.0,
            witness={"exact": True, "denominator": q},
        )

    dims, least = _floor_search(np.array([alpha]), np.array([delta]))
    d_min = int(dims[0])
    return Certificate(
        d_min=d_min,
        method="determinant-floor",
        inputs={"alpha": alpha, "delta": delta},
        slack=None if d_min == 1 else float(least[0]) - delta,
        witness={},
    )


def _floor_search(alpha: np.ndarray, delta: np.ndarray, limit: float = math.inf):
    """For every cell (alpha[i], delta[i]) with delta[i] >= _MIN_DELTA, the
    first dimension g <= limit with lambda_low(g, alpha[i]) <= delta[i], as
    arrays (dims, least): dims[i] is that g (0 when no g up to limit
    qualifies) and least[i] the least floor of the dimensions before it (inf
    for none).  Each evaluation covers one chunk of dimensions for every
    cell still open, as one (cells, chunk) array.  No search passes
    ceil(2 pi / delta), below which Dirichlet's theorem places a hit."""
    dims = np.zeros(alpha.size, dtype=np.int64)
    least = np.full(alpha.size, math.inf)
    if not alpha.size:
        return dims, least
    limit = min(limit, math.ceil(2.0 * math.pi / float(delta.min())))
    todo = np.arange(alpha.size)
    start, size = 1, _FIRST_CHUNK
    while todo.size and start <= limit:
        gs = np.arange(start, min(start + size, limit + 1))
        floors = lambda_low(gs, alpha[todo, None])
        hit = floors <= delta[todo, None]
        first = np.where(hit.any(axis=1), hit.argmax(axis=1), gs.size)
        before = np.where(np.arange(gs.size) < first[:, None], floors, math.inf)
        least[todo] = np.minimum(least[todo], before.min(axis=1))
        found = first < gs.size
        dims[todo[found]] = start + first[found]
        todo = todo[~found]
        start += gs.size
        size = min(2 * size, max(_FIRST_CHUNK, _CHUNK_FLOORS // max(todo.size, 1)))
    return dims, least


def _exact_dimension(alpha: float) -> int:
    """The dimension q that delta = 0 certifies at a rational twist
    alpha = p/q (see _rational_twist)."""
    rat = _rational_twist(alpha)
    if rat is None:
        raise ValueError(
            "delta = 0 with an irrational twist certifies no finite dimension; "
            "supply a rational alpha"
        )
    return rat[1]


def certify_grid(cells) -> list[int]:
    """certify_single(alpha, delta).d_min for every (alpha, delta) pair of
    cells, in order, with no slack.

    Every cell is checked first, in order, so an invalid cell raises
    certify_single's message for it before any floor is evaluated.
    delta = 0 cells take the closed form; the others share one floor search
    (_floor_search), which evaluates each chunk of dimensions for all the
    open cells at once."""
    cells = np.array([(float(a), float(d)) for a, d in cells]).reshape(-1, 2)
    alpha, delta = cells.T
    # the cells _check_domain accepts; it raises for the first other one
    valid = ((0.0 <= alpha) & (alpha < 1.0) & np.isfinite(delta)
             & ((delta == 0.0) | (delta >= _MIN_DELTA)))
    bad = np.flatnonzero(~valid)
    end = int(bad[0]) if bad.size else alpha.size
    dims = np.ones(alpha.size, dtype=np.int64)
    for i in np.flatnonzero(delta[:end] == 0.0):
        dims[i] = _exact_dimension(float(alpha[i]))
    if bad.size:
        _check_domain(float(alpha[end]), float(delta[end]))
    swept = np.flatnonzero(delta > 0.0)
    dims[swept] = _floor_search(alpha[swept], delta[swept])[0]
    return dims.tolist()


def _check_domain(alpha: float, delta: float) -> None:
    """Raise ValueError unless certify_single accepts (alpha, delta): alpha in
    [0, 1), delta finite and either 0 or at least _MIN_DELTA."""
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if 0.0 < delta < _MIN_DELTA:
        raise ValueError(
            f"delta = {delta:.3e} lies below {_MIN_DELTA:g}, the least delta the "
            "floor search accepts; use the exact route (delta = 0) or a coarser value"
        )


def _sweep_delta(delta: float) -> float:
    """delta raised to _MIN_DELTA when it lies in (0, _MIN_DELTA), where
    certify_single refuses it: certifying at a larger delta is always sound."""
    return max(delta, _MIN_DELTA) if delta > 0.0 else delta


def _double_threshold(d1: int, d2: int, gamma: float,
                      delta: float) -> tuple[float, float]:
    """Both sides of the two-pair condition lhs < rhs of certify_double."""
    lhs = math.sqrt(gamma) * d1 * d2 + (d1 + d2) * delta
    rhs = float(np.sin(np.pi / (2 * d1)) ** 2 / (d1 * d2 - 1) ** 2)
    return lhs, rhs


def _check_double_domain(d1: int, d2: int, gamma: float, delta: float) -> None:
    """Raise ValueError unless certify_double accepts its arguments."""
    if not (2 <= d1 <= d2):
        raise ValueError(f"need 2 <= d1 <= d2, got d1={d1}, d2={d2}")
    for name, value in (("gamma", gamma), ("delta", delta)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if gamma < 0 or delta < 0:
        raise ValueError("gamma and delta must be nonnegative")


def certify_double(d1: int, d2: int, gamma: float, delta: float) -> Certificate:
    """Certified dimension for two twisted pairs (twists 1/d1 and 1/d2) whose
    five mutual (twisted) commutation values are bounded by gamma and delta.

    Certifies d1 * d2 when

        sqrt(gamma) d1 d2 + (d1 + d2) delta < sin^2(pi / 2 d1) / (d1 d2 - 1)^2,

    otherwise falls back to the best single-pair certificate (certify_single
    at twists 1/d1 and 1/d2) at _sweep_delta(delta).
    """
    _check_double_domain(d1, d2, gamma, delta)
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
    singles = [certify_single(1.0 / d, _sweep_delta(delta)) for d in (d1, d2)]
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


def _real(value, name: str) -> float:
    """A certificate number: a finite int or float, not a bool or a string."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, name: str) -> int:
    """A certificate integer: an int, not a bool or an integral float."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def verify_certificate(cert: Certificate) -> str | None:
    """Why a certificate read back from JSON fails to prove d >= cert.d_min,
    or None when it proves it.  Raises ValueError when it is malformed: a
    field its kind needs is missing, of the wrong type, not finite, or
    outside its certifier's domain.

    Each kind of METHODS is checked from its own witness with exact
    comparisons, and no arc sweep runs (Certificate rejects any other kind):
    - determinant-floor: _floor_failure, in O(d_min);
    - single-closed-form: delta = 0, d_min = witness.denominator = the
      denominator of the rational alpha, slack = 0.0 and witness.exact true;
    - double-pair: the recomputed threshold lhs < rhs holds, d_min = d1 d2,
      and slack = rhs - lhs and the witness lhs and rhs equal the recomputed;
    - any other kind whose inputs hold d1, d2, gamma and delta is
      certify_double's single-pair fallback: its twist is 1/d1 or 1/d2, the
      threshold fails by exactly double_pair_threshold_failed_by, and its
      kind's check holds at that twist and _sweep_delta(delta)."""
    inputs, witness = cert.inputs, cert.witness
    if not isinstance(inputs, dict) or not isinstance(witness, dict):
        raise ValueError("inputs and witness must be objects")
    slack = None if cert.slack is None else _real(cert.slack, "slack")
    if cert.method != "double-pair" and not {"d1", "d2", "gamma", "delta"} <= set(inputs):
        return _single_failure(cert, _real(inputs.get("alpha"), "inputs.alpha"),
                               _real(inputs.get("delta"), "inputs.delta"), slack)
    d1, d2 = (_integer(inputs.get(k), f"inputs.{k}") for k in ("d1", "d2"))
    gamma, delta = (_real(inputs.get(k), f"inputs.{k}") for k in ("gamma", "delta"))
    _check_double_domain(d1, d2, gamma, delta)
    lhs, rhs = _double_threshold(d1, d2, gamma, delta)
    if cert.method != "double-pair":
        alpha = _real(witness.get("single_pair_twist"), "witness.single_pair_twist")
        failed_by = _real(witness.get("double_pair_threshold_failed_by"),
                          "witness.double_pair_threshold_failed_by")
        if alpha not in (1.0 / d1, 1.0 / d2):
            return f"single_pair_twist {alpha!r} is neither 1/d1 nor 1/d2"
        if lhs < rhs:
            return (f"the double-pair threshold holds (lhs {lhs!r} < rhs {rhs!r}), "
                    "so the certificate should be double-pair")
        if failed_by != lhs - rhs:
            return (f"double_pair_threshold_failed_by {failed_by!r} differs from "
                    f"lhs - rhs = {lhs - rhs!r}")
        return _single_failure(cert, alpha, _sweep_delta(delta), slack)
    if not lhs < rhs:
        return f"the double-pair threshold fails: lhs {lhs!r} >= rhs {rhs!r}"
    claimed = (cert.d_min, slack, witness.get("lhs"), witness.get("rhs"))
    if claimed != (d1 * d2, rhs - lhs, lhs, rhs):
        return (f"d_min, slack and witness lhs, rhs {claimed!r} must equal d1 d2, "
                f"rhs - lhs, lhs, rhs = {(d1 * d2, rhs - lhs, lhs, rhs)!r}")
    return None


def _single_failure(cert: Certificate, alpha: float, delta: float,
                    slack: float | None) -> str | None:
    """verify_certificate's check of a single-pair kind at (alpha, delta)."""
    witness = cert.witness
    if cert.method == "determinant-floor":
        return _floor_failure(alpha, delta, cert.d_min, slack)
    if delta != 0.0:
        return f"a closed-form certificate needs delta = 0, got {delta!r}"
    _check_domain(alpha, delta)
    q = _exact_dimension(alpha)
    denominator = _integer(witness.get("denominator"), "witness.denominator")
    if (cert.d_min, denominator, slack) != (q, q, 0.0):
        return (f"d_min {cert.d_min}, witness.denominator {denominator} and slack "
                f"{slack!r} must be the denominator {q} of alpha, {q} and 0.0")
    if witness.get("exact") is not True:
        return f"witness.exact {witness.get('exact')!r} must be true"
    return None


def _floor_failure(alpha: float, delta: float, d_min: int,
                   slack: float | None) -> str | None:
    """verify_certificate's check of a determinant-floor certificate:
    recomputed with _floor_search, d_min must be the first dimension whose
    floor reaches delta, and the slack must equal the least floor below it
    less delta (None for d_min = 1), exactly.  The search stops at the first
    dimension that reaches delta, so an overstated d_min costs at most
    ceil(2 pi / delta) floors."""
    _check_domain(alpha, delta)
    if delta == 0.0:
        return "a determinant-floor certificate needs delta > 0"
    dims, least = _floor_search(np.array([alpha]), np.array([delta]), limit=d_min)
    first = int(dims[0])
    if first == 0:
        return (f"the floor of d_min = {d_min} exceeds delta = {delta!r}: a larger "
                "dimension is the least one the floor allows")
    if first < d_min:
        return (f"the floor of dimension {first} is at most delta = {delta!r}, "
                f"so d_min = {d_min} overstates it")
    expected = None if d_min == 1 else float(least[0]) - delta
    if slack != expected:
        return f"slack {slack!r} differs from the least floor less delta = {expected!r}"
    return None


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


def orbit_expectations(pair: TwistedPair, j_range=None) -> list[OrbitExpectation]:
    """Expectation values of u along the orbit |j> = v^j |psi> of a +1
    eigenvector of (phase-normalized) u.

    Each expectation lies within |j| * delta of eta^j; a violation beyond
    config.BOUND_SLACK indicates a numerical failure and raises.  The default
    orbit covers j = -floor((d-1)/2) .. ceil((d-1)/2) with d = round(1/alpha);
    pass j_range explicitly when alpha = 0.
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
        if dev > bound + BOUND_SLACK:
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
    if sep <= COINCIDENT_ANGLE:
        raise ValueError("coincident expectation targets: no overlap bound")
    return float(np.sqrt(2.0 * zeta) / np.sin(sep / 4.0))


class GramCheck(NamedTuple):
    independent: bool
    min_eigenvalue: float
    max_overlap: float
    threshold: float


def gram_independent(vectors) -> GramCheck:
    """Linear independence via strict diagonal dominance of the Gram matrix:
    pairwise overlaps below 1/(n-1) make the Gram matrix nonsingular
    (Gershgorin).  The minimum Gram eigenvalue is reported as a direct
    certificate.  At overlap exactly -1/(n-1) the Gram matrix is singular, so
    the strict inequality is required.  The vectors must have unit norm to
    within config.GRAM_TOL."""
    mat = np.asarray([np.asarray(v, dtype=np.complex128).ravel() for v in vectors])
    n = mat.shape[0]
    norms = np.linalg.norm(mat, axis=1)
    if np.any(np.abs(norms - 1.0) > GRAM_TOL):
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

    gamma: float
    delta: float
    delta_parts: dict
    threshold_lhs: float
    threshold_rhs: float
    dim_assumption_ok: bool
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
    (both twisted commutators and the cross commutators [u1, v2], [u2, v1]).
    Each is an operator-norm upper bound proven by `linalg.norm_upper`, at
    most 1e-9 relative above the true value for n <= 1000."""
    gamma = norm_upper(twisted_commutator(u1, u2, 0.0))
    deltas = {
        "u1v1_twist": norm_upper(twisted_commutator(u1, v1, 1.0 / d1)),
        "u2v2_twist": norm_upper(twisted_commutator(u2, v2, 1.0 / d2)),
        "u1v2": norm_upper(twisted_commutator(u1, v2, 0.0)),
        "u2v1": norm_upper(twisted_commutator(u2, v1, 0.0)),
    }
    return gamma, deltas


def verify_double_witness(u1, u2, v1, v2, d1: int, d2: int) -> DoubleWitnessReport:
    """Construct and check the two-pair dimension witness directly.

    Measures the five commutation values, builds a shared approximate +1
    eigenvector |psi> of u1 and u2 (after phase normalization), forms the
    orbit |i, j> = v1^i v2^j |psi>, checks the expectation-value bounds
    sqrt(gamma) d1 d2 / 2 + (|i| + |j|) delta for both operator families
    (allowance config.BOUND_SLACK), and reports the rank of the orbit Gram
    matrix (eigenvalues above config.GRAM_TOL).  Any
    failed bound is recorded in `failures` rather than raised: instances
    outside the certification threshold are expected to fail here.
    """
    if not (2 <= d1 <= d2):
        raise ValueError(f"need 2 <= d1 <= d2, got d1={d1}, d2={d2}")
    mats = [require_unitary(m, name)
            for name, m in zip(("u1", "u2", "v1", "v2"), (u1, u2, v1, v2))]
    u1, u2, v1, v2 = mats
    n = u1.shape[0]
    if any(m.shape != (n, n) for m in mats):
        raise ValueError("all four operators must share one dimension")

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
    eig_bound = math.sqrt(gamma) * d1 * d2 / 2.0
    for name, op in (("u1", u1p), ("u2", u2p)):
        resid = float(np.linalg.norm(op @ psi - psi))
        if resid > eig_bound + BOUND_SLACK:
            failures.append(f"shared eigenvector residual ({name}) {resid:.3e} > "
                            f"{eig_bound:.3e}")

    range1, range2 = _orbit_range(d1), _orbit_range(d2)
    eta1 = np.exp(2j * np.pi / d1)
    eta2 = np.exp(2j * np.pi / d2)

    pow1 = _orbit(v1, range1, np.eye(n, dtype=complex))
    cols = _orbit(v2, range2, psi)
    states = {(i, j): pow1[i] @ cols[j] for j in range2 for i in range1}

    failed = 0
    for (i, j), state in states.items():
        bound = eig_bound + (abs(i) + abs(j)) * delta + BOUND_SLACK
        failed += abs(complex(np.vdot(state, u1p @ state)) - eta1 ** i) > bound
        failed += abs(complex(np.vdot(state, u2p @ state)) - eta2 ** j) > bound
    if failed:
        failures.append(f"{failed} expectation bounds failed")

    ordered = [states[(i, j)] for i in range1 for j in range2]
    mat = np.asarray(ordered)
    gram = mat.conj() @ mat.T
    eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
    rank = int(np.sum(eigs > GRAM_TOL))
    independent = rank == d1 * d2
    if not independent:
        failures.append(f"gram rank {rank} < {d1 * d2}")

    return DoubleWitnessReport(
        gamma=gamma,
        delta=delta,
        delta_parts=delta_parts,
        threshold_lhs=lhs,
        threshold_rhs=rhs,
        dim_assumption_ok=(n <= d1 * d2),
        gram_rank=rank,
        gram_min_eigenvalue=float(eigs[0]),
        independent=independent,
        failures=failures,
    )

