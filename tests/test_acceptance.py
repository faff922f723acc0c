"""Acceptance suite: one test per top-level criterion, each printing a
PASS/FAIL line (run with -s to see them alongside the pytest verdicts).

1. Closed-form minimum tightness across (p, k) norms.
2. Descent oracle never beats the closed-form floor.
3. Arc-transversal reproduction: worked example (3 by the arcs, 4 by the
   determinant floor), threshold points, and greedy = exhaustive on small
   instances.
4. Band restriction bounds on seeded instances, including width variants and
   both exact tightness configurations.
5. Shared approximate eigenvector bounds, both variants, with block checks.
6. Spectral distance vs norm distance, assignment verified exhaustively.
7. Two-pair certification on exact and perturbed tensor models.
8. Floor and arc certificates never contradict the closed-form floor, and
   the floor is never below the arcs.
"""

import itertools
import time

import numpy as np

from twistcert import (
    ModelSpec,
    NormSpec,
    arc_dimension,
    brute_min,
    certify_double,
    certify_grid,
    certify_single,
    clock_model,
    greedy_transversal,
    ground_symmetry,
    haar_unitary,
    is_unitary,
    lambda_min,
    minimal_intervals,
    optimal_pair,
    restrict_pair,
    shared_approx_eigenvector,
    shared_approx_eigenvector_normal,
    single_pair_threshold,
    spectral_distance,
    tensor_double_model,
    verify_double_witness,
)
from twistcert.certify import pair_values
from twistcert.linalg import eig_normal


def report(criterion, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({elapsed:.1f}s) {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_lambda_tightness():
    t0 = time.time()
    worst = 0.0
    for g in range(2, 11):
        for alpha in np.linspace(0.0, 1.0, 200, endpoint=False):
            pair = optimal_pair(g, float(alpha))
            t = pair.commutator()
            sv = np.linalg.svd(t, compute_uv=False)
            for p in (2.0, 3.0, np.inf):
                for k in (1, g):
                    spec = NormSpec(p, k)
                    got = (
                        sv[0] if np.isinf(p)
                        else float(np.sum(sv[:k] ** p) ** (1.0 / p))
                    )
                    want = lambda_min(g, float(alpha), spec)
                    worst = max(worst, abs(got - want))
    elapsed = time.time() - t0
    report(1, worst <= 1e-9 and elapsed < 10.0, elapsed,
           f"max |measured - closed form| = {worst:.2e}")


def test_criterion_2_brute_force_floor():
    t0 = time.time()
    op = NormSpec(np.inf, 1)
    worst = np.inf
    for g in (2, 3):
        for alpha in np.linspace(0.025, 0.975, 20):
            best = brute_min(g, float(alpha), op, restarts=50, seed=2026)
            worst = min(worst, best - lambda_min(g, float(alpha)))
    elapsed = time.time() - t0
    report(2, worst >= -1e-6 and elapsed < 300.0, elapsed,
           f"min (descent - floor) = {worst:.2e}")


def test_criterion_3_transversal_reproduction():
    t0 = time.time()
    ok = arc_dimension(0.25, 0.5) == 3 and certify_single(0.25, 0.5).d_min == 4
    detail = ["worked example d=3 (arcs), 4 (floor)" if ok else "worked example FAILED"]
    for d in range(2, 9):
        delta = single_pair_threshold(d) - 1e-9
        got = arc_dimension(1.0 / d, delta)
        if got < d:
            ok = False
            detail.append(f"threshold point d={d} gave {got}")

    def exhaustive(intervals, tol=1e-12):
        if not intervals:
            return 0
        cands = sorted({hi for _, hi in intervals})
        for k in range(1, len(intervals) + 1):
            for combo in itertools.combinations(cands, k):
                if all(any(lo - tol <= x <= hi + tol for x in combo)
                       for lo, hi in intervals):
                    return k
        return len(intervals)

    rng = np.random.default_rng(3)
    checked = 0
    while checked < 150:
        alpha = float(rng.uniform(0.0, 1.0))
        delta = float(rng.uniform(0.05, 2.0))
        iv = minimal_intervals(alpha, delta)
        if len(iv) > 9:
            continue
        checked += 1
        if len(greedy_transversal(iv)) != exhaustive(iv):
            ok = False
            detail.append(f"greedy != exhaustive at ({alpha}, {delta})")
    elapsed = time.time() - t0
    report(3, ok and elapsed < 30.0, elapsed, "; ".join(detail))


def test_criterion_4_restriction_bounds():
    t0 = time.time()
    rng = np.random.default_rng(4)
    ok = True
    detail = []
    checked = 0
    attempts = 0
    while checked < 500 and attempts < 1500:
        attempts += 1
        g = int(rng.integers(2, 6))
        s = float(rng.uniform(0.0, 0.12))
        width = float(rng.choice([0.0, 0.0, 0.1, 0.2]))
        spec = ModelSpec(kind="clock-block", g=g, n_excited=2 * g, gap=1.0,
                         width=width, perturbation_strength=s,
                         seed=int(rng.integers(0, 2 ** 31)))
        model = clock_model(spec)
        try:
            res = restrict_pair(model.u, model.v, model.band, model.alpha)
        except ValueError:  # xi >= 1
            continue
        if not (is_unitary(res.u, 1e-10) and is_unitary(res.v, 1e-10)):
            ok = False
            detail.append(f"non-unitary restriction at seed {spec.seed}")
        if res.delta_out_measured > res.delta_out_bound + 1e-8:
            ok = False
            detail.append(
                f"bound violated at seed {spec.seed}: "
                f"{res.delta_out_measured:.3e} > {res.delta_out_bound:.3e}"
            )
        checked += 1
    if checked < 500:
        ok = False
        detail.append(f"only {checked} usable instances")

    # tight case 1: H = gap * Pbar gives off-diagonal equality
    from twistcert import BandSpec, commutator_epsilon, offdiag_norm

    n, r = 7, 3
    h = np.zeros((n, n), dtype=complex)
    h[r:, r:] = 1.3 * np.eye(n - r)
    p = np.zeros((n, n), dtype=complex)
    p[:r, :r] = np.eye(r)
    band = BandSpec(h, p)
    for seed in range(10):
        u = haar_unitary(n, seed)
        gap_eq = abs(offdiag_norm(u, band) - commutator_epsilon(u, band) / band.gap)
        if gap_eq > 1e-12:
            ok = False
            detail.append(f"off-diagonal equality off by {gap_eq:.2e}")

    # tight case 2: two-level rotation gives band distance 1 - cos(phi)
    h2 = np.diag([0.0, 1.0]).astype(complex)
    p2 = np.diag([1.0, 0.0]).astype(complex)
    band2 = BandSpec(h2, p2)
    for phi in (0.15, 0.6, 1.1):
        u2 = np.array(
            [[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]],
            dtype=complex,
        )
        gs = ground_symmetry(u2, band2)
        if abs(gs.dist_band_measured - (1.0 - np.cos(phi))) > 1e-12:
            ok = False
            detail.append(f"rotation tightness off at phi={phi}")
    elapsed = time.time() - t0
    report(4, ok and elapsed < 120.0, elapsed,
           "; ".join(detail) or f"{checked} instances")


def test_criterion_5_shared_eigenvectors():
    t0 = time.time()
    rng = np.random.default_rng(5)
    ok = True
    detail = []
    for trial in range(500):
        n = int(rng.integers(3, 17))
        w = haar_unitary(n, rng)
        base = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
        a = w @ base @ w.conj().T
        b0 = w @ np.diag(np.exp(2j * np.pi * rng.uniform(size=n))) @ w.conj().T
        scale = 10.0 ** rng.uniform(-8, -2)
        if trial % 2:
            # normal (unitary) perturbation of b0
            from scipy.linalg import expm

            k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            k = (k + k.conj().T) / 2
            k /= np.linalg.norm(k, 2)
            b = b0 @ expm(1j * scale * k)
            both_normal = True
        else:
            k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = b0 + scale * k / np.linalg.norm(k, 2)
            both_normal = False
        dec = eig_normal(a)
        lam = complex(dec.eigenvalues[int(rng.integers(0, n))])
        res = shared_approx_eigenvector(a, b, lam)
        if res.residual_a > res.bound + 1e-10 or res.residual_b > res.bound + 1e-10:
            ok = False
            detail.append(f"general bound violated at trial {trial}")
        if (res.a_block_deviation > res.a_block_bound + 1e-10
                or res.b_offdiag_norm > res.b_offdiag_bound + 1e-10):
            ok = False
            detail.append(f"block bound violated at trial {trial}")
        if both_normal:
            resn = shared_approx_eigenvector_normal(a, b, lam)
            if (resn.residual_a > resn.bound + 1e-10
                    or resn.residual_b > resn.bound + 1e-10):
                ok = False
                detail.append(f"normal bound violated at trial {trial}")
            b_eigs = eig_normal(b).eigenvalues
            if np.min(np.abs(b_eigs - resn.eigenvalue_b)) > 1e-10:
                ok = False
                detail.append(f"eigenvalue not in spectrum at trial {trial}")
    elapsed = time.time() - t0
    report(5, ok and elapsed < 120.0, elapsed, "; ".join(detail) or "500 instances")


def test_criterion_6_spectral_distance():
    t0 = time.time()
    rng = np.random.default_rng(6)
    ok = True
    detail = []
    for trial in range(1000):
        n = int(rng.integers(2, 9))
        u1, u2 = haar_unitary(n, rng), haar_unitary(n, rng)
        da = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        db = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a = u1 @ np.diag(da) @ u1.conj().T
        b = u2 @ np.diag(db) @ u2.conj().T
        d = spectral_distance(a, b, 2.0)
        if d > np.linalg.norm(a - b) + 1e-9:
            ok = False
            detail.append(f"norm bound violated at trial {trial}")
        if n <= 6:
            best = min(
                np.sqrt(np.sum(np.abs(np.asarray(perm) - db) ** 2))
                for perm in itertools.permutations(da)
            )
            if abs(d - best) > 1e-9 * max(1.0, best):
                ok = False
                detail.append(f"assignment suboptimal at trial {trial}")
    elapsed = time.time() - t0
    report(6, ok and elapsed < 60.0, elapsed, "; ".join(detail) or "1000 pairs")


def _tuned_tensor_model(d1, d2, seed):
    """Find a perturbation strength small enough that the restricted two-pair
    witness passes, by halving from a coarse start."""
    s = 0.02
    for _ in range(12):
        spec = ModelSpec(kind="tensor-double", g=d1, g2=d2,
                         n_excited=d1 * d2, gap=1.0,
                         perturbation_strength=s, seed=seed)
        model = tensor_double_model(spec)
        try:
            ops = [ground_symmetry(op, model.band).on_band
                   for op in (model.u1, model.u2, model.v1, model.v2)]
        except ValueError:  # xi >= 1
            pass
        else:
            rep = verify_double_witness(ops[0], ops[1], ops[2], ops[3], d1, d2)
            if rep.ok:
                return model, rep, s
        s /= 2.0
    return None, None, s


def test_criterion_7_two_pair_certification():
    t0 = time.time()
    ok = True
    detail = []
    for d1 in range(2, 5):
        for d2 in range(d1, 5):
            spec = ModelSpec(kind="tensor-double", g=d1, g2=d2,
                             n_excited=d1 * d2, gap=1.0, seed=7)
            model = tensor_double_model(spec)
            gamma, deltas = pair_values(model.u1, model.u2, model.v1, model.v2, d1, d2)
            cert = certify_double(d1, d2, gamma, max(deltas.values()))
            if cert.d_min != d1 * d2:
                ok = False
                detail.append(f"exact ({d1},{d2}) certified {cert.d_min}")
            model2, rep, s = _tuned_tensor_model(d1, d2, seed=70 + d1 + 10 * d2)
            if rep is None:
                ok = False
                detail.append(f"no passing perturbation for ({d1},{d2})")
                continue
            if s <= 1e-7:
                detail.append(f"warning: ({d1},{d2}) needed s={s:.1e}")
            if rep.gram_rank != d1 * d2:
                ok = False
                detail.append(f"perturbed ({d1},{d2}) gram rank {rep.gram_rank}")
            cert2 = certify_double(d1, d2, rep.gamma, rep.delta)
            if cert2.d_min != d1 * d2 or cert2.method != "double-pair":
                ok = False
                detail.append(f"perturbed ({d1},{d2}) certified {cert2.d_min}")
    elapsed = time.time() - t0
    report(7, ok and elapsed < 180.0, elapsed, "; ".join(detail) or "all pairs")


def test_criterion_8_cross_module_soundness():
    t0 = time.time()
    violations = 0
    cells = [(float(alpha), float(delta)) for alpha in np.linspace(0.005, 0.995, 100)
             for delta in np.linspace(0.02, 2.0, 100)]
    dims, arcs = [], []
    for alpha, delta in cells:
        dims.append(certify_single(alpha, delta).d_min)
        arcs.append(arc_dimension(alpha, delta))
        for g in range(1, max(dims[-1], arcs[-1])):
            if not delta < lambda_min(g, alpha):
                violations += 1
    gain = np.array(dims) - np.array(arcs)
    elapsed = time.time() - t0
    report(8, violations == 0 and elapsed < 60.0, elapsed,
           f"{violations} violations on the 100x100 grid; the floor is higher on "
           f"{np.sum(gain > 0)} cells")
    assert certify_grid(cells) == dims
    # the floor is never below the arcs, and above them on a third of the map
    assert (np.sum(gain > 0), np.sum(gain < 0)) == (3254, 0)
    assert (max(dims), cells[int(np.argmax(dims))]) == (123, (0.005, 0.02))
