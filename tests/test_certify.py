"""Certification tests: arc construction, the greedy transversal against an
exhaustive oracle, closed-form thresholds, orbit expectation bounds, overlap
and Gram independence checks, and the two-pair certificate."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistcert import certify as certify_module
from twistcert import (
    Certificate,
    certify_double,
    certify_lambda_exclusion,
    certify_single,
    clock_matrix,
    eigenvalue_arc,
    gram_independent,
    greedy_transversal,
    haar_unitary,
    lambda_min,
    minimal_intervals,
    orbit_expectations,
    overlap_bound,
    shift_matrix,
    single_pair_threshold,
    verify_double_witness,
    TwistedPair,
)
from twistcert.cli import recheck_certificate
from twistcert.config import DEFAULT_TOL


def bisection_slack(alpha, delta, merge_tol=None):
    """The slack search certify_single ran before the packing-event walk,
    kept verbatim as a reference: 60 bisection steps, each a full sweep."""
    merge_tol = DEFAULT_TOL.angle_merge if merge_tol is None else merge_tol

    def certified_dim(x):
        intervals = minimal_intervals(alpha, x, merge_tol)
        return 1 + len(greedy_transversal(intervals, merge_tol))

    d_min = certified_dim(delta)
    lo, hi = delta, 2.0 + 1e-9
    if certified_dim(hi) >= d_min:
        return hi - delta  # never weakens on the sweep range
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if certified_dim(mid) >= d_min:
            lo = mid
        else:
            hi = mid
    return lo - delta


def exhaustive_transversal(intervals, tol=1e-12):
    """Brute-force minimum stabbing number over right-endpoint subsets.  An
    optimal stabbing can always slide each point right to the nearest right
    endpoint, so right endpoints suffice as candidates."""
    if not intervals:
        return 0
    cands = sorted({hi for _, hi in intervals})
    for k in range(1, len(intervals) + 1):
        for combo in itertools.combinations(cands, k):
            if all(any(lo - tol <= p <= hi + tol for p in combo)
                   for lo, hi in intervals):
                return k
    return len(intervals)


class TestThreshold:
    def test_closed_form_values(self):
        assert single_pair_threshold(2) == pytest.approx(2.0)
        assert single_pair_threshold(3) == pytest.approx(0.5)
        assert single_pair_threshold(4) == pytest.approx((2.0 / 3.0) * (1.0 - np.sqrt(2) / 2))
        assert single_pair_threshold(4) == pytest.approx(0.195262, abs=1e-6)

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            single_pair_threshold(1)


class TestBuildArcs:
    def test_worked_example_structure(self):
        from twistcert.certify import build_arcs

        arcs = build_arcs(0.25, 0.5)
        assert sorted(a.index for a in arcs) == [-3, -2, -1, 1, 2, 3]
        by_index = {a.index: a for a in arcs}
        assert by_index[1].half_width == pytest.approx(np.arccos(0.5))
        assert by_index[1].center == pytest.approx(np.pi / 2)
        assert by_index[2].half_width == pytest.approx(np.pi / 2)
        # index 3 arc wraps through the forced point at angle 0
        assert by_index[3].contains(0.0)
        assert not by_index[1].contains(0.0)

    def test_trivial_arcs_excluded(self):
        from twistcert.certify import build_arcs

        arcs = build_arcs(0.3, 1.0)
        assert all(abs(a.index) * 1.0 < 2.0 for a in arcs)


class TestEigenvalueArc:
    def test_point_arc(self):
        arc = eigenvalue_arc(0.0, 1.0)
        assert arc.half_width == 0.0

    def test_half_circle(self):
        assert eigenvalue_arc(1.0, 0.0).half_width == pytest.approx(np.pi / 2)

    def test_full_circle(self):
        assert eigenvalue_arc(2.0, 0.3).half_width == pytest.approx(np.pi)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            eigenvalue_arc(2.1, 0.0)
        with pytest.raises(ValueError):
            eigenvalue_arc(-0.1, 0.0)


class TestCertifySingle:
    def test_worked_example(self):
        cert = certify_single(0.25, 0.5)
        assert cert.d_min == 3
        assert cert.method == "greedy-transversal"
        assert len(cert.witness["stab_angles"]) == 2

    def test_trivial_arcs(self):
        assert certify_single(0.3, 2.5).d_min == 1
        assert certify_single(0.77, 2.0).d_min == 1

    def test_blue_cross_thresholds(self):
        for d in range(2, 9):
            delta = single_pair_threshold(d) - 1e-9
            assert certify_single(1.0 / d, delta, compute_slack=False).d_min >= d

    def test_monotone_in_delta(self):
        for alpha in (0.21, 1.0 / 3.0, 0.5, 0.77):
            prev = None
            for delta in np.linspace(0.02, 2.1, 60):
                d = certify_single(alpha, float(delta), compute_slack=False).d_min
                if prev is not None:
                    assert d <= prev
                prev = d

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            alpha = float(rng.uniform(0.01, 0.99))
            delta = float(rng.uniform(0.02, 2.0))
            a = certify_single(alpha, delta, compute_slack=False).d_min
            b = certify_single(1.0 - alpha, delta, compute_slack=False).d_min
            assert a == b

    def test_greedy_equals_exhaustive(self):
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(250):
            alpha = float(rng.uniform(0.0, 1.0))
            delta = float(rng.uniform(0.05, 2.0))
            iv = minimal_intervals(alpha, delta)
            if len(iv) > 9:
                continue
            checked += 1
            assert len(greedy_transversal(iv)) == exhaustive_transversal(iv)
        assert checked > 150

    def test_exact_rational(self):
        cert = certify_single(0.25, 0.0)
        assert cert.d_min == 4
        assert cert.method == "single-closed-form"
        assert certify_single(2.0 / 7.0, 0.0).d_min == 7
        assert certify_single(0.0, 0.0).d_min == 1

    def test_exact_irrational_rejected(self):
        with pytest.raises(ValueError):
            certify_single(1.0 / np.sqrt(2.0), 0.0)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            certify_single(0.3, -0.1)

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="delta must be finite"):
            certify_single(0.3, delta)

    def test_slack_is_distance_to_weaker_certificate(self):
        cert = certify_single(0.25, 0.5)
        assert cert.slack is not None
        at_edge = certify_single(0.25, 0.5 + cert.slack - 1e-9, compute_slack=False)
        beyond = certify_single(0.25, 0.5 + cert.slack + 1e-9, compute_slack=False)
        assert at_edge.d_min >= cert.d_min
        assert beyond.d_min < cert.d_min

    @pytest.mark.parametrize("merge_tol", [None, 1e-9])
    def test_slack_matches_bisection(self, merge_tol):
        rng = np.random.default_rng(9)
        alphas = [float(a) for a in rng.uniform(0.01, 0.99, 3)]
        alphas += [1 / 3, 5 / 12, 7 / 11]
        for alpha in alphas:
            for delta in np.geomspace(1e-4, 2.0, 6):
                cert = certify_single(alpha, float(delta), merge_tol=merge_tol)
                if cert.d_min == 1:
                    assert cert.slack is None
                    continue
                reference = bisection_slack(alpha, float(delta), merge_tol)
                assert cert.slack == pytest.approx(reference, rel=0, abs=1e-12)
                if merge_tol is None:
                    older = Certificate(cert.d_min, cert.method, cert.inputs,
                                        slack=reference)
                    assert recheck_certificate(older)[0]

    def test_slack_symmetric_under_conjugation(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            alpha = float(rng.uniform(0.01, 0.99))
            delta = float(np.exp(rng.uniform(np.log(1e-3), np.log(2.0))))
            a = certify_single(alpha, delta)
            b = certify_single(1.0 - alpha, delta)
            assert a.d_min == b.d_min
            if a.slack is None:
                assert b.slack is None
            else:
                assert a.slack == pytest.approx(b.slack, rel=0, abs=1e-12)

    def test_slack_sweeps_the_full_range_once(self, monkeypatch):
        sizes = []
        arcs = certify_module._arcs

        def counted(alpha, delta, js):
            sizes.append(len(js))
            return arcs(alpha, delta, js)

        monkeypatch.setattr(certify_module, "_arcs", counted)
        delta = 1e-3
        cert = certify_single(1 / 3 + 0.01, delta)
        assert cert.slack is not None and cert.slack > 0
        full = 2 * int(2 / delta)
        assert sizes.count(full) == 1
        probes = [n for n in sizes if n != full]
        assert probes and max(probes) <= cert.witness["minimal_interval_count"]

    @settings(max_examples=150, deadline=None)
    @given(alpha=st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                           st.fractions(0, 1, max_denominator=12)
                           .filter(lambda f: f < 1).map(float)),
           delta=st.floats(1e-3, 2.0),
           grow=st.floats(1.0, 50.0))
    def test_minimal_powers_shrink_as_delta_grows(self, alpha, delta, grow):
        later = min(2.0, delta * grow)
        before = set(minimal_intervals(alpha, delta).powers.tolist())
        after = set(minimal_intervals(alpha, later).powers.tolist())
        assert after <= before

    def test_soundness_against_lambda_floor(self):
        # certified dimension d rules out all g < d, so delta must sit below
        # the exact minimum for each ruled-out dimension
        rng = np.random.default_rng(2)
        for _ in range(200):
            alpha = float(rng.uniform(0.005, 0.995))
            delta = float(rng.uniform(0.02, 2.0))
            d = certify_single(alpha, delta, compute_slack=False).d_min
            for g in range(1, d):
                assert delta < lambda_min(g, alpha)


class TestOrbitExpectations:
    def test_exact_pair_hits_roots_of_unity(self):
        g = 5
        pair = TwistedPair(clock_matrix(g), shift_matrix(g), 1.0 / g)
        pts = orbit_expectations(pair)
        assert len(pts) == g
        for pt in pts:
            assert pt.deviation < 1e-10
            assert abs(pt.expectation - pair.eta ** pt.j) < 1e-10

    def test_j_zero_exact(self):
        pair = TwistedPair(clock_matrix(4), shift_matrix(4), 0.25)
        pts = {p.j: p for p in orbit_expectations(pair)}
        assert pts[0].deviation < 1e-12
        assert pts[0].bound == 0.0

    def test_perturbed_pair_within_bounds(self):
        rng = np.random.default_rng(3)
        g = 5
        for seed in range(30):
            u = clock_matrix(g)
            v = shift_matrix(g)
            # unitary perturbation of v keeps the pair unitary
            k = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
            k = (k + k.conj().T) / 2
            k /= np.linalg.norm(k, 2)
            from scipy.linalg import expm

            v = v @ expm(0.02j * k)
            pair = TwistedPair(u, v, 1.0 / g)
            for pt in orbit_expectations(pair):
                assert pt.deviation <= pt.bound + 1e-8

    def test_alpha_zero_needs_range(self):
        pair = TwistedPair(np.eye(3), np.eye(3), 0.0)
        with pytest.raises(ValueError):
            orbit_expectations(pair)
        pts = orbit_expectations(pair, j_range=range(-1, 2))
        assert len(pts) == 3

    def test_three_step_deviation_capped_by_three_delta(self):
        # a pair tuned near delta = 0.05: the j = 3 deviation stays below 0.15
        from scipy.linalg import expm

        g = 7
        u, v = clock_matrix(g), shift_matrix(g)
        rng = np.random.default_rng(8)
        k = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
        k = (k + k.conj().T) / 2
        k /= np.linalg.norm(k, 2)
        pair = TwistedPair(u, v @ expm(0.026j * k), 1.0 / g)
        assert 0.02 < pair.delta < 0.08
        pts = {p.j: p for p in orbit_expectations(pair)}
        assert pts[3].deviation <= 3 * pair.delta + 1e-10
        assert pts[3].bound == pytest.approx(3 * pair.delta)


class TestOverlapBound:
    def test_zero_error(self):
        assert overlap_bound(0.0, 0.0, np.pi) == 0.0

    def test_formula_value(self):
        got = overlap_bound(0.02, 0.0, np.pi)
        assert got == pytest.approx(0.2 * np.sqrt(2.0), rel=1e-12)

    def test_divergence_at_small_separation(self):
        assert overlap_bound(0.1, 0.0, 1e-6) > 1e2

    def test_coincident_rejected(self):
        with pytest.raises(ValueError):
            overlap_bound(0.1, 0.3, 0.3)
        with pytest.raises(ValueError):
            overlap_bound(0.1, 0.0, 2.0 * np.pi)


class TestGramIndependent:
    def test_orthonormal(self):
        res = gram_independent(list(np.eye(4)))
        assert res.independent
        assert res.min_eigenvalue == pytest.approx(1.0)

    def test_simplex_frame_is_singular(self):
        # n unit vectors with mutual overlap exactly -1/(n-1): singular Gram
        n = 4
        g = (1.0 + 1.0 / (n - 1)) * np.eye(n) - (1.0 / (n - 1)) * np.ones((n, n))
        w, vecs = np.linalg.eigh(g)
        w = np.clip(w, 0.0, None)
        frame = (vecs * np.sqrt(w)) @ vecs.T
        vectors = [frame[:, i] / np.linalg.norm(frame[:, i]) for i in range(n)]
        res = gram_independent(vectors)
        assert not res.independent
        assert res.max_overlap == pytest.approx(1.0 / (n - 1), abs=1e-9)
        assert abs(res.min_eigenvalue) < 1e-9

    def test_perturbed_orthonormal(self):
        rng = np.random.default_rng(4)
        base = np.eye(5, dtype=complex)
        vecs = []
        for i in range(5):
            v = base[i] + 0.05 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
            vecs.append(v / np.linalg.norm(v))
        res = gram_independent(vecs)
        assert res.independent
        assert res.min_eigenvalue > 0.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            gram_independent([np.array([2.0, 0.0])])


class TestCertifyDouble:
    def test_exact_certifies_product(self):
        for d1 in range(2, 6):
            for d2 in range(d1, 6):
                cert = certify_double(d1, d2, 0.0, 0.0)
                assert cert.d_min == d1 * d2
                assert cert.method == "double-pair"

    def test_two_by_two_threshold(self):
        limit = 0.5 / 36.0
        assert certify_double(2, 2, 0.0, limit - 1e-12).d_min == 4
        fallback = certify_double(2, 2, 0.0, limit + 1e-12)
        assert fallback.d_min < 4
        assert fallback.method != "double-pair"

    def test_worked_values(self):
        cert = certify_double(2, 3, 1e-6, 1e-4)
        assert cert.d_min == 6
        lhs = 6e-3 + 5e-4
        rhs = 0.5 / 25.0
        assert cert.witness["lhs"] == pytest.approx(lhs, rel=1e-12)
        assert cert.witness["rhs"] == pytest.approx(rhs, rel=1e-12)
        assert cert.slack == pytest.approx(rhs - lhs, rel=1e-12)

    def test_fallback_uses_best_single(self):
        # gamma too large: falls back to the exact single-pair route
        cert = certify_double(2, 3, 1.0, 0.0)
        assert cert.d_min == 3
        assert cert.method == "single-closed-form"

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            certify_double(3, 2, 0.0, 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["gamma", "delta"])
    def test_non_finite_value_rejected(self, name, value):
        values = {"gamma": 1e-6, "delta": 1e-4, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            certify_double(2, 3, values["gamma"], values["delta"])


class TestLambdaExclusion:
    def test_exact_twist(self):
        cert = certify_lambda_exclusion(1.0 / 3.0, 1e-3)
        assert cert.method == "lambda-exclusion"
        assert cert.d_min == 3
        assert 2 in cert.witness["excluded_dimensions"]

    def test_consistency_with_floor(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            alpha = float(rng.uniform(0.01, 0.99))
            delta = float(rng.uniform(0.0, 1.0))
            cert = certify_lambda_exclusion(alpha, delta, g_max=32)
            for g in range(1, cert.d_min):
                assert delta < lambda_min(g, alpha)
            assert delta >= lambda_min(cert.d_min, alpha) or cert.d_min == 33


class TestVerifyDoubleWitness:
    def test_exact_tensor_product(self):
        d1, d2 = 2, 3
        u1 = np.kron(clock_matrix(d1), np.eye(d2))
        v1 = np.kron(shift_matrix(d1), np.eye(d2))
        u2 = np.kron(np.eye(d1), clock_matrix(d2))
        v2 = np.kron(np.eye(d1), shift_matrix(d2))
        report = verify_double_witness(u1, u2, v1, v2, d1, d2)
        assert report.ok
        assert report.gamma == pytest.approx(0.0, abs=1e-14)
        assert report.gram_rank == d1 * d2
        assert report.gram_min_eigenvalue == pytest.approx(1.0, abs=1e-8)

    def test_violating_instance_is_flagged(self):
        # random unrelated unitaries on a too-small space cannot pass
        rng = np.random.default_rng(6)
        u1, u2, v1, v2 = (haar_unitary(4, rng) for _ in range(4))
        report = verify_double_witness(u1, u2, v1, v2, 2, 3)
        assert not report.ok
        assert any("threshold" in f or "gram" in f for f in report.failures)
