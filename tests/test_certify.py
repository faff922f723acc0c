"""Certification tests: the determinant-floor certifier and its outward-rounded
floor, arc construction, the greedy transversal against an exhaustive oracle,
closed-form thresholds, orbit expectation bounds, overlap and Gram
independence checks, and the two-pair certificate."""

import itertools
import json
import math
import re
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from twistcert import certify as certify_module
from twistcert import (
    Arc,
    arc_dimension,
    certify_double,
    certify_grid,
    certify_single,
    clock_matrix,
    eigenvalue_arc,
    gram_independent,
    greedy_transversal,
    haar_unitary,
    lambda_low,
    lambda_min,
    minimal_intervals,
    optimal_pair,
    orbit_expectations,
    overlap_bound,
    shift_matrix,
    single_pair_threshold,
    verify_double_witness,
    TwistedPair,
)
from twistcert.matio import certificate_from_dict, certificate_to_dict, jsonable


def bisection_slack(alpha, delta):
    """A reference for the slack: 60 bisection steps on delta, each a full
    certify_single, towards the point past which d_min drops."""

    def certified_dim(x):
        return certify_single(alpha, x).d_min

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


def arc_objects(alpha, delta):
    """The arcs of certify_module._arcs as Arc objects."""
    js, half, centers = certify_module._arcs(alpha, delta)
    return [Arc(float(c), float(h), int(j)) for c, h, j in zip(centers, half, js)]


class TestBuildArcs:
    def test_worked_example_structure(self):
        arcs = arc_objects(0.25, 0.5)
        assert sorted(a.index for a in arcs) == [-3, -2, -1, 1, 2, 3]
        by_index = {a.index: a for a in arcs}
        assert by_index[1].half_width == pytest.approx(np.arccos(0.5))
        assert by_index[1].center == pytest.approx(np.pi / 2)
        assert by_index[2].half_width == pytest.approx(np.pi / 2)
        # index 3 arc wraps through the forced point at angle 0
        assert by_index[3].contains(0.0)
        assert not by_index[1].contains(0.0)

    def test_trivial_arcs_excluded(self):
        arcs = arc_objects(0.3, 1.0)
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
        # the arcs certify 3 here; the floor of g = 3 is 2 sin(pi / 12) > 0.5
        cert = certify_single(0.25, 0.5)
        assert cert.d_min == 4
        assert cert.method == "determinant-floor"
        assert cert.witness == {}
        assert cert.slack == float(lambda_low(np.array([3]), 0.25)[0]) - 0.5

    def test_trivial_arcs(self):
        assert certify_single(0.3, 2.5).d_min == 1
        assert certify_single(0.77, 2.0).d_min == 1

    def test_blue_cross_thresholds(self):
        for d in range(2, 9):
            delta = single_pair_threshold(d) - 1e-9
            assert certify_single(1.0 / d, delta).d_min >= d

    def test_monotone_in_delta(self):
        for alpha in (0.21, 1.0 / 3.0, 0.5, 0.77):
            prev = None
            for delta in np.linspace(0.02, 2.1, 60):
                d = certify_single(alpha, float(delta)).d_min
                if prev is not None:
                    assert d <= prev
                prev = d

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            alpha = float(rng.uniform(0.01, 0.99))
            delta = float(rng.uniform(0.02, 2.0))
            a = certify_single(alpha, delta).d_min
            b = certify_single(1.0 - alpha, delta).d_min
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

    def test_delta_below_the_floor_search_rejected(self):
        with pytest.raises(ValueError) as info:
            certify_single(0.3, 1e-7)
        assert str(info.value) == (
            "delta = 1.000e-07 lies below 1e-06, the least delta the floor search "
            "accepts; use the exact route (delta = 0) or a coarser value")

    def test_slack_is_distance_to_weaker_certificate(self):
        cert = certify_single(0.25, 0.5)
        assert cert.slack is not None
        at_edge = certify_single(0.25, 0.5 + cert.slack - 1e-9)
        beyond = certify_single(0.25, 0.5 + cert.slack + 1e-9)
        assert at_edge.d_min >= cert.d_min
        assert beyond.d_min < cert.d_min

    def test_slack_matches_bisection(self):
        rng = np.random.default_rng(9)
        alphas = [float(a) for a in rng.uniform(0.01, 0.99, 3)]
        alphas += [1 / 3, 5 / 12, 7 / 11]
        for alpha in alphas:
            for delta in np.geomspace(1e-4, 2.0, 6):
                cert = certify_single(alpha, float(delta))
                if cert.d_min == 1:
                    assert cert.slack is None
                    continue
                reference = bisection_slack(alpha, float(delta))
                assert cert.slack == pytest.approx(reference, rel=0, abs=1e-12)

    @pytest.mark.parametrize("alpha, delta", [(0.3, 0.01), (0.7071, 0.003), (0.25, 0.05)])
    def test_certificate_at_its_least_floor_weakens(self, alpha, delta):
        """The slack ends at the least floor below d_min: certified at that
        floor itself, d_min drops."""
        cert = certify_single(alpha, delta)
        least = float(lambda_low(np.arange(1, cert.d_min), alpha).min())
        assert cert.slack == least - delta
        assert certify_single(alpha, least).d_min < cert.d_min

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

    def test_search_evaluates_each_dimension_once(self, monkeypatch):
        """The search doubles its chunks and takes the slack from the same
        pass: at most 2 d_min + 32 floors, each dimension once."""
        seen = []
        floor = certify_module.lambda_low

        def counted(gs, alpha):
            seen.extend(gs.tolist())
            return floor(gs, alpha)

        monkeypatch.setattr(certify_module, "lambda_low", counted)
        for alpha, delta in ((1 / 3 + 0.01, 1e-3), ((5 ** 0.5 - 1) / 2, 1e-6)):
            seen.clear()
            cert = certify_single(alpha, delta)
            assert cert.slack is not None and cert.slack > 0
            assert seen == list(range(1, len(seen) + 1))
            assert cert.d_min <= len(seen) <= 2 * cert.d_min + 32
        # the golden ratio's floors fall slowest; at delta = 1e-6 the search
        # stays far below Dirichlet's 6.3e6
        assert len(seen) < 10_000

    def test_soundness_against_lambda_floor(self):
        # certified dimension d rules out all g < d, so delta must sit below
        # the exact minimum for each ruled-out dimension
        rng = np.random.default_rng(2)
        for _ in range(200):
            alpha = float(rng.uniform(0.005, 0.995))
            delta = float(rng.uniform(0.02, 2.0))
            d = certify_single(alpha, delta).d_min
            for g in range(1, d):
                assert delta < lambda_min(g, alpha)


def _near_rational(f, sign):
    return (float(f) + sign * 1e-9) % 1.0


class TestCertifyGrid:
    """certify_grid searches the floors of many cells in one array; each
    cell must get exactly certify_single's d_min."""

    _rational = st.fractions(0, 1, max_denominator=12).filter(lambda f: f < 1)
    _alpha = st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        _rational.map(float),
        st.builds(_near_rational, _rational, st.sampled_from([-1, 1])),
        st.sampled_from([0.0, 1.0 - 2.0 ** -53]))
    _delta = st.one_of(
        st.floats(-4.0, float(np.log10(2.0))).map(lambda e: 10.0 ** e),
        st.sampled_from([certify_module._MIN_DELTA, 2.0, 2.5, 1e300]))
    _cell = st.one_of(st.tuples(_alpha, _delta),
                      st.tuples(_rational.map(float), st.just(0.0)))

    @settings(max_examples=80, deadline=None)
    @given(cells=st.lists(_cell, min_size=1, max_size=12))
    @example(cells=[(0.0, certify_module._MIN_DELTA), (1.0 - 2.0 ** -53, 1e-3),
                    (1.0 - 2.0 ** -53, 0.0), (0.25, 0.5), (1 / 3, 2.0)])
    @example(cells=[(p / q, 0.05) for q in range(2, 13) for p in range(1, q)])
    @example(cells=[(0.5, 0.5), (0.5, 0.5)])
    def test_matches_certify_single(self, cells):
        assert certify_grid(cells) == [certify_single(a, d).d_min for a, d in cells]

    @pytest.mark.parametrize("bad", [(math.nan, 0.1), (0.3, 1e-7), (math.pi - 3, 0.0)],
                             ids=["nan-alpha", "delta-below-floor", "irrational-exact"])
    @pytest.mark.parametrize("k", [0, 3, 7])
    def test_invalid_cell_raises_before_any_sweep(self, monkeypatch, bad, k):
        with pytest.raises(ValueError) as single:
            certify_single(*bad)

        def refuse(*args):
            raise AssertionError("a search ran before every cell was checked")

        monkeypatch.setattr(certify_module, "_floor_search", refuse)
        cells = [(0.1 * i, 0.3) for i in range(7)]
        cells.insert(k, bad)
        with pytest.raises(ValueError, match=f"^{re.escape(str(single.value))}$"):
            certify_grid(cells)


class TestDeterminantFloor:
    """The floor certificate: never below the arcs, attained by the
    clock/shift pair, monotone in delta, symmetric under alpha -> 1 - alpha,
    and resting on floors that lie below the exact values."""

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(0.0, 1.0, exclude_max=True),
           delta=st.floats(-3.0, float(np.log10(2.0))).map(lambda e: 10.0 ** e))
    @example(alpha=0.25, delta=0.5)
    def test_floor_never_below_the_arcs(self, alpha, delta):
        assert certify_single(alpha, delta).d_min >= arc_dimension(alpha, delta)

    @pytest.mark.parametrize("alpha, delta, arcs, floor", [
        (0.3141592653589793, 1e-5, 86, 226),
        (0.61803398875, 1e-5, 89, 610),
        (0.37, 1e-4, 35, 100),
        (1 / 3 + 1e-7, 1e-5, 3, 3),
    ])
    def test_arcs_at_small_delta(self, alpha, delta, arcs, floor):
        """Below the property test's delta >= 1e-3 the arc sweep runs over
        4 / delta powers: its dimension and the floor's, pinned."""
        assert arc_dimension(alpha, delta) == arcs
        assert certify_single(alpha, delta).d_min == floor

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(0.0, 1.0, exclude_max=True), delta=st.floats(0.05, 2.0))
    @example(alpha=0.25, delta=0.5)
    def test_clock_shift_pair_attains_delta(self, alpha, delta):
        d = certify_single(alpha, delta).d_min
        assert optimal_pair(d, alpha).delta <= delta * (1 + 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(0.0, 1.0, exclude_max=True),
           deltas=st.lists(st.floats(-4.0, 0.5).map(lambda e: 10.0 ** e),
                           min_size=2, max_size=2).map(sorted))
    def test_monotone_in_delta(self, alpha, deltas):
        small, large = deltas
        assert certify_single(alpha, small).d_min >= certify_single(alpha, large).d_min

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(0.5, 1.0, exclude_max=True),
           delta=st.floats(-4.0, float(np.log10(2.0))).map(lambda e: 10.0 ** e))
    def test_symmetric_under_conjugation(self, alpha, delta):
        # 1 - alpha is exact for alpha in [1/2, 1)
        assert certify_single(alpha, delta).d_min == certify_single(1.0 - alpha, delta).d_min

    @settings(max_examples=200, deadline=None)
    @given(g=st.integers(1, 10 ** 6),
           p_q=st.tuples(st.integers(0, 999), st.integers(1, 1000)).filter(
               lambda t: t[0] < t[1]),
           offset=st.one_of(st.just(0.0),
                            st.floats(-12.0, -2.0).map(lambda e: 10.0 ** e),
                            st.floats(-12.0, -2.0).map(lambda e: -10.0 ** e)))
    @example(g=3, p_q=(1, 3), offset=0.0)
    @example(g=10 ** 6, p_q=(1, 7), offset=1e-12)
    def test_floor_lies_below_the_exact_value(self, g, p_q, offset):
        alpha = p_q[0] / p_q[1] + offset
        assume(0.0 <= alpha < 1.0)
        low = float(lambda_low(np.array([g]), alpha)[0])
        with mpmath.workdps(50):
            x = g * mpmath.mpf(alpha)  # the float alpha, exactly
            exact = 2 * mpmath.sin(mpmath.pi * abs(x - mpmath.nint(x)) / g)
            assert low <= exact
            # the distance's u g and the relative margin are all it gives up
            assert exact - low <= 1e-11 * exact + 4 * mpmath.pi * mpmath.mpf(2) ** -53


ALPHAS = st.floats(0.0, 1.0, exclude_max=True)
RATIONAL_ALPHAS = st.fractions(0, 1, max_denominator=40).filter(lambda f: f < 1).map(float)


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


class TestCertificateRoundTrip:
    """Every kind of certificate, written to JSON and read back, equals the
    original field by field and passes verify_certificate, whose comparisons
    are exact."""

    @staticmethod
    def assert_round_trip(cert):
        back = certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert))))
        for name in ("d_min", "method", "inputs", "slack", "witness"):
            assert getattr(back, name) == jsonable(getattr(cert, name)), name
        assert certify_module.verify_certificate(back) is None

    @pytest.mark.parametrize("make", [
        lambda: certify_double(2, 3, 0.5, 0.3),
        lambda: certify_single(0.25, 0.0),
        lambda: certify_double(2, 3, 1e-8, 1e-8),
        lambda: certify_single(0.25, 0.5),
    ], ids=["fallback", "closed-form", "double-pair", "floor"])
    def test_verifies_in_memory(self, make):
        cert = make()
        assert certify_module.verify_certificate(cert) is None

    @settings(max_examples=100, deadline=None)
    @given(query=st.one_of(st.tuples(RATIONAL_ALPHAS, st.just(0.0)),
                           st.tuples(ALPHAS, log_uniform(-6.0, math.log10(2.0)))))
    @example(query=(0.0, 1e-6))
    @example(query=(0.25, 0.0))
    def test_single(self, query):
        self.assert_round_trip(certify_single(*query))

    @settings(max_examples=100, deadline=None)
    @given(dims=st.tuples(st.integers(2, 6), st.integers(2, 6)).map(sorted),
           gamma=st.one_of(st.just(0.0), log_uniform(-12.0, 0.0)),
           delta=st.one_of(st.just(0.0), log_uniform(-10.0, math.log10(2.0))))
    @example(dims=[2, 2], gamma=0.01, delta=1e-8)
    @example(dims=[2, 3], gamma=1e-8, delta=1e-8)
    @example(dims=[2, 3], gamma=0.01, delta=0.0)
    def test_double(self, dims, gamma, delta):
        self.assert_round_trip(certify_double(*dims, gamma, delta))

    def test_every_method_has_a_writer(self):
        """verify_certificate accepts only kinds that a certifier writes."""
        written = {certify_single(0.25, 0.5).method, certify_single(0.25, 0.0).method,
                   certify_double(2, 3, 0.0, 0.0).method,
                   certify_double(2, 3, 0.5, 0.3).method}
        assert set(certify_module.METHODS) == written


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

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError, match="zeta must be nonnegative"):
            overlap_bound(-0.1, 0.0, 1.0)

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

    def test_single_vector(self):
        assert gram_independent([np.array([0.6, 0.8j])]) == (
            True, pytest.approx(1.0, abs=1e-15), 0.0, math.inf)


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

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError, match="gamma and delta must be nonnegative"):
            certify_double(2, 2, -1.0, 0.1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["gamma", "delta"])
    def test_non_finite_value_rejected(self, name, value):
        values = {"gamma": 1e-6, "delta": 1e-4, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            certify_double(2, 3, values["gamma"], values["delta"])


def exact_tensor_pairs(d1, d2):
    """Exact clock/shift pairs of twists 1/d1 and 1/d2 acting on the two
    factors of C^d1 (x) C^d2, as (u1, u2, v1, v2)."""
    return (np.kron(clock_matrix(d1), np.eye(d2)), np.kron(np.eye(d1), clock_matrix(d2)),
            np.kron(shift_matrix(d1), np.eye(d2)), np.kron(np.eye(d1), shift_matrix(d2)))


class TestVerifyDoubleWitness:
    def test_exact_tensor_product(self):
        d1, d2 = 2, 3
        report = verify_double_witness(*exact_tensor_pairs(d1, d2), d1, d2)
        assert report.ok
        assert report.gamma == pytest.approx(0.0, abs=1e-14)
        assert report.gram_rank == d1 * d2
        assert report.gram_min_eigenvalue == pytest.approx(1.0, abs=1e-8)

    def test_off_eigenspace_vector_records_failures(self, monkeypatch):
        """A shared vector off the common +1 eigenspace of exact pairs fails
        both residual bounds, every expectation bound and the Gram rank; each
        is recorded in `failures`, not raised."""
        ops = exact_tensor_pairs(2, 3)
        uniform = np.full(6, 1.0 / np.sqrt(6.0), dtype=complex)
        monkeypatch.setattr(certify_module, "shared_approx_eigenvector_normal",
                            lambda a, b, seed_lambda: SimpleNamespace(
                                vector=uniform, eigenvalue_b=1.0 + 0.0j))
        report = verify_double_witness(*ops, 2, 3)
        assert not report.ok
        assert [f.split(" ")[:4] for f in report.failures[:2]] == [
            ["shared", "eigenvector", "residual", "(u1)"],
            ["shared", "eigenvector", "residual", "(u2)"]]
        assert report.failures[2:] == ["12 expectation bounds failed", "gram rank 1 < 6"]

    @pytest.mark.parametrize("dims, d1, d2, message", [
        ((6, 6, 6, 6), 3, 2, "need 2 <= d1 <= d2"),
        ((2, 3, 2, 2), 2, 2, "must share one dimension"),
        ((2, 2, 3, 2), 2, 2, "must share one dimension"),
    ], ids=["d1-above-d2", "u2-3x3", "v1-3x3"])
    def test_rejects_bad_arguments(self, dims, d1, d2, message):
        ops = [np.eye(n, dtype=complex) for n in dims]
        with pytest.raises(ValueError, match=message):
            verify_double_witness(*ops, d1, d2)

    def test_violating_instance_is_flagged(self):
        # random unrelated unitaries on a too-small space cannot pass
        rng = np.random.default_rng(6)
        u1, u2, v1, v2 = (haar_unitary(4, rng) for _ in range(4))
        report = verify_double_witness(u1, u2, v1, v2, 2, 3)
        assert not report.ok
        assert any("threshold" in f or "gram" in f for f in report.failures)
