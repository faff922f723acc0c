"""Tests for the closed-form minimum twisted commutation value, the
saturating clock/shift family, the minimizing angle family, and the descent
oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistcert import (
    NormSpec,
    brute_min,
    clock_matrix,
    haar_unitary,
    is_unitary,
    lambda_low,
    lambda_min,
    lambda_upper_bound,
    optimal_angles,
    optimal_pair,
    permutation_cost,
    round_half_away,
    schatten_kyfan_norm,
    shift_matrix,
    spectral_distance,
    twisted_commutator,
)

OP = NormSpec(np.inf, 1)


class TestRounding:
    def test_half_away_from_zero(self):
        assert round_half_away(1.5) == 2
        assert round_half_away(2.5) == 3
        assert round_half_away(0.4) == 0
        assert round_half_away(-1.5) == -2


class TestLambdaMin:
    def test_zero_at_integer_product(self):
        for g in range(1, 9):
            for mult in range(g + 1):
                alpha = mult / g
                if alpha >= 1.0:
                    continue
                assert lambda_min(g, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_operator_norm_value(self):
        assert lambda_min(5, 0.3) == pytest.approx(2.0 * np.sin(np.pi * 0.5 / 5.0))

    def test_frobenius_value(self):
        got = lambda_min(3, 0.5, NormSpec(2.0, 3))
        assert got == pytest.approx(np.sqrt(3.0), rel=1e-12)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            lambda_min(3, 0.2, NormSpec(1.5, 1))

    def test_symmetry_and_periodicity(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            g = int(rng.integers(1, 11))
            alpha = float(rng.uniform(0.0, 1.0))
            a = lambda_min(g, alpha)
            b = lambda_min(g, 1.0 - alpha) if alpha > 0 else a
            assert a == pytest.approx(b, abs=1e-12)
            shifted = (alpha + 1.0 / g) % 1.0
            assert lambda_min(g, shifted) == pytest.approx(a, abs=1e-12)

    @pytest.mark.parametrize("g, alpha", [(2, 1e308), (3, 1e308), (2, -1e308)])
    def test_huge_twist_is_an_integer_twist(self, g, alpha):
        # g alpha would overflow; alpha itself, like every float of
        # magnitude 2^53 or more, is an integer
        assert lambda_min(g, alpha) == 0.0

    def test_twist_reduction_keeps_the_value(self):
        assert lambda_min(3, 12345.25) == lambda_min(3, 0.25)
        assert lambda_min(3, -0.75) == lambda_min(3, 0.25)

    def test_upper_bound(self):
        for g in range(1, 11):
            bound = lambda_upper_bound(g)
            for alpha in np.linspace(0.0, 0.999, 97):
                assert lambda_min(g, alpha) <= bound + 1e-12


class TestClockShift:
    def test_g2_pauli(self):
        assert np.allclose(clock_matrix(2), np.diag([1.0, -1.0]))
        assert np.allclose(shift_matrix(2), np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_unitary(self):
        for g in range(1, 10):
            for m in (clock_matrix(g), shift_matrix(g)):
                assert np.allclose(m @ m.conj().T, np.eye(g), atol=1e-14)

    def test_exact_twist_all_powers(self):
        for g in range(2, 17):
            c, s = clock_matrix(g), shift_matrix(g)
            sk = np.eye(g, dtype=complex)
            for k in range(1, g + 1):
                sk = sk @ s
                t = twisted_commutator(c, sk, (k % g) / g)
                assert np.max(np.abs(t)) < 1e-13


class TestOptimalPair:
    def test_exact_case(self):
        pair = optimal_pair(4, 0.25)
        assert pair.delta == pytest.approx(0.0, abs=1e-14)

    def test_huge_twist_reaches_the_alpha_check(self):
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\)"):
            optimal_pair(2, 1e308)

    def test_operator_value(self):
        pair = optimal_pair(5, 0.3)
        assert pair.delta == pytest.approx(lambda_min(5, 0.3), abs=1e-12)

    def test_frobenius_value(self):
        pair = optimal_pair(3, 0.5)
        fro = schatten_kyfan_norm(pair.commutator(), NormSpec(2.0, 3))
        assert fro == pytest.approx(lambda_min(3, 0.5, NormSpec(2.0, 3)), abs=1e-12)

    def test_flat_singular_values(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            g = int(rng.integers(2, 11))
            alpha = float(rng.uniform(0.0, 1.0))
            pair = optimal_pair(g, alpha)
            sv = np.linalg.svd(pair.commutator(), compute_uv=False)
            assert np.max(sv) - np.min(sv) < 1e-10

    def test_saturates_all_pk_norms(self):
        rng = np.random.default_rng(2)
        for g in range(2, 11):
            for alpha in rng.uniform(0.0, 1.0, size=10):
                pair = optimal_pair(g, float(alpha))
                t = pair.commutator()
                for p in (2.0, 3.0, np.inf):
                    for k in (1, g):
                        spec = NormSpec(p, k)
                        got = schatten_kyfan_norm(t, spec)
                        want = lambda_min(g, float(alpha), spec)
                        assert abs(got - want) < 1e-9


class TestOptimalAngles:
    def test_quarter_twist(self):
        angles = optimal_angles(4, 0.25)
        assert np.allclose(angles, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])

    def test_zero_twist(self):
        assert np.allclose(optimal_angles(2, 0.0), [0.0, 0.0])

    def test_huge_twist_is_an_integer_twist(self):
        # g alpha would overflow; alpha = 1e308 is an integer twist
        assert np.array_equal(optimal_angles(2, 1e308), optimal_angles(2, 0.0))

    def test_cost_matches_closed_form(self):
        # the cyclic pairing cost at the optimal angles is
        # 4 g sin^2(pi |round(g a) - g a| / g); its square root is the
        # Frobenius lower bound
        rng = np.random.default_rng(3)
        for _ in range(60):
            g = int(rng.integers(1, 12))
            alpha = float(rng.uniform(0.0, 1.0))
            angles = optimal_angles(g, alpha)
            cost = permutation_cost(angles, alpha)
            m = round_half_away(g * alpha)
            want = 4.0 * g * np.sin(np.pi * abs(m - g * alpha) / g) ** 2
            assert cost == pytest.approx(want, abs=1e-10)
            assert np.sqrt(cost) == pytest.approx(
                lambda_min(g, alpha, NormSpec(2.0, g)), abs=1e-10
            )

    def test_random_angles_never_beat_optimal(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            g = int(rng.integers(2, 9))
            alpha = float(rng.uniform(0.0, 1.0))
            best = permutation_cost(optimal_angles(g, alpha), alpha)
            trial = permutation_cost(rng.uniform(0.0, 2 * np.pi, size=g), alpha)
            assert trial >= best - 1e-10


class TestBruteMin:
    def test_pauli_pair_exists(self):
        best = brute_min(2, 0.5, OP, restarts=10, seed=0)
        assert best < 1e-6

    def test_exact_three_dim(self):
        best = brute_min(3, 1.0 / 3.0, OP, restarts=10, seed=1)
        assert best < 1e-6

    def test_half_twist_on_qubit(self):
        # alpha = 1/4 on g = 2: rounding tie, floor value 2 sin(pi/4)
        best = brute_min(2, 0.25, OP, restarts=20, seed=2)
        want = lambda_min(2, 0.25)
        assert want == pytest.approx(2.0 * np.sin(np.pi / 4.0), abs=1e-12)
        assert best >= want - 1e-6

    def test_never_beats_closed_form(self):
        rng = np.random.default_rng(5)
        for g in (2, 3):
            for alpha in rng.uniform(0.0, 1.0, size=5):
                best = brute_min(g, float(alpha), OP, restarts=10, seed=3)
                assert best >= lambda_min(g, float(alpha)) - 1e-6

    def test_reaches_the_floor_on_criterion_2_queries(self):
        # acceptance criterion 2's queries: the descent must not only stay
        # above the floor but reach it
        hits = 0
        for g in (2, 3):
            for alpha in np.linspace(0.025, 0.975, 20):
                best = brute_min(g, float(alpha), OP, restarts=50, seed=2026)
                hits += best - lambda_min(g, float(alpha)) <= 1e-6
        assert hits >= 36

    @settings(max_examples=40, deadline=None)
    @given(g=st.integers(1, 4), alpha=st.floats(0.0, 1.0, exclude_max=True),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_finals_unitary_and_above_the_floor(self, g, alpha, seed):
        best, finals = brute_min(g, alpha, OP, restarts=6, seed=seed, trace=True)
        assert best >= lambda_min(g, alpha) - 1e-9
        for u, v in finals:
            assert is_unitary(u, 1e-12) and is_unitary(v, 1e-12)

    def test_rejects_large_dimension(self):
        with pytest.raises(ValueError):
            brute_min(5, 0.3)

    def test_wielandt_hoffman_chain_on_candidates(self):
        # for every final pair: d_F(v^dag u v, eta u) <= ||[[u, v]]||_F
        for alpha in (0.21, 0.47, 0.8):
            best, finals = brute_min(3, alpha, NormSpec(2.0, 3), restarts=8,
                                     seed=4, trace=True)
            eta = np.exp(2j * np.pi * alpha)
            for u, v in finals:
                lhs = spectral_distance(v.conj().T @ u @ v, eta * u, 2.0)
                rhs = np.linalg.norm(twisted_commutator(u, v, alpha))
                assert lhs <= rhs + 1e-9


def _fro2(x):
    return float(np.sum(x.real ** 2 + x.imag ** 2))


def _cayley(u, a, s):
    """The Cayley retraction u (I + s A/2)^-1 (I - s A/2) as written."""
    eye = np.eye(u.shape[0])
    return u @ np.linalg.solve(eye + s / 2.0 * a, eye - s / 2.0 * a)


def _cayley_solved(u, a, s):
    """The same map as 2 u (I + s A/2)^-1 - u, with u (I + s A/2)^-1 from
    the transposed system: the arithmetic of the batched descent, which a
    path compared to 1e-8 must share, since a minimum fixes its point only
    to about the square root of the rounding of its value."""
    eye = np.eye(u.shape[0])
    return 2.0 * np.linalg.solve(eye + s / 2.0 * a.T, u.T).T - u


def _bb_step(s, y, k, step):
    """The Barzilai-Borwein step after the k-th accepted step, from the
    pairs S and Y: <S, S> / |<S, Y>| for odd k, |<S, Y>| / <Y, Y> for even
    k, clipped to [1e-10, 1e3]; a zero denominator keeps the step."""
    ss, yy = _re_inner(s, s), _re_inner(y, y)
    sy = abs(_re_inner(s, y))
    num, den = (ss, sy) if k % 2 else (sy, yy)
    return step if den == 0.0 else min(max(num / den, 1e-10), 1e3)


def _re_inner(x, y):
    """Re tr(x^dag y), summed over the two members of the pairs x and y, in
    the batched descent's order of summation."""
    a, b = (float(np.sum(p.real * q.real + p.imag * q.imag)) for p, q in zip(x, y))
    return a + b


def _descend_one(u, v, alpha, iters, step0, retract=_cayley_solved):
    """The Riemannian descent one restart at a time: the oracle for the
    batched descent.  A restart whose accepted step left its pair unchanged
    runs on to `iters` here, where the batched descent stops it."""
    eta = np.exp(2j * np.pi * alpha)
    step = step0
    t = twisted_commutator(u, v, alpha)
    fval = _fro2(t)
    taken = 0
    while taken < iters:
        gu = t @ v.conj().T - np.conj(eta) * (v.conj().T @ t)
        gv = u.conj().T @ t - np.conj(eta) * (t @ u.conj().T)
        au, av = u.conj().T @ gu, v.conj().T @ gv
        au, av = (au - au.conj().T) / 2.0, (av - av.conj().T) / 2.0
        grad = (u @ au, v @ av)
        if taken:
            step = _bb_step((u - prev[0], v - prev[1]),
                            (grad[0] - prev_grad[0], grad[1] - prev_grad[1]), taken, step)
        prev_grad = grad
        gnorm2 = _fro2(au) + _fro2(av)
        if gnorm2 < 1e-30:
            break
        while step > 1e-14 and step * gnorm2 > 2.0 ** -52 * fval:
            u2, v2 = retract(u, au, step), retract(v, av, step)
            t2 = twisted_commutator(u2, v2, alpha)
            f2 = _fro2(t2)
            if f2 <= fval - 1e-4 * step * gnorm2:
                prev = (u, v)
                u, v, t, fval = u2, v2, t2, f2
                taken += 1
                break
            step *= 0.5
        else:
            break
    return u, v


def _brute_min_one(g, alpha, spec, restarts=50, seed=0, iters=300, step0=0.25,
                   retract=_cayley_solved):
    best = math.inf
    finals = []
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        u0 = haar_unitary(g, rng)
        v0 = haar_unitary(g, rng)
        u, v = _descend_one(u0, v0, alpha, iters=iters, step0=step0, retract=retract)
        best = min(best, schatten_kyfan_norm(twisted_commutator(u, v, alpha), spec))
        finals.append((u, v))
    return best, finals


class TestBatchedDescent:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_matches_one_restart_at_a_time(self, g, seed):
        for alpha in (0.05, 0.21, 0.37, 0.5, 0.73, 0.95):
            best, finals = brute_min(g, alpha, OP, restarts=12, seed=seed,
                                     iters=120, trace=True)
            want, want_finals = _brute_min_one(g, alpha, OP, restarts=12,
                                               seed=seed, iters=120)
            assert abs(best - want) <= 1e-9
            assert len(finals) == len(want_finals) == 12
            for (u, v), (u1, v1) in zip(finals, want_finals):
                assert np.max(np.abs(u - u1)) <= 1e-8
                assert np.max(np.abs(v - v1)) <= 1e-8
                assert is_unitary(u, 1e-10) and is_unitary(v, 1e-10)

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_first_step_is_the_cayley_map(self, g):
        for alpha in (0.05, 0.37, 0.73):
            _, finals = brute_min(g, alpha, OP, restarts=6, seed=3, iters=1, trace=True)
            _, want = _brute_min_one(g, alpha, OP, restarts=6, seed=3, iters=1,
                                     retract=_cayley)
            for (u, v), (u1, v1) in zip(finals, want):
                assert np.max(np.abs(u - u1)) <= 1e-13
                assert np.max(np.abs(v - v1)) <= 1e-13

    def test_restarts_are_independent(self):
        for g, alpha in ((2, 0.3), (3, 0.61), (4, 0.12)):
            _, few = brute_min(g, alpha, OP, restarts=7, seed=11, trace=True)
            _, many = brute_min(g, alpha, OP, restarts=50, seed=11, trace=True)
            for (u, v), (u1, v1) in zip(few, many[:7]):
                assert np.array_equal(u, u1) and np.array_equal(v, v1)

    def test_finals_are_views_into_one_stack(self):
        _, finals = brute_min(3, 0.4, OP, restarts=5, seed=1, iters=20, trace=True)
        base = finals[0][0].base
        assert base is not None
        assert all(u.base is base for u, _ in finals)

    def test_rejects_finals_off_the_unitary_group(self, monkeypatch):
        import twistcert.minima as minima_module

        descend = minima_module._descend

        def off_group(w, alpha, iters):
            w, t = descend(w, alpha, iters)
            return w * (1.0 + 1e-9), t
        monkeypatch.setattr(minima_module, "_descend", off_group)
        with pytest.raises(ArithmeticError, match="unitary group"):
            brute_min(2, 0.3, OP, restarts=3, seed=0)

    def test_zero_iterations_returns_the_starts(self):
        # the batched draw gives the per-restart haar_unitary draws bitwise
        for g in (1, 2, 3, 4):
            _, finals = brute_min(g, 0.3, OP, restarts=3, seed=4, iters=0, trace=True)
            for r, (u, v) in enumerate(finals):
                rng = np.random.default_rng([4, r])
                assert np.array_equal(u, haar_unitary(g, rng))
                assert np.array_equal(v, haar_unitary(g, rng))

    def test_no_restart_runs_to_the_iteration_cap(self):
        # with a fixed step schedule one restart of this query took all 300
        # accepted steps; Barzilai-Borwein steps settle every restart in 50
        _, long = brute_min(2, 0.05, OP, restarts=50, seed=1, iters=300, trace=True)
        _, short = brute_min(2, 0.05, OP, restarts=50, seed=1, iters=50, trace=True)
        for (u, v), (u1, v1) in zip(long, short):
            assert np.array_equal(u, u1) and np.array_equal(v, v1)

    @pytest.mark.parametrize("g, alpha", [(3, 1.0 / 3.0), (4, 0.25), (4, 0.5)])
    def test_a_restart_that_stops_moving_stops(self, monkeypatch, g, alpha):
        # at a floor of 0 the halving ends on a step that leaves the pair
        # unchanged; repeating it to `iters` took 340-450 rounds
        solve, rounds = np.linalg.solve, []
        monkeypatch.setattr(np.linalg, "solve", lambda *a: rounds.append(1) or solve(*a))
        assert brute_min(g, alpha, OP, restarts=10, seed=1) < 1e-6
        assert len(rounds) < 150

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_twist_rejected(self, alpha):
        with pytest.raises(ValueError, match="^alpha must be finite"):
            brute_min(2, alpha, OP, restarts=2)

    def test_huge_twist_is_an_integer_twist(self):
        # fmod(1e308, 1) = 0: the query is the untwisted one, with floor 0
        best, finals = brute_min(2, 1e308, OP, restarts=5, seed=2, trace=True)
        want, want_finals = brute_min(2, 0.0, OP, restarts=5, seed=2, trace=True)
        assert best == want and best <= 1e-6
        for (u, v), (u1, v1) in zip(finals, want_finals):
            assert np.array_equal(u, u1) and np.array_equal(v, v1)

    @pytest.mark.parametrize("kwargs", [
        {"iters": -5}, {"iters": -1}, {"restarts": -3},
        {"spec": NormSpec(1.0, 3)}, {"spec": NormSpec(math.inf, 4)},
        {"spec": NormSpec(2.0, 3)}, {"restarts": 0},
    ])
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            brute_min(2, 0.3, **kwargs)

    @pytest.mark.parametrize("g", [0, -1, 5])
    def test_rejects_bad_dimension(self, g):
        with pytest.raises(ValueError, match="1 <= g <= 4"):
            brute_min(g, 0.3)


class TestExcludedDimensions:
    """The dimensions g whose determinant floor lambda_low(g, alpha) exceeds
    delta, the ones a floor certificate excludes below its d_min."""

    def test_exact_pair_excludes_nothing(self):
        gs = np.arange(1, 9)
        assert not (lambda_low(gs, 0.0) > 0.0).any()

    def test_small_value_excludes_incompatible_dims(self):
        # twist 1/3 with tiny value: dimensions not divisible by 3 excluded
        gs = np.arange(1, 10)
        excl = gs[lambda_low(gs, 1.0 / 3.0) > 1e-3]
        assert set(excl.tolist()) == {1, 2, 4, 5, 7, 8}
