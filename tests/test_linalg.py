"""Kernel tests: twisted commutators, norms, eigensolvers, polar factors,
and the assignment-based spectral distance."""

import itertools

import numpy as np
import pytest

from twistcert import (
    NormSpec,
    clock_matrix,
    eig_general,
    eig_normal,
    haar_unitary,
    is_normal,
    is_unitary,
    polar_unitary,
    schatten_kyfan_norm,
    shift_matrix,
    spectral_distance,
    twisted_commutator,
)
from twistcert.linalg import norm_at_most


def random_normal_matrix(n, rng):
    """Unitary conjugation of a random diagonal: normal with known spectrum."""
    u = haar_unitary(n, rng)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return u @ np.diag(d) @ u.conj().T, d


class TestTwistedCommutator:
    def test_clock_shift_twist_vanishes(self):
        for g in range(2, 17):
            t = twisted_commutator(clock_matrix(g), shift_matrix(g), 1.0 / g)
            assert np.max(np.abs(t)) < 1e-14

    def test_alpha_zero_is_commutator(self):
        rng = np.random.default_rng(1)
        x, y = haar_unitary(4, rng), haar_unitary(4, rng)
        assert np.allclose(twisted_commutator(x, y, 0.0), x @ y - y @ x)

    def test_identity_case(self):
        rng = np.random.default_rng(2)
        y = haar_unitary(5, rng)
        alpha = 0.37
        expected = (1.0 - np.exp(2j * np.pi * alpha)) * y
        assert np.allclose(twisted_commutator(np.eye(5), y, alpha), expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            twisted_commutator(np.eye(2), np.eye(3), 0.1)


class TestSchattenKyFan:
    def test_identity(self):
        for p, k in [(1.0, 3), (2.0, 4), (3.0, 2), (np.inf, 5)]:
            val = schatten_kyfan_norm(np.eye(6), NormSpec(p, k))
            expected = 1.0 if np.isinf(p) else k ** (1.0 / p)
            assert val == pytest.approx(expected, abs=1e-12)

    def test_rank_one_all_norms_agree(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        m = np.outer(x, y.conj())
        s = np.linalg.norm(x) * np.linalg.norm(y)
        for p, k in [(1.0, 1), (2.0, 3), (3.5, 5), (np.inf, 2)]:
            assert schatten_kyfan_norm(m, NormSpec(p, k)) == pytest.approx(s, rel=1e-12)

    def test_top_two_sum(self):
        m = np.diag([3.0, 2.0, 1.0]).astype(complex)
        assert schatten_kyfan_norm(m, NormSpec(1.0, 2)) == pytest.approx(5.0)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        u, v = haar_unitary(6, rng), haar_unitary(6, rng)
        for p, k in [(1.0, 2), (2.0, 6), (2.5, 3), (np.inf, 1)]:
            spec = NormSpec(p, k)
            a = schatten_kyfan_norm(m, spec)
            b = schatten_kyfan_norm(u @ m @ v, spec)
            assert abs(a - b) < 1e-10

    def test_norm_equivalence_lower_bound(self):
        # for p >= 2: ||M||_(p,k) >= k^(1/p) g^(-1/2) ||M||_F
        rng = np.random.default_rng(5)
        g = 7
        for _ in range(50):
            m = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
            fro = np.linalg.norm(m)
            for p in (2.0, 3.0, 6.0):
                for k in (1, 3, g):
                    lhs = schatten_kyfan_norm(m, NormSpec(p, k))
                    rhs = k ** (1.0 / p) * g ** (-0.5) * fro
                    assert lhs >= rhs - 1e-10

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            schatten_kyfan_norm(np.eye(3), NormSpec(2.0, 4))
        with pytest.raises(ValueError):
            NormSpec(0.5, 1)


class TestEigNormal:
    def test_diagonal(self):
        dec = eig_normal(np.diag([1.0, 1j, -1.0]))
        assert set(np.round(dec.eigenvalues, 12)) == {1.0, 1j, -1.0}
        # eigenvectors are standard basis vectors up to phase
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(3))

    def test_clock_and_shift_spectra(self):
        for g in (2, 3, 5, 8):
            roots = np.exp(2j * np.pi * np.arange(g) / g)
            for m in (clock_matrix(g), shift_matrix(g)):
                dec = eig_normal(m)
                dist = np.abs(dec.eigenvalues[:, None] - roots[None, :])
                nearest = np.argmin(dist, axis=1)
                assert np.min(dist, axis=1).max() < 1e-12
                assert sorted(nearest) == list(range(g))  # one eigenvalue per root

    def test_orthonormal_and_residual_on_random_inputs(self):
        rng = np.random.default_rng(6)
        for trial in range(1000):
            n = int(rng.integers(2, 65))
            if trial % 2:
                m = haar_unitary(n, rng)
            else:
                h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                m = (h + h.conj().T) / 2.0
            dec = eig_normal(m)
            assert dec.residual <= 1e-9 * max(1.0, np.linalg.norm(m, 2))
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.linalg.norm(gram - np.eye(n), 2) < 1e-10

    def test_rejects_non_normal(self):
        with pytest.raises(ValueError):
            eig_normal(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestEigGeneral:
    def test_upper_triangular(self):
        m = np.array([[2.0, 5.0, 1.0], [0.0, -1.0, 3.0], [0.0, 0.0, 0.5]])
        vals = eig_general(m)
        assert np.allclose(np.sort_complex(vals), np.sort_complex(np.array([2.0, -1.0, 0.5])))

    def test_jordan_block(self):
        vals = eig_general(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert np.allclose(vals, [1.0, 1.0])

    def test_matches_characteristic_polynomial_roots(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        coeffs = np.poly(m)
        roots = np.roots(coeffs)
        vals = eig_general(m)
        # match as multisets via the assignment built into spectral_distance
        cost = np.abs(vals[:, None] - roots[None, :])
        from scipy.optimize import linear_sum_assignment

        r, c = linear_sum_assignment(cost)
        assert cost[r, c].max() < 1e-8

    def test_right_eigenvector_residual(self):
        from twistcert import right_eigenvector

        rng = np.random.default_rng(8)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        target = eig_general(m)[2]
        lam, vec, resid = right_eigenvector(m, target)
        assert abs(lam - target) < 1e-10
        assert np.linalg.norm(vec) == pytest.approx(1.0)
        assert np.linalg.norm(m @ vec - lam * vec) == pytest.approx(resid)
        assert resid < 1e-8


class TestPolar:
    def test_unitary_fixed_point(self):
        u = haar_unitary(5, np.random.default_rng(8))
        assert np.allclose(polar_unitary(u), u, atol=1e-12)

    def test_scaled_identity(self):
        assert np.allclose(polar_unitary(2.0 * np.eye(4)), np.eye(4))

    def test_positive_part(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            w = polar_unitary(m)
            assert is_unitary(w, 1e-10)
            pos = w.conj().T @ m
            assert np.linalg.norm(pos - pos.conj().T, 2) < 1e-10
            assert np.min(np.linalg.eigvalsh((pos + pos.conj().T) / 2)) > -1e-10

    def test_rotation_times_diagonal(self):
        phi = 0.7
        rot = np.array([[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]])
        m = np.diag([0.9, 0.5]) @ rot
        w = polar_unitary(m)
        pos = w.conj().T @ m
        assert np.min(np.linalg.eigvalsh((pos + pos.conj().T) / 2)) > -1e-12


class TestUnitaryHelpers:
    def test_is_unitary(self):
        assert is_unitary(np.eye(3), 1e-12)
        assert not is_unitary(np.diag([1.0, 0.5]))

    def test_haar_determinism(self):
        a = haar_unitary(4, 7)
        b = haar_unitary(4, 7)
        assert np.array_equal(a, b)

    def test_haar_unitarity(self):
        for seed in range(20):
            u = haar_unitary(6, seed)
            assert is_unitary(u, 1e-12)

    def test_is_normal(self):
        assert is_normal(clock_matrix(4))
        assert not is_normal(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestNormAtMost:
    """The Frobenius fast path never changes a decision: with the Frobenius
    norm above t and the 2-norm just below or just above it, the answer is
    the SVD's."""

    @pytest.mark.parametrize("t", [1e-3, 0.7, 40.0])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_matches_svd_near_threshold(self, t, sign):
        rng = np.random.default_rng(8)
        w1, w2 = haar_unitary(3, rng), haar_unitary(3, rng)
        x = w1 @ np.diag([t * (1.0 + sign * 1e-9), t / 2, t / 2]) @ w2
        assert np.linalg.norm(x) > t
        assert norm_at_most(x, t) == bool(np.linalg.norm(x, 2) <= t)
        assert norm_at_most(x, t) == (sign < 0)

    def test_frobenius_below_threshold(self):
        x = np.diag([0.3, 0.4])  # Frobenius 0.5
        assert norm_at_most(x, 0.5 + 1e-12)
        assert not norm_at_most(x, 0.39)

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_is_unitary_matches_svd_near_tolerance(self, sign):
        tol = 1e-2
        defect = np.array([tol * (1.0 + sign * 1e-9), tol / 2, tol / 2])
        # M^dag M - I = W2^dag diag(defect) W2 for M = W1 diag(sqrt(1 + defect)) W2
        rng = np.random.default_rng(9)
        w1, w2 = haar_unitary(3, rng), haar_unitary(3, rng)
        m = w1 @ np.diag(np.sqrt(1.0 + defect)) @ w2
        gram_defect = m.conj().T @ m - np.eye(3)
        assert np.linalg.norm(gram_defect) > tol
        assert is_unitary(m, tol) == bool(np.linalg.norm(gram_defect, 2) <= tol)
        assert is_unitary(m, tol) == (sign < 0)


class TestSpectralDistance:
    def test_identical(self):
        m, _ = random_normal_matrix(5, np.random.default_rng(10))
        assert spectral_distance(m, m, 2.0) == pytest.approx(0.0, abs=1e-10)

    def test_clock_phase_shift(self):
        # rotating the clock spectrum by one step permutes it exactly
        for g in (2, 3, 4, 5, 6):
            c = clock_matrix(g)
            omega = np.exp(2j * np.pi / g)
            assert spectral_distance(c, omega * c, 2.0) < 1e-12

    def test_matches_exhaustive_permutations(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            a, la = random_normal_matrix(n, rng)
            b, lb = random_normal_matrix(n, rng)
            for p in (1.0, 2.0, 3.0):
                got = spectral_distance(a, b, p)
                best = min(
                    np.sum(np.abs(np.asarray(perm) - lb) ** p) ** (1.0 / p)
                    for perm in itertools.permutations(la)
                )
                assert got == pytest.approx(best, rel=1e-9, abs=1e-9)

    def test_bottleneck_matches_exhaustive(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a, la = random_normal_matrix(n, rng)
            b, lb = random_normal_matrix(n, rng)
            got = spectral_distance(a, b, np.inf)
            best = min(
                max(np.abs(np.asarray(perm) - lb))
                for perm in itertools.permutations(la)
            )
            assert got == pytest.approx(best, rel=1e-9, abs=1e-9)

    def test_wielandt_hoffman(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            a, _ = random_normal_matrix(n, rng)
            b, _ = random_normal_matrix(n, rng)
            assert spectral_distance(a, b, 2.0) <= np.linalg.norm(a - b) + 1e-9

    def test_rejects_non_normal(self):
        with pytest.raises(ValueError):
            spectral_distance(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2), 2.0)
