"""Shared approximate eigenvector tests: cluster structure, residual bounds
for the general and both-normal variants, and the block diagnostics."""

import numpy as np
import pytest

from twistcert import (
    clock_matrix,
    cluster,
    eig_normal,
    haar_unitary,
    hermitian_perturbation,
    operator_norm,
    shared_approx_eigenvector,
    shared_approx_eigenvector_normal,
)


class TestCluster:
    def test_isolated_seed(self):
        eigs = [0.0, 1.0, 2.5, -3.0]
        res = cluster(eigs, 1.0, r=0.4)
        assert res.indices == (1,)
        assert res.separation > 0.4

    def test_degenerate_seed(self):
        eigs = [1.0, 1.0, 5.0]
        res = cluster(eigs, 1.0, r=0.5)
        assert set(res.indices) == {0, 1}

    def test_chain_absorbs_everything(self):
        r = 1.0
        eigs = [j * (r / 2.0) for j in range(8)]
        res = cluster(eigs, 0.0, r=r)
        assert len(res.indices) == 8
        assert res.diameter <= res.diameter_bound + 1e-12

    def test_seed_must_be_eigenvalue(self):
        with pytest.raises(ValueError):
            cluster([0.0, 1.0], 0.5, r=0.1)

    def test_structure_on_random_spectra(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 17))
            eigs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            seed = eigs[int(rng.integers(0, n))]
            r = float(rng.uniform(0.05, 1.0))
            res = cluster(eigs, seed, r=r)
            inside = np.asarray(res.indices)
            outside = np.setdiff1d(np.arange(n), inside)
            if outside.size:
                gaps = np.abs(eigs[outside, None] - eigs[None, inside])
                assert gaps.min() > r
            assert np.abs(eigs[inside] - seed).max() <= n * r + 1e-12


def commuting_then_perturbed(n, scale, seed):
    """A = Haar-rotated clock (normal); B = polynomial of A plus a scaled
    non-normal perturbation, so [A, B] is small but nonzero."""
    rng = np.random.default_rng(seed)
    w = haar_unitary(n, rng)
    a = w @ clock_matrix(n) @ w.conj().T
    b0 = w @ np.diag(np.exp(2j * np.pi * rng.uniform(size=n))) @ w.conj().T
    k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = b0 + scale * k / np.linalg.norm(k, 2)
    return a, b


class TestSharedGeneral:
    def test_exactly_commuting(self):
        rng = np.random.default_rng(1)
        w = haar_unitary(6, rng)
        a = w @ np.diag([1.0, 1.0, 2.0, 3.0, 3.0, 5.0]) @ w.conj().T
        b = w @ np.diag(rng.standard_normal(6)) @ w.conj().T
        dec = eig_normal(a)
        seed = complex(dec.eigenvalues[0])
        res = shared_approx_eigenvector(a, b, seed)
        assert res.residual_a < 1e-10
        assert res.residual_b < 1e-10

    def test_residual_bounds_on_perturbed_instances(self):
        for seed in range(60):
            n = 8
            a, b = commuting_then_perturbed(n, 1e-4, seed)
            dec = eig_normal(a)
            lam = complex(dec.eigenvalues[seed % n])
            res = shared_approx_eigenvector(a, b, lam)
            assert res.bound == pytest.approx(n * np.sqrt(res.epsilon / 2.0))
            assert res.residual_a <= res.bound + 1e-10
            assert res.residual_b <= res.bound + 1e-10

    def test_block_bounds(self):
        for seed in range(40):
            n = int(np.random.default_rng(seed).integers(4, 13))
            a, b = commuting_then_perturbed(n, 1e-3, seed)
            dec = eig_normal(a)
            lam = complex(dec.eigenvalues[0])
            res = shared_approx_eigenvector(a, b, lam)
            assert res.a_block_deviation <= res.a_block_bound + 1e-12
            assert res.b_offdiag_norm <= res.b_offdiag_bound + 1e-10

    def test_two_separated_clusters(self):
        # seed's cluster is isolated; the reported diameter is much tighter
        # than the worst-case n * r
        rng = np.random.default_rng(2)
        w = haar_unitary(6, rng)
        diag = np.array([0.0, 1e-6, 0.0 + 1e-6j, 10.0, 10.0 + 1e-6j, 20.0])
        a = w @ np.diag(diag) @ w.conj().T
        b = w @ np.diag(rng.standard_normal(6)) @ w.conj().T
        k = hermitian_perturbation(6, rng)
        b = b + 1e-6 * k
        dec = eig_normal(a)
        seed = complex(dec.eigenvalues[np.argmin(np.abs(dec.eigenvalues))])
        res = shared_approx_eigenvector(a, b, seed)
        assert len(res.cluster.indices) == 3
        assert res.cluster.diameter < 1e-5
        assert res.residual_a <= res.cluster.diameter + 1e-10


class TestSharedNormal:
    def test_commuting_unitaries_exact(self):
        rng = np.random.default_rng(3)
        w = haar_unitary(5, rng)
        a = w @ clock_matrix(5) @ w.conj().T
        b = w @ np.diag(np.exp(2j * np.pi * rng.uniform(size=5))) @ w.conj().T
        dec = eig_normal(a)
        seed = complex(dec.eigenvalues[0])
        res = shared_approx_eigenvector_normal(a, b, seed)
        assert res.residual_a < 1e-10
        assert res.residual_b < 1e-10
        b_eigs = eig_normal(b).eigenvalues
        assert np.min(np.abs(b_eigs - res.eigenvalue_b)) < 1e-10

    def test_haar_pair_bounds_and_exact_eigenvalue(self):
        for seed in range(40):
            n = 8
            rng = np.random.default_rng(1000 + seed)
            w = haar_unitary(n, rng)
            a = w @ clock_matrix(n) @ w.conj().T
            b0 = w @ np.diag(np.exp(2j * np.pi * rng.uniform(size=n))) @ w.conj().T
            # unitary (hence normal) perturbation of b0
            from scipy.linalg import expm

            k = hermitian_perturbation(n, rng)
            b = b0 @ expm(1e-4j * k)
            eps = operator_norm(a @ b - b @ a)
            assert eps < 1e-3
            dec = eig_normal(a)
            lam = complex(dec.eigenvalues[seed % n])
            res = shared_approx_eigenvector_normal(a, b, lam)
            assert res.bound == pytest.approx(n * np.sqrt(res.epsilon))
            assert res.residual_a <= res.bound + 1e-10
            assert res.residual_b <= res.bound + 1e-10
            b_eigs = eig_normal(b).eigenvalues
            assert np.min(np.abs(b_eigs - res.eigenvalue_b)) < 1e-10

    def test_rejects_non_normal_b(self):
        a = clock_matrix(3)
        b = np.array([[1.0, 1.0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        with pytest.raises(ValueError):
            shared_approx_eigenvector_normal(a, b, 1.0 + 0.0j)

    def test_dimension_capped_unitary_pair(self):
        # two almost-commuting unitaries on a space of dimension d1 * d2:
        # residuals stay below sqrt(gamma) d1 d2 / 2
        from scipy.linalg import expm

        d1, d2 = 2, 3
        n = d1 * d2
        for seed in range(25):
            rng = np.random.default_rng(seed)
            w = haar_unitary(n, rng)
            u1 = w @ np.kron(clock_matrix(d1), np.eye(d2)) @ w.conj().T
            u2 = w @ np.kron(np.eye(d1), clock_matrix(d2)) @ w.conj().T
            k = hermitian_perturbation(n, rng)
            u2 = u2 @ expm(1e-5j * k)
            gamma = operator_norm(u1 @ u2 - u2 @ u1)
            assert 0 < gamma < 1e-3
            dec = eig_normal(u1)
            lam = complex(dec.eigenvalues[0])
            res = shared_approx_eigenvector_normal(u1, u2, lam)
            cap = np.sqrt(gamma) * d1 * d2 / 2.0
            assert res.residual_a <= cap + 1e-10
            assert res.residual_b <= cap + 1e-10


class TestSeedSnap:
    """A seed within the eigensolver tolerance of an eigenvalue of A is
    snapped to the solver's own copy of it; a seed farther out is rejected."""

    @staticmethod
    def normal_pair():
        from scipy.linalg import expm

        rng = np.random.default_rng(7)
        w = haar_unitary(6, rng)
        a = w @ clock_matrix(6) @ w.conj().T
        b = w @ np.diag(np.exp(2j * np.pi * rng.uniform(size=6))) @ w.conj().T
        b = b @ expm(1e-4j * hermitian_perturbation(6, rng))
        return a, b, complex(eig_normal(a).eigenvalues[2])

    @pytest.mark.parametrize("fn", [shared_approx_eigenvector,
                                    shared_approx_eigenvector_normal])
    def test_nearby_seed_snaps(self, fn):
        a, b, lam = self.normal_pair()
        exact = fn(a, b, lam)
        near = fn(a, b, lam + 1e-11)
        assert near.eigenvalue_a == exact.eigenvalue_a == lam
        np.testing.assert_array_equal(near.vector, exact.vector)
        assert near.residual_a == exact.residual_a

    @pytest.mark.parametrize("fn", [shared_approx_eigenvector,
                                    shared_approx_eigenvector_normal])
    def test_distant_seed_raises(self, fn):
        a, b, lam = self.normal_pair()
        with pytest.raises(ValueError):
            fn(a, b, lam + 1e-3)
