"""Model generator tests: exactness at zero perturbation, measured
degradation under perturbation, spectral soundness of the generated bands,
and manifest round-tripping."""

import numpy as np
import pytest

from twistcert import (
    ModelSpec,
    certify_single,
    clock_model,
    ground_symmetry,
    hermitian_perturbation,
    lambda_min,
    operator_norm,
    restrict_pair,
    tensor_double_model,
    twisted_commutator,
)
from twistcert.certify import pair_values


def eps_max(model):
    """The largest measured ||[op, H]|| of a tensor-double model."""
    return max(ground_symmetry(op, model.band).epsilon
               for op in (model.u1, model.u2, model.v1, model.v2))


def ambient_values(model):
    """(gamma, deltas) of a tensor-double model's ambient operators."""
    return pair_values(model.u1, model.u2, model.v1, model.v2,
                       model.spec.g, model.spec.g2)


def spec_for(g=3, s=0.0, seed=0, kind="clock-block", ne=None, width=0.0):
    return ModelSpec(kind=kind, g=g, n_excited=ne if ne is not None else 2 * g,
                     gap=1.0, width=width, perturbation_strength=s, seed=seed)


class TestHermitianPerturbation:
    def test_hermitian(self):
        k = hermitian_perturbation(8, 0)
        assert np.linalg.norm(k - k.conj().T, 2) < 1e-15

    def test_deterministic(self):
        assert np.array_equal(hermitian_perturbation(6, 42), hermitian_perturbation(6, 42))

    def test_unit_norm(self):
        for seed in range(10):
            k = hermitian_perturbation(7, seed)
            assert operator_norm(k) == pytest.approx(1.0, abs=1e-12)


class TestModelSpec:
    def test_json_round_trip(self):
        spec = spec_for(g=4, s=0.02, seed=9)
        again = ModelSpec.from_json(spec.to_json())
        assert again == spec

    def test_rejects_bad_excited_dimension(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="clock-block", g=3, n_excited=7, gap=1.0, seed=0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="weird", g=3, n_excited=6, gap=1.0, seed=0)

    def test_rejects_width_at_gap(self):
        with pytest.raises(ValueError):
            spec_for(width=1.0)


class TestClockModel:
    def test_exact_at_zero_perturbation(self):
        for g in (2, 3, 5):
            model = clock_model(spec_for(g=g, s=0.0, seed=g))
            # raises ValueError when xi >= 1
            res = restrict_pair(model.u, model.v, model.band, model.alpha)
            assert res.eps_u == pytest.approx(0.0, abs=1e-12)
            assert res.eps_v == pytest.approx(0.0, abs=1e-12)
            assert res.delta_in == pytest.approx(0.0, abs=1e-12)

    def test_flat_band_small_perturbation(self):
        # triangle inequality: eps <= 2 s, so eps / gap <= 0.02 at s = 0.01
        model = clock_model(spec_for(g=3, s=0.01, seed=1, kind="flat-band"))
        res = restrict_pair(model.u, model.v, model.band, model.alpha)
        assert res.eps_u <= 0.02 + 1e-12
        assert res.eps_v <= 0.02 + 1e-12

    def test_band_projector_is_spectral(self):
        for seed in range(20):
            model = clock_model(spec_for(g=3, s=0.05, seed=seed))
            band = model.band
            # BandSpec construction verifies H^2 >= gap^2 (I - P); re-check
            # against the recomputed spectrum
            h2 = band.h @ band.h - band.gap ** 2 * (np.eye(band.dim) - band.p)
            assert np.min(np.linalg.eigvalsh((h2 + h2.conj().T) / 2)) > -1e-9

    def test_width_variant(self):
        model = clock_model(spec_for(g=3, s=0.0, seed=2, width=0.2))
        assert model.band.width == pytest.approx(0.2, abs=1e-10)
        res = restrict_pair(model.u, model.v, model.band, model.alpha)
        assert res.delta_in == pytest.approx(0.0, abs=1e-12)
        assert res.xi == pytest.approx(0.2 / model.band.gap, rel=1e-8)
        assert res.delta_out_measured <= res.delta_out_bound + 1e-10

    def test_restricted_value_dominates_five_dim_floor(self):
        # the restricted pair is a 5-dimensional unitary pair, so its twisted
        # commutation value at any twist dominates the closed-form minimum,
        # with near-equality around the native twist of the exact model
        model = clock_model(spec_for(g=5, s=0.0, seed=3))
        res = restrict_pair(model.u, model.v, model.band, model.alpha)
        u, v = res.u, res.v
        for alpha in np.linspace(0.02, 0.98, 25):
            val = operator_norm(twisted_commutator(u, v, float(alpha)))
            assert val >= lambda_min(5, float(alpha)) - 1e-9
        native = operator_norm(twisted_commutator(u, v, 0.2))
        assert native == pytest.approx(lambda_min(5, 0.2), abs=1e-9)

    def test_end_to_end_degrades_monotonically(self):
        # the certified dimension never increases as the perturbation grows,
        # and equals g for small perturbations
        g = 4
        previous = None
        for s in (0.0, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1):
            model = clock_model(spec_for(g=g, s=s, seed=11))
            try:
                res = restrict_pair(model.u, model.v, model.band, model.alpha)
            except ValueError:  # xi >= 1
                break
            bound = res.delta_out_bound
            cert = certify_single(model.alpha, max(bound, 1e-6) if bound > 0 else 0.0)
            if s == 0.0:
                assert cert.d_min == g
            if previous is not None:
                assert cert.d_min <= previous
            previous = cert.d_min


class TestTensorDoubleModel:
    def test_exact_relations(self):
        spec = ModelSpec(kind="tensor-double", g=2, g2=2, n_excited=4, gap=1.0,
                         seed=0)
        model = tensor_double_model(spec)
        gamma, deltas = ambient_values(model)
        assert gamma == pytest.approx(0.0, abs=1e-12)
        for val in deltas.values():
            assert val == pytest.approx(0.0, abs=1e-12)
        assert eps_max(model) == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_measurements_scale(self):
        spec = ModelSpec(kind="tensor-double", g=2, g2=3, n_excited=6, gap=1.0,
                         seed=1, perturbation_strength=0.01)
        model = tensor_double_model(spec)
        assert eps_max(model) <= 0.02 + 1e-12
        # the ambient pair relations do not involve H and stay exact
        gamma, _ = ambient_values(model)
        assert gamma == pytest.approx(0.0, abs=1e-12)

    def test_code_dim(self):
        spec = ModelSpec(kind="tensor-double", g=2, g2=3, n_excited=12, gap=1.0,
                         seed=2)
        assert spec.code_dim == 6
        model = tensor_double_model(spec)
        assert model.band.rank == 6
