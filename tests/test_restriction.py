"""Band restriction tests: off-diagonal bounds, ground symmetries with
certified distances, the restricted twisted commutation bound, and the Gibbs
reparametrization of the gap."""

import functools

import numpy as np
import pytest
import scipy.linalg

from twistcert import (
    BandSpec,
    ModelSpec,
    clock_model,
    commutator_epsilon,
    gibbs_transform,
    ground_symmetry,
    haar_unitary,
    is_unitary,
    offdiag_norm,
    operator_norm,
    restrict_pair,
    sqrt_defect,
    tensor_double_model,
    twisted_commutator,
)
from twistcert.config import SPECTRAL_REL
from twistcert.linalg import norm_upper


def rotation(phi):
    return np.array(
        [[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]], dtype=complex
    )


def two_level_band(delta=1.0):
    h = np.diag([0.0, delta]).astype(complex)
    p = np.diag([1.0, 0.0]).astype(complex)
    return BandSpec(h, p)


def flat_excited_band(g=3, ne=4, delta=1.3, seed=0):
    """H = delta * Pbar: the configuration where the off-diagonal bound is
    exactly tight."""
    n = g + ne
    h = np.zeros((n, n), dtype=complex)
    h[g:, g:] = delta * np.eye(ne)
    p = np.zeros((n, n), dtype=complex)
    p[:g, :g] = np.eye(g)
    return BandSpec(h, p)


class TestSqrtDefect:
    def test_bracketing_on_grid(self):
        for x in np.linspace(0.0, 1.0, 101):
            f = sqrt_defect(x)
            assert x / 2.0 - 1e-15 <= f <= x + 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            sqrt_defect(-0.1)
        with pytest.raises(ValueError):
            sqrt_defect(1.1)


class TestBandSpec:
    def test_computes_gap_and_width(self):
        band = two_level_band(2.5)
        assert band.gap == pytest.approx(2.5)
        assert band.width == pytest.approx(0.0, abs=1e-12)

    def test_rejects_overstated_gap(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        p = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            BandSpec(h, p, gap=2.0)

    def test_rejects_understated_width(self):
        h = np.diag([0.3, 2.0]).astype(complex)
        p = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            BandSpec(h, p, width=0.1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["gap", "width"])
    def test_rejects_non_finite_stated_value(self, name, value):
        h = np.diag([0.0, 0.0, 1.0, 1.0])
        p = np.diag([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            BandSpec(h, p, **{name: value})

    def test_rejects_non_projector(self):
        with pytest.raises(ValueError):
            BandSpec(np.diag([0.0, 1.0]), np.diag([0.5, 0.0]))

    def test_rejects_non_spectral_projector(self):
        h = np.array([[0.0, 0.3], [0.3, 1.0]], dtype=complex)
        p = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            BandSpec(h, p)

    def test_band_basis_orthonormal(self):
        band = flat_excited_band()
        b = band.band_basis
        assert b.shape == (7, 3)
        assert np.allclose(b.conj().T @ b, np.eye(3), atol=1e-12)


class TestCommutatorEpsilon:
    def test_exact_symmetry(self):
        band = flat_excited_band()
        u = np.diag(np.exp(2j * np.pi * np.arange(7) / 7.0))
        # block-diagonal unitary commuting with H = delta * Pbar? only the
        # block structure matters: build one commuting with both blocks
        u = np.zeros((7, 7), dtype=complex)
        u[:3, :3] = haar_unitary(3, 0)
        u[3:, 3:] = haar_unitary(4, 1)
        assert commutator_epsilon(u, band) == pytest.approx(0.0, abs=1e-12)

    def test_rotation_value(self):
        # H = diag(0, D), planar rotation: ||[U, H]|| = D sin(phi)
        for phi in (0.1, 0.4, 1.0):
            for d in (1.0, 2.7):
                band = two_level_band(d)
                eps = commutator_epsilon(rotation(phi), band)
                assert eps == pytest.approx(d * np.sin(phi), rel=1e-12)

    def test_rejects_non_unitary(self):
        band = two_level_band()
        with pytest.raises(ValueError):
            commutator_epsilon(np.diag([1.0, 0.5]), band)


class TestOffdiagNorm:
    def test_block_diagonal_gives_zero(self):
        band = flat_excited_band()
        u = np.zeros((7, 7), dtype=complex)
        u[:3, :3] = haar_unitary(3, 3)
        u[3:, 3:] = haar_unitary(4, 4)
        assert offdiag_norm(u, band) == pytest.approx(0.0, abs=1e-13)

    def test_flat_excited_equality(self):
        # H = delta * Pbar makes the off-diagonal bound an equality
        band = flat_excited_band(delta=1.7, seed=1)
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = haar_unitary(7, rng)
            off = offdiag_norm(u, band)
            eps = commutator_epsilon(u, band)
            assert abs(off - eps / band.gap) < 1e-12

    def test_bounded_by_eps_over_gap(self):
        rng = np.random.default_rng(12)
        for seed in range(30):
            model = clock_model(
                ModelSpec(kind="clock-block", g=3, n_excited=6, gap=1.0,
                          seed=seed, perturbation_strength=0.05)
            )
            u = model.u
            off = offdiag_norm(u, model.band)
            eps = commutator_epsilon(u, model.band)
            assert off <= (eps + model.band.width) / model.band.gap + 1e-10


def dense_symmetry(gs, u, band):
    """The band symmetry B W B^dag + Pbar U Pbar of ground_symmetry, formed
    densely from its band part W = gs.on_band."""
    b = band.band_basis
    return b @ gs.on_band @ b.conj().T + band.p_bar @ u @ band.p_bar


class TestGroundSymmetry:
    def test_exact_symmetry_unchanged(self):
        band = flat_excited_band()
        u = np.zeros((7, 7), dtype=complex)
        u[:3, :3] = haar_unitary(3, 5)
        u[3:, 3:] = haar_unitary(4, 6)
        gs = ground_symmetry(u, band)
        assert np.linalg.norm(dense_symmetry(gs, u, band) - u, 2) < 1e-10
        assert gs.xi == pytest.approx(0.0, abs=1e-12)

    def test_two_level_tightness(self):
        # ||P (U - Utilde) P|| = 1 - cos(phi) exactly
        for phi in (0.2, 0.7, 1.2):
            band = two_level_band(1.0)
            gs = ground_symmetry(rotation(phi), band)
            assert abs(gs.dist_band_measured - (1.0 - np.cos(phi))) < 1e-12

    def test_commutes_with_projector_and_band_unitary(self):
        for seed in range(25):
            model = clock_model(
                ModelSpec(kind="clock-block", g=4, n_excited=8, gap=1.0,
                          seed=seed, perturbation_strength=0.04)
            )
            try:
                gs = restrict_pair(model.u, model.v, model.band, model.alpha).ground_u
            except ValueError:  # xi >= 1
                continue
            p = model.band.p
            full = dense_symmetry(gs, model.u, model.band)
            assert np.linalg.norm(full @ p - p @ full, 2) < 1e-10
            assert np.linalg.norm(p @ full.conj().T @ full @ p - p, 2) < 1e-10
            assert is_unitary(gs.on_band, 1e-10)

    def test_distance_bounds_hold(self):
        for seed in range(15):
            model = clock_model(
                ModelSpec(kind="clock-block", g=3, n_excited=6, gap=1.0,
                          seed=100 + seed, perturbation_strength=0.05)
            )
            try:
                gs = restrict_pair(model.u, model.v, model.band, model.alpha).ground_u
            except ValueError:  # xi >= 1
                continue
            assert gs.dist_full_measured <= gs.dist_full_bound + 1e-9
            assert gs.dist_band_measured <= gs.dist_band_bound + 1e-9

    def test_rejects_xi_at_least_one(self):
        # the full swap rotation has xi = sin(pi/2) = 1 and a singular band block
        band = two_level_band(1.0)
        with pytest.raises(ValueError):
            ground_symmetry(rotation(np.pi / 2.0), band)


def hand_built_band(g, ne, seed):
    """A band whose projector is formed from a Haar basis separately from H,
    and a unitary near a symmetry of it: block diagonal in that basis, times
    exp(i t K) for a small Hermitian K."""
    rng = np.random.default_rng(seed)
    n = g + ne
    w = haar_unitary(n, rng)
    levels = np.concatenate([rng.uniform(-0.05, 0.05, g), rng.uniform(1.0, 2.0, ne)])
    h = (w * levels) @ w.conj().T
    p = w[:, :g] @ w[:, :g].conj().T
    blocks = np.zeros((n, n), dtype=complex)
    blocks[:g, :g] = haar_unitary(g, rng)
    blocks[g:, g:] = haar_unitary(ne, rng)
    k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    evals, evecs = np.linalg.eigh((k + k.conj().T) / 2.0)
    kick = (evecs * np.exp(0.03j * evals)) @ evecs.conj().T
    u = w @ blocks @ w.conj().T @ kick
    return BandSpec(h, p), u


FACTOR_ONCE_CASES = ("clock-block", "tensor-double", "hand-built", "hand-built-narrow")


@functools.cache
def factor_once_case(name):
    """(band, u) for one of FACTOR_ONCE_CASES."""
    if name == "clock-block":
        model = clock_model(
            ModelSpec(kind="clock-block", g=3, n_excited=60, gap=1.0, seed=21,
                      width=0.02, perturbation_strength=0.03)
        )
        return model.band, model.u
    if name == "tensor-double":
        model = tensor_double_model(
            ModelSpec(kind="tensor-double", g=2, g2=3, n_excited=18, gap=1.0,
                      seed=22, perturbation_strength=0.02)
        )
        return model.band, model.v2
    if name == "hand-built":
        return hand_built_band(3, 5, seed=23)
    # band rank above the complement dimension: the core's blocks are rank deficient
    return hand_built_band(4, 2, seed=24)


class TestFactorOnceForms:
    """The small-block forms of the band basis and of the ground-symmetry
    distances agree with their dense definitions."""

    @pytest.mark.parametrize("name", FACTOR_ONCE_CASES)
    def test_band_basis_orthonormal_and_invariant(self, name):
        band, _ = factor_once_case(name)
        b = band.band_basis
        assert b.shape == (band.dim, band.rank)
        assert np.linalg.norm(b.conj().T @ b - np.eye(band.rank), 2) <= 1e-12
        assert np.linalg.norm(band.p @ b - b, 2) <= 1e-12

    @pytest.mark.parametrize("name", FACTOR_ONCE_CASES)
    def test_distances_equal_dense_norms(self, name):
        band, u = factor_once_case(name)
        p = band.p
        gs = ground_symmetry(u, band)
        diff = u - dense_symmetry(gs, u, band)
        assert gs.dist_full_measured == pytest.approx(operator_norm(diff), abs=1e-12)
        assert gs.dist_band_measured == pytest.approx(operator_norm(p @ diff @ p), abs=1e-12)
        assert gs.dist_full_measured > 1e-6  # a nontrivial instance


def spectral_pair(band_levels, excited_levels, seed):
    """(H, P): the levels on a seeded Haar basis, with P formed from the band
    columns of that basis rather than by an eigensolver."""
    levels = np.concatenate([band_levels, excited_levels])
    w = haar_unitary(levels.size, np.random.default_rng(seed))
    g = len(band_levels)
    return (w * levels) @ w.conj().T, w[:, :g] @ w[:, :g].conj().T


def dense_band_check(h, p, gap=None, width=None, rel=SPECTRAL_REL):
    """The gap and width checks of BandSpec decided by the n x n SVD of H P
    and the eigvalsh of H^2 - gap^2 (I - P) alone, in the constructor's
    order: the message of the first failing check, or None."""
    h = (h + h.conj().T) / 2.0
    p = (p + p.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(h)
    scale = max(1.0, float(np.max(np.abs(evals))))
    in_band = np.linalg.norm(p @ evecs, axis=0) ** 2 > 0.5
    gap_actual = float(np.min(np.abs(evals[~in_band])))
    width_actual = float(np.linalg.norm(h @ p, 2))
    if gap is None:
        gap = gap_actual
    elif gap > gap_actual * (1.0 + rel) + rel * scale:
        return f"stated gap {gap:.6g} overstates the actual gap {gap_actual:.6g}"
    if width is None:
        width = width_actual
    elif width < width_actual * (1.0 - rel) - rel * scale:
        return (f"stated width {width:.6g} understates the actual ||H P|| "
                f"{width_actual:.6g}")
    if width_actual > width * (1.0 + rel) + rel * scale:
        return "||H P|| exceeds the stated width"
    h2 = h @ h - gap ** 2 * (np.eye(h.shape[0]) - p)
    if np.min(np.linalg.eigvalsh((h2 + h2.conj().T) / 2.0)) < -rel * scale ** 2:
        return "H^2 >= gap^2 (I - P) fails to tolerance"
    return None


def band_outcome(h, p, gap=None, width=None):
    try:
        BandSpec(h, p, gap=gap, width=width)
    except ValueError as err:
        return str(err)
    return None


@pytest.fixture
def dense_checks(monkeypatch):
    """Counts of the dense checks' n x n SVDs (np.linalg.norm(x, 2)) and
    eigvalsh calls made inside BandSpec."""
    counts = {"svd": 0, "eigvalsh": 0}
    norm, eigvalsh = np.linalg.norm, np.linalg.eigvalsh

    def counting_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2 and x.shape[0] == x.shape[1] > 1:
            counts["svd"] += 1
        return norm(x, ord, *args, **kwargs)

    def counting_eigvalsh(a, *args, **kwargs):
        counts["eigvalsh"] += 1
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    return counts


class TestSpectralBounds:
    """BandSpec's eigensystem bounds decide exactly as the dense SVD and
    eigvalsh checks they stand in for, right at the tolerance edges, and
    leave the dense checks unrun away from them."""

    rel = SPECTRAL_REL

    def width_edge_case(self):
        h, p = spectral_pair([0.04, -0.03, 0.01], [1.0, 1.4, 1.9, 2.0], seed=31)
        hs, ps = (h + h.conj().T) / 2.0, (p + p.conj().T) / 2.0
        width_actual = float(np.linalg.norm(hs @ ps, 2))
        scale = max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(hs)))))
        # the stated width at which ||H P|| <= width (1 + rel) + rel scale is tight
        edge = (width_actual - self.rel * scale) / (1.0 + self.rel)
        return h, p, width_actual, edge

    def test_width_at_the_edge(self):
        h, p, _, edge = self.width_edge_case()
        outcomes = set()
        # the "understates" edge lies a few tens of ulps below: cover both
        for k in range(-40, 9, 2):
            width = edge + k * np.spacing(edge)
            outcome = band_outcome(h, p, width=width)
            assert outcome == dense_band_check(h, p, width=width), k
            outcomes.add(outcome and outcome.split(" ")[1])
        assert outcomes == {None, "width", "P||"}  # pass, understates, exceeds

    def test_width_away_from_the_edge(self, dense_checks):
        h, p, width_actual, _ = self.width_edge_case()
        dense_checks.update(svd=0, eigvalsh=0)  # count BandSpec's calls only
        assert band_outcome(h, p, width=1.5 * width_actual) is None
        assert band_outcome(h, p, width=width_actual * (1.0 + 1e-6)) is None
        assert dense_checks["svd"] == 0
        message = band_outcome(h, p, width=0.5 * width_actual)
        assert dense_checks["svd"] == 1
        assert message.startswith("stated width")
        assert message == dense_band_check(h, p, width=0.5 * width_actual)

    def gap_edge_case(self):
        h, p = spectral_pair([0.05, -0.02], [1.0, 1.2, 1.7, 2.0, 2.0], seed=32)
        hs, ps = (h + h.conj().T) / 2.0, (p + p.conj().T) / 2.0
        evals = np.linalg.eigvalsh(hs)
        in_band = np.abs(evals) < 0.5
        gap_actual = float(np.min(np.abs(evals[~in_band])))
        scale = max(1.0, float(np.max(np.abs(evals))))
        # the stated gap at which min eig(H^2 - gap^2 (I - P)) = -rel scale^2
        return h, p, gap_actual ** 2 + self.rel * scale ** 2

    def test_gap_at_the_edge(self):
        h, p, edge_sq = self.gap_edge_case()
        width = 0.1  # settled away from its edge
        outcomes = []
        for k in range(-40, 41, 4):
            gap = float(np.sqrt(edge_sq + k * 1e-15))
            outcome = band_outcome(h, p, gap=gap, width=width)
            assert outcome == dense_band_check(h, p, gap=gap, width=width), k
            outcomes.append(outcome)
        assert set(outcomes) == {None, "H^2 >= gap^2 (I - P) fails to tolerance"}

    def test_gap_away_from_the_edge(self, dense_checks):
        h, p, edge_sq = self.gap_edge_case()
        dense_checks.update(svd=0, eigvalsh=0)  # count BandSpec's calls only
        assert band_outcome(h, p, gap=float(np.sqrt(edge_sq - 1e-10)), width=0.1) is None
        assert band_outcome(h, p, gap=0.9, width=0.1) is None
        assert dense_checks == {"svd": 0, "eigvalsh": 0}
        gap = float(np.sqrt(edge_sq + 1e-10))
        message = band_outcome(h, p, gap=gap, width=0.1)
        assert dense_checks == {"svd": 0, "eigvalsh": 1}
        assert message == "H^2 >= gap^2 (I - P) fails to tolerance"
        assert message == dense_band_check(h, p, gap=gap, width=0.1)


class TestLowestBand:
    @pytest.mark.parametrize("rank", [1, 3, 5])
    def test_equals_band_from_separate_eigh(self, rank, monkeypatch):
        """lambda_rank >= 0 (ranks 3, 5) takes the subset eigensolve and no
        full eigh; lambda_1 < 0 (rank 1) takes the full eigh.  Either way the
        band equals one stated from a separate call of the same solver."""
        h, _ = spectral_pair(np.linspace(-0.1, 0.1, 5), np.linspace(1.0, 2.5, 6), seed=33)
        h = h + 1e-13 * haar_unitary(11, 34)  # not exactly Hermitian
        full = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: full.append(a.shape) or eigh(a))
        lowest = BandSpec.lowest(h, rank)
        monkeypatch.undo()
        sym = (h + h.conj().T) / 2.0
        if rank == 1:
            assert full == [(11, 11)]
            evals, evecs = np.linalg.eigh(sym)
        else:
            assert full == []
            evals, evecs = scipy.linalg.eigh(sym, subset_by_index=[0, rank], driver="evr")
        p = evecs[:, :rank] @ evecs[:, :rank].conj().T
        ref = BandSpec(h, p, gap=float(np.min(np.abs(evals[rank:]))),
                       width=float(np.max(np.abs(evals[:rank]))))
        assert np.linalg.norm(lowest.p - ref.p, 2) <= 1e-12
        assert lowest.gap == ref.gap
        assert lowest.width == ref.width
        assert lowest.rank == ref.rank == rank
        b, c = lowest.band_basis, ref.band_basis
        assert np.linalg.norm(b @ b.conj().T - c @ c.conj().T, 2) <= 1e-12

    @pytest.mark.parametrize("rank", [0, 11])
    def test_rejects_rank_outside_the_space(self, rank):
        h, _ = spectral_pair([0.0], np.linspace(1.0, 2.0, 10), seed=35)
        with pytest.raises(ValueError, match="band rank must lie in"):
            BandSpec.lowest(h, rank)

    def test_zero_lambda_rank_is_no_gap(self, monkeypatch):
        """lambda_rank = 0 takes the subset path, whose gap check rejects it."""
        full = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: full.append(a.shape) or eigh(a))
        with pytest.raises(ValueError, match=r"^gap must be positive, got 0\.0$"):
            BandSpec.lowest(np.diag([-0.1, 0.0, 1.0, 2.0]), 1)
        assert full == []


class TestRestrictPair:
    def test_exact_model_restricts_exactly(self):
        model = clock_model(
            ModelSpec(kind="clock-block", g=3, n_excited=6, gap=1.0, seed=0)
        )
        res = restrict_pair(model.u, model.v, model.band, model.alpha)
        assert res.delta_out_bound == pytest.approx(0.0, abs=1e-10)
        assert res.delta_out_measured == pytest.approx(0.0, abs=1e-10)

    def test_xi_zero_keeps_delta(self):
        # exact symmetries whose band blocks only approximately twist-commute
        g, ne = 3, 3
        n = g + ne
        h = np.zeros((n, n), dtype=complex)
        h[g:, g:] = np.diag([1.0, 1.3, 1.9])
        p = np.zeros((n, n), dtype=complex)
        p[:g, :g] = np.eye(g)
        band = BandSpec(h, p)
        rng = np.random.default_rng(3)
        u = np.zeros((n, n), dtype=complex)
        v = np.zeros((n, n), dtype=complex)
        u[:g, :g] = haar_unitary(g, rng)
        v[:g, :g] = haar_unitary(g, rng)
        u[g:, g:] = np.diag(np.exp(2j * np.pi * rng.uniform(size=ne)))
        v[g:, g:] = np.diag(np.exp(2j * np.pi * rng.uniform(size=ne)))
        alpha = 0.21
        delta = operator_norm(twisted_commutator(u, v, alpha))
        res = restrict_pair(u, v, band, alpha)
        assert res.xi == pytest.approx(0.0, abs=1e-12)
        assert res.delta_out_bound == pytest.approx(delta, rel=1e-12)
        assert res.delta_out_measured <= delta + 1e-10

    def test_bound_formula(self):
        # xi = 0.1, delta = 0.05: bound = 0.05 + 0.02 + 4 (1 - sqrt(0.99))
        expected = 0.05 + 2 * 0.1 ** 2 + 4 * (1.0 - np.sqrt(1.0 - 0.01))
        assert expected == pytest.approx(0.0900502512, abs=1e-9)

    def test_budget_inputs_are_proven_bounds(self):
        # epsilon and delta_in are norm_upper of the dense commutators, which
        # never fall below the SVD's values
        model = clock_model(
            ModelSpec(kind="clock-block", g=3, n_excited=6, gap=1.0,
                      seed=55, perturbation_strength=0.02)
        )
        u, v, h = model.u, model.v, model.band.h
        res = restrict_pair(u, v, model.band, model.alpha)
        for got, dense in ((res.eps_u, u @ h - h @ u), (res.eps_v, v @ h - h @ v),
                           (res.delta_in, twisted_commutator(u, v, model.alpha))):
            assert got == norm_upper(dense)
            assert got >= operator_norm(dense) > 0.0

    def test_perturbed_instances_obey_bound(self):
        rng = np.random.default_rng(77)
        checked = 0
        for seed in range(60):
            g = int(rng.integers(2, 6))
            s = float(rng.uniform(0.0, 0.08))
            model = clock_model(
                ModelSpec(kind="clock-block", g=g, n_excited=2 * g, gap=1.0,
                          seed=seed, perturbation_strength=s)
            )
            try:
                res = restrict_pair(model.u, model.v, model.band, model.alpha)
            except ValueError:  # xi >= 1
                continue
            assert is_unitary(res.u, 1e-10) and is_unitary(res.v, 1e-10)
            assert res.delta_out_measured <= res.delta_out_bound + 1e-8
            checked += 1
        assert checked > 40


class TestGibbsTransform:
    def test_half_gap_at_log_two(self):
        band = flat_excited_band(delta=3.7)
        beta = np.log(2.0) / band.gap
        new = gibbs_transform(band, beta)
        assert new.gap == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(new.p, band.p, atol=1e-12)

    def test_small_beta_limit(self):
        band = flat_excited_band(delta=2.0)
        new = gibbs_transform(band, 1e-6)
        assert np.linalg.norm(new.h, 2) < 1e-5
        assert new.gap == pytest.approx(1.0 - np.exp(-1e-6 * 2.0), rel=1e-9)

    def test_scalar_exponentials(self):
        h = np.diag([0.0, 1.0, 3.0]).astype(complex)
        p = np.diag([1.0, 0.0, 0.0]).astype(complex)
        band = BandSpec(h, p)
        new = gibbs_transform(band, 1.0)
        expected = np.diag([0.0, 1.0 - np.exp(-1.0), 1.0 - np.exp(-3.0)])
        assert np.allclose(new.h, expected, atol=1e-12)

    def test_runs_one_full_eigh(self, monkeypatch):
        band = flat_excited_band(delta=2.0)
        full = []
        np_eigh, sp_eigh = np.linalg.eigh, scipy.linalg.eigh

        def scipy_eigh(a, *args, **kwargs):
            if kwargs.get("subset_by_index") is None:
                full.append("scipy")
            return sp_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", lambda a: full.append("numpy") or np_eigh(a))
        monkeypatch.setattr(scipy.linalg, "eigh", scipy_eigh)
        gibbs_transform(band, 0.7)
        assert full == ["numpy"]

    @pytest.mark.parametrize("beta", [0.05, 0.7, 3.0])
    def test_equals_two_eigh_reference(self, beta):
        h, p = spectral_pair([0.04, -0.03, 0.01], [1.0, 1.4, 1.9, 2.0], seed=36)
        band = BandSpec(h, p)
        new = gibbs_transform(band, beta)
        evals, evecs = np.linalg.eigh(band.h)
        h2 = (evecs * (1.0 - np.exp(-beta * evals))) @ evecs.conj().T
        ref = BandSpec((h2 + h2.conj().T) / 2.0, band.p,
                       gap=1.0 - np.exp(-beta * band.gap))
        assert abs(new.gap - ref.gap) <= 1e-12
        assert abs(new.width - ref.width) <= 1e-12
        assert np.linalg.norm(new.p - ref.p, 2) <= 1e-12
        assert np.linalg.norm(new.h - ref.h, 2) <= 1e-12

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            gibbs_transform(two_level_band(), 0.0)
