"""Seeded generators of gapped Hamiltonians with approximate twisted-pair
symmetries, used as reproducible test instances.

A clock/shift pair acts exactly on a code block; on the excited block the
pair and the Hamiltonian are built from commuting tensor factors conjugated
by a seeded Haar unitary, so at zero perturbation the symmetries are exact and
the ambient twisted commutation value vanishes.  A seeded Hermitian
perturbation of the Hamiltonian then degrades everything in a controlled way,
and all figures of merit are measured on the perturbed instance rather than
trusted from the construction.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .certify import pair_values
from .linalg import haar_unitary, operator_norm, twisted_commutator
from .minima import clock_matrix, shift_matrix
from .restriction import BandSpec, commutator_epsilon

__all__ = [
    "ModelSpec",
    "ClockModel",
    "TensorDoubleModel",
    "hermitian_perturbation",
    "clock_model",
    "tensor_double_model",
]

KINDS = ("clock-block", "tensor-double", "flat-band")


@dataclass(frozen=True)
class ModelSpec:
    """Parameters of a generated instance.

    kind                  : clock-block | flat-band | tensor-double
    g, g2                 : code dimension(s); g2 only for tensor-double
    n_excited             : excited-space dimension; must be a positive
                            multiple of the code dimension so the excited
                            block can carry the same exact twisted structure
    gap                   : nominal spectral gap of the unperturbed model
    width                 : nominal band energy ||H P|| (the code block sits
                            at width * identity)
    perturbation_strength : operator norm of the Hermitian perturbation
    seed                  : 64-bit seed for all randomness
    """

    kind: str
    g: int
    n_excited: int
    gap: float
    seed: int
    g2: int = 0
    width: float = 0.0
    perturbation_strength: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.g < 2:
            raise ValueError("code dimension must be >= 2")
        if self.kind == "tensor-double" and self.g2 < 2:
            raise ValueError("tensor-double needs g2 >= 2")
        code = self.code_dim
        if self.n_excited <= 0 or self.n_excited % code != 0:
            raise ValueError(
                f"n_excited must be a positive multiple of the code dimension "
                f"{code}, got {self.n_excited}"
            )
        if self.gap <= 0:
            raise ValueError("gap must be positive")
        if not (0.0 <= self.width < self.gap):
            raise ValueError("width must satisfy 0 <= width < gap")
        if self.perturbation_strength < 0:
            raise ValueError("perturbation_strength must be nonnegative")

    @property
    def code_dim(self) -> int:
        return self.g * self.g2 if self.kind == "tensor-double" else self.g

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        return cls(**json.loads(text))


def hermitian_perturbation(n: int, seed) -> np.ndarray:
    """(G + G^dag)/2 from a seeded complex Gaussian G, rescaled to unit
    operator norm."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = (g + g.conj().T) / 2.0
    return k / np.linalg.norm(k, 2)


def _excited_block(code_ops: list[np.ndarray], spec: ModelSpec,
                   rng: np.random.Generator):
    """Excited-space images of the code operators plus a compatible excited
    Hamiltonian block: tensor each code operator with an independent diagonal
    phase, tensor the spectrum block with the identity, and conjugate
    everything by one Haar unitary.  All mutual (twisted) commutation
    relations of the code operators are preserved exactly because the diagonal
    extras commute."""
    code = spec.code_dim
    q = spec.n_excited // code
    w = haar_unitary(spec.n_excited, rng)
    if spec.kind == "flat-band":
        levels = np.full(q, spec.gap)
    else:
        levels = rng.uniform(spec.gap, 2.0 * spec.gap, size=q)
    d = w @ np.kron(np.eye(code), np.diag(levels)) @ w.conj().T
    lifted = []
    for op in code_ops:
        phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=q))
        lifted.append(w @ np.kron(op, np.diag(phases)) @ w.conj().T)
    return d, lifted


def _assemble(spec: ModelSpec, code_ops: list[np.ndarray]):
    """Build (H, P, lifted ops, band data) for the perturbed instance.

    The band projector and the effective gap/width are recomputed from the
    perturbed spectrum (the g lowest eigenvalues), not taken on trust from the
    nominal parameters."""
    code = spec.code_dim
    n = code + spec.n_excited
    rng = np.random.default_rng(spec.seed)
    d_block, lifted = _excited_block(code_ops, spec, rng)

    h = np.zeros((n, n), dtype=complex)
    h[:code, :code] = spec.width * np.eye(code)
    h[code:, code:] = d_block
    ops = []
    for op_code, op_exc in zip(code_ops, lifted):
        full = np.zeros((n, n), dtype=complex)
        full[:code, :code] = op_code
        full[code:, code:] = op_exc
        ops.append(full)

    s = spec.perturbation_strength
    if s > 0:
        h = h + s * hermitian_perturbation(n, rng)
    h = (h + h.conj().T) / 2.0

    evals, evecs = np.linalg.eigh(h)
    band_vecs = evecs[:, :code]
    p = band_vecs @ band_vecs.conj().T
    p = (p + p.conj().T) / 2.0
    gap_eff = float(np.min(np.abs(evals[code:])))
    width_eff = float(np.max(np.abs(evals[:code]))) if code else 0.0
    return h, p, ops, gap_eff, width_eff


@dataclass
class ClockModel:
    """A clock/shift pair embedded as approximate symmetries of a gapped
    Hamiltonian, with every figure of merit measured on the instance.

    eps_u, eps_v (||[U, H]||, ||[V, H]||), delta (the ambient twisted
    commutation value), xi = (max epsilon + width) / gap and flagged
    (xi >= 1: restriction hypotheses void; kept for negative tests) are
    operator-norm measurements taken on first access and then kept, so a
    pipeline that measures them itself pays for none of them.
    """

    spec: ModelSpec
    band: BandSpec
    u: np.ndarray
    v: np.ndarray
    alpha: float

    @cached_property
    def eps_u(self) -> float:
        return commutator_epsilon(self.u, self.band)

    @cached_property
    def eps_v(self) -> float:
        return commutator_epsilon(self.v, self.band)

    @cached_property
    def delta(self) -> float:
        return operator_norm(twisted_commutator(self.u, self.v, self.alpha))

    @cached_property
    def xi(self) -> float:
        return (max(self.eps_u, self.eps_v) + self.band.width) / self.band.gap

    @cached_property
    def flagged(self) -> bool:
        return self.xi >= 1.0


def clock_model(spec: ModelSpec) -> ClockModel:
    """Generate a (possibly perturbed) clock-block or flat-band instance.

    The code block carries the exact pair (C, S) of twist 1/g; the excited
    block carries an exactly compatible pair, so the unperturbed instance has
    eps_u = eps_v = delta = 0.
    """
    if spec.kind not in ("clock-block", "flat-band"):
        raise ValueError(f"clock_model got kind {spec.kind!r}")
    g = spec.g
    h, p, (u, v), gap_eff, width_eff = _assemble(
        spec, [clock_matrix(g), shift_matrix(g)]
    )
    band = BandSpec(h, p, gap=gap_eff, width=width_eff)
    return ClockModel(spec=spec, band=band, u=u, v=v, alpha=1.0 / g)


@dataclass
class TensorDoubleModel:
    """Two mutually compatible twisted pairs on a tensor-product code space,
    embedded as approximate symmetries; gamma and the four deltas are the
    measured ambient values.  eps_max (the largest ||[op, H]||), xi and
    flagged are measured on first access, as in ClockModel."""

    spec: ModelSpec
    band: BandSpec
    u1: np.ndarray
    u2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    alpha1: float
    alpha2: float
    gamma: float
    deltas: dict

    @cached_property
    def eps_max(self) -> float:
        return max(commutator_epsilon(op, self.band)
                   for op in (self.u1, self.u2, self.v1, self.v2))

    @cached_property
    def xi(self) -> float:
        return (self.eps_max + self.band.width) / self.band.gap

    @cached_property
    def flagged(self) -> bool:
        return self.xi >= 1.0


def tensor_double_model(spec: ModelSpec) -> TensorDoubleModel:
    """Generate a (possibly perturbed) two-pair instance on C^(g * g2):
    pairs (C (x) I, S (x) I) and (I (x) C, I (x) S)."""
    if spec.kind != "tensor-double":
        raise ValueError(f"tensor_double_model got kind {spec.kind!r}")
    g, g2 = spec.g, spec.g2
    eye1, eye2 = np.eye(g), np.eye(g2)
    code_ops = [
        np.kron(clock_matrix(g), eye2),
        np.kron(eye1, clock_matrix(g2)),
        np.kron(shift_matrix(g), eye2),
        np.kron(eye1, shift_matrix(g2)),
    ]
    h, p, (u1, u2, v1, v2), gap_eff, width_eff = _assemble(spec, code_ops)

    gamma, deltas = pair_values(u1, u2, v1, v2, g, g2)
    band = BandSpec(h, p, gap=gap_eff, width=width_eff)
    return TensorDoubleModel(
        spec=spec, band=band, u1=u1, u2=u2, v1=v1, v2=v2,
        alpha1=1.0 / g, alpha2=1.0 / g2, gamma=gamma, deltas=deltas,
    )
