"""Seeded generators of gapped Hamiltonians with approximate twisted-pair
symmetries, used as reproducible test instances.

A clock/shift pair acts exactly on a code block; on the excited block the
pair and the Hamiltonian are built from commuting tensor factors conjugated
by a seeded Haar unitary, so at zero perturbation the symmetries are exact and
the ambient twisted commutation value vanishes.  A seeded Hermitian
perturbation of the Hamiltonian then degrades everything in a controlled way.
A model holds matrices and its band only: the pipelines measure what they
read on the perturbed instance rather than trusting the construction.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .certify import _integer, _real
from .linalg import haar_unitary, norm_upper
from .minima import clock_matrix, shift_matrix
from .restriction import BandSpec

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
    perturbation_strength : operator norm of the Hermitian perturbation: at
                            most this, and within 1e-9 relative of it for
                            n <= 1000
    seed                  : nonnegative seed for all randomness

    The integers must be ints (not bools or floats) and the reals finite.
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
        for name in ("g", "g2", "n_excited", "seed"):
            _integer(getattr(self, name), name)
        for name in ("gap", "width", "perturbation_strength"):
            _real(getattr(self, name), name)
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
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
    """(G + G^dag)/2 from a seeded complex Gaussian G, divided by the proven
    upper bound `linalg.norm_upper` of its operator norm: the result has
    operator norm at most 1, and within 1e-9 of 1 for n <= 1000."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = (g + g.conj().T) / 2.0
    return k / norm_upper(k)


def _excited_block(code_ops: list[np.ndarray], spec: ModelSpec,
                   rng: np.random.Generator):
    """Excited-space images of the code operators plus a compatible excited
    Hamiltonian block: tensor each code operator with an independent diagonal
    phase, tensor the spectrum block with the identity, and conjugate
    everything by one Haar unitary.  All mutual (twisted) commutation
    relations of the code operators are preserved exactly because the diagonal
    extras commute.

    The tensor factors are never formed: W kron(op, diag(phases)) is W with
    its columns, grouped as (code, q), mixed by op and scaled by the phases,
    O(n^2 code) work, so each conjugation costs one n^3 product."""
    code = spec.code_dim
    q = spec.n_excited // code
    w = haar_unitary(spec.n_excited, rng)
    if spec.kind == "flat-band":
        levels = np.full(q, spec.gap)
    else:
        levels = rng.uniform(spec.gap, 2.0 * spec.gap, size=q)
    w_h = w.conj().T
    d = (w * np.tile(levels, code)) @ w_h
    w3 = w.reshape(spec.n_excited, code, q)  # w3[x, a, i] = w[x, a q + i]
    lifted = []
    for op in code_ops:
        phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=q))
        block = op.T @ w3  # block[x, a, i] = sum_b w3[x, b, i] op[b, a]
        block *= phases
        lifted.append(block.reshape(spec.n_excited, -1) @ w_h)
    return d, lifted


def _assemble(spec: ModelSpec, code_ops: list[np.ndarray]):
    """Build (band, lifted ops) for the perturbed instance.

    The band is the g lowest eigenvectors of the perturbed H, with the
    effective gap and width read off the same spectrum (`BandSpec.lowest`),
    not taken on trust from the nominal parameters."""
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
    del d_block, lifted  # copied into h and ops: not held through the band's n^3 work

    s = spec.perturbation_strength
    if s > 0:
        h = h + s * hermitian_perturbation(n, rng)
    return BandSpec.lowest(h, code), ops


@dataclass
class ClockModel:
    """A clock/shift pair embedded as approximate symmetries of a gapped
    Hamiltonian.  Its epsilons, xi and ambient twisted commutation value are
    measured by `restriction.restrict_pair`."""

    spec: ModelSpec
    band: BandSpec
    u: np.ndarray
    v: np.ndarray
    alpha: float


def clock_model(spec: ModelSpec) -> ClockModel:
    """Generate a (possibly perturbed) clock-block or flat-band instance.

    The code block carries the exact pair (C, S) of twist 1/g; the excited
    block carries an exactly compatible pair, so the unperturbed instance has
    ||[U, H]|| = ||[V, H]|| = ||[[U, V]]_alpha|| = 0.
    """
    if spec.kind not in ("clock-block", "flat-band"):
        raise ValueError(f"clock_model got kind {spec.kind!r}")
    g = spec.g
    band, (u, v) = _assemble(spec, [clock_matrix(g), shift_matrix(g)])
    return ClockModel(spec=spec, band=band, u=u, v=v, alpha=1.0 / g)


@dataclass
class TensorDoubleModel:
    """Two mutually compatible twisted pairs (twists 1/spec.g, 1/spec.g2) on
    a tensor-product code space, embedded as approximate symmetries.  The
    perturbation touches only H, so the ambient pair relations stay exact to
    rounding; `cli.double_pipeline` measures the band values it certifies."""

    spec: ModelSpec
    band: BandSpec
    u1: np.ndarray
    u2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray


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
    band, (u1, u2, v1, v2) = _assemble(spec, code_ops)
    return TensorDoubleModel(spec=spec, band=band, u1=u1, u2=u2, v1=v1, v2=v2)
