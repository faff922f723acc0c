"""Shared approximate eigenvectors for approximately commuting matrices.

For normal A and any B with ||[A, B]|| <= eps, an eigenvector of the block of
B on an eigenvalue cluster of A is an approximate eigenvector of both, with
residuals at most n sqrt(eps/2).  When B is also normal the approximate
eigenvalue of B can be snapped to an exact one at the price of n sqrt(eps).
This is an exponential improvement in the dimension dependence over what is
possible without the normality assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import (
    CLUSTER_DIAMETER_MARGIN,
    CLUSTER_RADIUS_FLOOR,
    EIG_RESIDUAL,
    SEED_ATOL,
)
from .linalg import (
    as_matrix,
    eig_general,
    eig_normal,
    operator_norm,
    right_eigenvector,
)

__all__ = [
    "ClusterResult",
    "SharedEigenResult",
    "cluster",
    "shared_approx_eigenvector",
    "shared_approx_eigenvector_normal",
]

@dataclass
class ClusterResult:
    """A maximal chain-connected eigenvalue cluster around a seed eigenvalue.

    indices        : positions of the clustered eigenvalues
    n              : total number of eigenvalues supplied
    radius         : the chaining radius r
    diameter       : max |lam_i - seed| over the cluster (at most n * r)
    separation     : min distance from the cluster to the rest (> r)
    seed           : the seed eigenvalue
    """

    indices: tuple
    n: int
    radius: float
    diameter: float
    separation: float
    seed: complex

    @property
    def diameter_bound(self) -> float:
        return self.n * self.radius


def cluster(eigs, seed_lambda: complex, r: float) -> ClusterResult:
    """Fixed point of the chaining iteration
    I_k = { i : exists j in I_(k-1) with |lam_i - lam_j| <= r }, seeded with
    every index whose eigenvalue lies within config.SEED_ATOL of seed_lambda
    (all of them when the seed is degenerate).

    By construction the cluster is separated from the remaining eigenvalues by
    more than r, and its diameter around the seed is at most n * r; both are
    verified on the result.
    """
    vals = np.asarray(eigs, dtype=complex).ravel()
    n = vals.size
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    dist_to_seed = np.abs(vals - seed_lambda)
    members = dist_to_seed <= SEED_ATOL
    if not np.any(members):
        raise ValueError(
            f"seed {seed_lambda} is not an eigenvalue (closest at distance "
            f"{dist_to_seed.min():.3e})"
        )
    pair_dist = np.abs(vals[:, None] - vals[None, :])
    while True:
        grown = members | np.any(pair_dist[:, members] <= r, axis=1)
        if np.array_equal(grown, members):
            break
        members = grown
    idx = np.flatnonzero(members)
    outside = np.flatnonzero(~members)
    diameter = float(np.max(dist_to_seed[idx]))
    separation = (
        float(np.min(pair_dist[np.ix_(outside, idx)])) if outside.size else math.inf
    )
    if diameter > n * r * (1 + CLUSTER_DIAMETER_MARGIN):
        raise ArithmeticError("cluster diameter exceeds n * r")
    if separation <= r:
        raise ArithmeticError("cluster separation failed to exceed r")
    return ClusterResult(
        indices=tuple(int(i) for i in idx),
        n=n,
        radius=float(r),
        diameter=diameter,
        separation=separation,
        seed=complex(seed_lambda),
    )


@dataclass
class SharedEigenResult:
    """A shared approximate eigenvector with its measured residuals, the
    guaranteed bound they satisfy, and the cluster diagnostics behind it.

    a_block_deviation / a_block_bound : ||A_V - seed I|| vs n * r
    b_offdiag_norm   / b_offdiag_bound: ||B_(Vbar V)|| vs n * eps / (2 r)
    """

    vector: np.ndarray
    eigenvalue_a: complex
    eigenvalue_b: complex
    residual_a: float
    residual_b: float
    bound: float
    epsilon: float
    cluster: ClusterResult
    a_block_deviation: float
    a_block_bound: float
    b_offdiag_norm: float
    b_offdiag_bound: float


def _snap_seed(eigs: np.ndarray, seed_lambda: complex) -> complex:
    """The eigenvalue nearest seed_lambda, provided it lies within
    config.EIG_RESIDUAL * max(1, max |lambda|) of the seed."""
    dist = np.abs(eigs - seed_lambda)
    idx = int(np.argmin(dist))
    window = EIG_RESIDUAL * max(1.0, float(np.max(np.abs(eigs))))
    if dist[idx] > window:
        raise ValueError(
            f"seed {seed_lambda} is not an eigenvalue of A (closest at distance "
            f"{dist[idx]:.3e}, snap window {window:.1e})"
        )
    return complex(eigs[idx])


def _shared(a, b, seed_lambda, normal_b: bool) -> SharedEigenResult:
    """Both variants: cluster subspace V of A around the (snapped) seed, the
    eigenpair of B_VV with the best-separated eigenvalue, and the residuals and
    block diagnostics.  normal_b selects the chain radius sqrt(eps) and snaps
    the eigenvalue of B to spec(B); otherwise the radius is sqrt(eps/2)."""
    a = as_matrix(a, square=True)
    b = as_matrix(b, square=True)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    n = a.shape[0]
    b_dec = eig_normal(b) if normal_b else None  # also enforces normality of B
    eps = operator_norm(a @ b - b @ a)
    radius = math.sqrt(eps if normal_b else eps / 2.0)
    r = max(radius, CLUSTER_RADIUS_FLOOR)

    dec = eig_normal(a)
    seed = _snap_seed(dec.eigenvalues, seed_lambda)
    cl = cluster(dec.eigenvalues, seed, r)
    idx = np.asarray(cl.indices)
    basis = dec.eigenvectors[:, idx]

    b_vv = basis.conj().T @ b @ basis
    block_vals = eig_general(b_vv)
    if block_vals.size == 1:
        chosen = complex(block_vals[0])
    else:
        seps = [
            min(abs(block_vals[i] - block_vals[j])
                for j in range(block_vals.size) if j != i)
            for i in range(block_vals.size)
        ]
        chosen = complex(block_vals[int(np.argmax(seps))])
    mu, x_v = right_eigenvector(b_vv, chosen)
    mu = complex(mu)
    if b_dec is not None:
        mu = complex(b_dec.eigenvalues[int(np.argmin(np.abs(b_dec.eigenvalues - mu)))])
    vec = basis @ x_v

    comp = np.eye(n) - basis @ basis.conj().T
    return SharedEigenResult(
        vector=vec,
        eigenvalue_a=seed,
        eigenvalue_b=mu,
        residual_a=float(np.linalg.norm(a @ vec - seed * vec)),
        residual_b=float(np.linalg.norm(b @ vec - mu * vec)),
        bound=n * radius,
        epsilon=eps,
        cluster=cl,
        a_block_deviation=float(np.max(np.abs(dec.eigenvalues[idx] - seed))),
        a_block_bound=n * r,
        b_offdiag_norm=float(np.linalg.norm(comp @ b @ basis, 2)),
        b_offdiag_bound=n * eps / (2.0 * r),
    )


def shared_approx_eigenvector(a, b, seed_lambda: complex) -> SharedEigenResult:
    """Shared approximate eigenvector of a normal A and arbitrary B with
    measured eps = ||[A, B]||, using chain radius r = sqrt(eps/2):

        ||A x - seed x||, ||B x - mu x|| <= n sqrt(eps/2).

    seed_lambda is snapped to the nearest eigenvalue of A as computed here
    when it lies within config.EIG_RESIDUAL * max(1, max |lambda|) of it, and
    that eigenvalue is reported as eigenvalue_a; a seed farther from the
    spectrum raises ValueError.

    Exactly commuting inputs collapse to a joint block diagonalization and the
    residuals vanish to machine precision.  mu comes from the best-separated
    eigenvalue of the block of B on the cluster subspace; the block need not
    be normal, and residual_b measures the vector against B itself.
    """
    return _shared(a, b, seed_lambda, normal_b=False)


def shared_approx_eigenvector_normal(a, b, seed_lambda: complex) -> SharedEigenResult:
    """Variant for normal B: the approximate eigenvalue is snapped to the
    nearest exact eigenvalue of B, at chain radius r = sqrt(eps):

        ||A x - seed x||, ||B x - nu x|| <= n sqrt(eps),   nu in spec(B).

    seed_lambda is snapped to the spectrum of A exactly as in
    shared_approx_eigenvector.
    """
    return _shared(a, b, seed_lambda, normal_b=True)
