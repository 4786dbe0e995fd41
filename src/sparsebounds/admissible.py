"""Admissible-signal subspaces and structured BiSystem families.

Admissible signals are the nonzero fixed points x = T F x = W G x shared by
both systems; their span is computed as a numerical null space via SVD.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .config import TOL_RANK
from .dft import dft_matrix
from .errors import NoAdmissibleSignalError, ParameterError
from .systems import (
    COMPLEX,
    BiSystem,
    PairedSystem,
    from_hilbert_vectors,
    identity_system,
)

FAMILIES = ("identity_pair", "dft_pair", "rotated_pair", "subspace_union", "perturbed")


@dataclass(frozen=True)
class AdmissibleSpace:
    """Orthonormal basis (d x w) of the shared fixed-point subspace."""

    basis: np.ndarray
    w: int


def _rank(s: np.ndarray, tol_rank: float):
    """Numerical rank from descending singular values s, along the last axis.

    The cutoff floors sigma_max at 1 so that a matrix which is pure rounding
    noise (e.g. I - TF for an exactly invertible composition) still reports
    a full null space.
    """
    return np.count_nonzero(s > tol_rank * np.maximum(s[..., :1], 1.0), axis=-1)


def null_space_basis(a: np.ndarray, tol_rank: float = TOL_RANK) -> np.ndarray:
    """Orthonormal null-space basis of a, columns; relative SVD cutoff."""
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(a.shape[1], dtype=a.dtype)
    return vh[int(_rank(s, tol_rank)):].conj().T


def admissible_space(bisystem: BiSystem, tol_rank: float = TOL_RANK) -> AdmissibleSpace:
    """Common fixed subspace of both systems (stacked null-space problem)."""
    dtype = np.result_type(bisystem.first.vectors.dtype, bisystem.second.vectors.dtype)
    eye = np.eye(bisystem.d, dtype=dtype)
    stacked = np.vstack([
        eye - bisystem.first.vectors @ bisystem.first.functionals,
        eye - bisystem.second.vectors @ bisystem.second.functionals,
    ])
    basis = null_space_basis(stacked, tol_rank)
    return AdmissibleSpace(basis, basis.shape[1])


def sample_admissible(space: AdmissibleSpace, seed: int) -> np.ndarray:
    """Seeded random nonzero signal in the admissible subspace.

    Deterministic for a fixed seed; coefficients are normalized to max
    magnitude 1.
    """
    if space.w < 1:
        raise NoAdmissibleSignalError("admissible subspace is trivial (w = 0)")
    rng = np.random.default_rng(_seed(seed))
    c = rng.standard_normal(space.w)
    if np.iscomplexobj(space.basis):
        c = c + 1j * rng.standard_normal(space.w)
    c = c / np.abs(c).max()
    return space.basis @ c


def _seed(seed) -> int:
    """seed as a nonnegative integer, the domain of np.random.default_rng."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if value < 0:
        raise ParameterError(f"seed must be a nonnegative integer, got {seed!r}")
    return value


def _rotation(d: int, angle_deg: float) -> np.ndarray:
    theta = np.deg2rad(angle_deg)
    r = np.eye(d)
    r[0, 0] = r[1, 1] = np.cos(theta)
    r[0, 1] = -np.sin(theta)
    r[1, 0] = np.sin(theta)
    return r


def generate(family: str, params: dict, seed: int = 0) -> BiSystem:
    """Build a BiSystem from a named family with a documented admissible space.

    Families:
      identity_pair(d)          - both systems identity, w = d
      dft_pair(d)               - identity vs unitary DFT basis, w = d
      rotated_pair(d, angle)    - identity vs basis rotated in the (0,1)
                                  plane by `angle` degrees, w = d
      subspace_union(d, split)  - seeded orthonormal basis of a split-plane
                                  vs identity, w = split
      perturbed(base, magnitude)- any base family pushed through a seeded
                                  well-conditioned change of ambient basis
                                  plus per-index vector/functional rescaling;
                                  diagonals and the admissible dimension are
                                  preserved exactly
    """
    try:
        params = dict(params)
    except (TypeError, ValueError):
        raise ParameterError(f"family parameters must be an object, got {params!r}")
    seed = _seed(seed)
    if family == "identity_pair":
        d = _pos_int(params, "d")
        return BiSystem(identity_system(d), identity_system(d))
    if family == "dft_pair":
        d = _pos_int(params, "d")
        eye = identity_system(d, COMPLEX)
        return BiSystem(eye, from_hilbert_vectors(dft_matrix(d)))
    if family == "rotated_pair":
        d = _pos_int(params, "d")
        if d < 2:
            raise ParameterError("rotated_pair needs d >= 2")
        angle = _param(params, "angle", float, 45.0)
        return BiSystem(identity_system(d), from_hilbert_vectors(_rotation(d, angle)))
    if family == "subspace_union":
        d = _pos_int(params, "d")
        split = _param(params, "split", int, 1)
        if not 1 <= split <= d:
            raise ParameterError(f"split must be in [1, {d}], got {split}")
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        first = from_hilbert_vectors(q[:, :split])
        return BiSystem(first, identity_system(d))
    if family == "perturbed":
        base = params.get("base")
        if not isinstance(base, dict) or "family" not in base:
            raise ParameterError("perturbed needs a base family descriptor")
        magnitude = _param(params, "magnitude", float, 0.05)
        if not 0.0 <= magnitude < 1.0:
            raise ParameterError(f"magnitude must be in [0, 1), got {magnitude}")
        inner = generate(base["family"], base.get("params", {}), _param(base, "seed", int, seed))
        return _perturb(inner, magnitude, seed)
    raise ParameterError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")


def _param(params: dict, key: str, kind, default=None):
    """params[key], or default when it is absent, converted by kind (int or float)."""
    try:
        return kind(params[key] if default is None else params.get(key, default))
    except (KeyError, TypeError, ValueError):
        noun = "an integer" if kind is int else "a number"
        raise ParameterError(f"family parameter {key!r} missing or not {noun}")


def _pos_int(params: dict, key: str) -> int:
    value = _param(params, key, int)
    if value < 1:
        raise ParameterError(f"family parameter {key!r} must be positive, got {value}")
    return value


def _perturb(bisystem: BiSystem, magnitude: float, seed: int) -> BiSystem:
    """Seeded perturbation that keeps every theorem hypothesis intact.

    The ambient change of basis S = I + E (spectral norm of E below
    `magnitude`) maps the admissible subspace without changing its
    dimension; per-index scalings tau_j -> c_j tau_j, f_j -> f_j / c_j change
    the cross-coherences while leaving every diagonal pairing exact.
    """
    rng = np.random.default_rng(seed)
    d = bisystem.d
    e = rng.uniform(-1.0, 1.0, size=(d, d))
    norm = np.linalg.norm(e, 2)
    s = np.eye(d) + (magnitude / norm) * e if norm > 0 else np.eye(d)
    s_inv = np.linalg.inv(s)

    def apply(system: PairedSystem) -> PairedSystem:
        c = rng.uniform(1.0, 1.0 + magnitude, size=system.n)
        vectors = (s @ system.vectors) * c[None, :]
        functionals = (system.functionals / c[:, None]) @ s_inv
        return PairedSystem(vectors, functionals, system.field)

    return BiSystem(apply(bisystem.first), apply(bisystem.second))
