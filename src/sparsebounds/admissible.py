"""Admissible-signal subspaces and structured BiSystem families.

Admissible signals are the nonzero fixed points x = T F x = W G x shared by
both systems; their span is computed as a numerical null space via SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL_RANK, _valid_integer, _valid_real
from .dft import dft_matrix
from .errors import NoAdmissibleSignalError, ParameterError
from .systems import (
    _DTYPES,
    COMPLEX,
    BiSystem,
    PairedSystem,
    _apply,
    _matmul,
    from_hilbert_vectors,
    identity_system,
)

# The parameter names each family takes; generate refuses any other.
_PARAMS = {
    "identity_pair": ("d",),
    "dft_pair": ("d",),
    "rotated_pair": ("d", "angle"),
    "subspace_union": ("d", "split"),
    "perturbed": ("base", "magnitude"),
}
FAMILIES = tuple(_PARAMS)

# Default magnitude of the perturbed family, also recorded by the CLI manifest.
_MAGNITUDE = 0.05


@dataclass(frozen=True)
class AdmissibleSpace:
    """Orthonormal basis (d x w) of the shared fixed-point subspace."""

    basis: np.ndarray
    w: int


def null_space_basis(a: np.ndarray, tol_rank: float = TOL_RANK) -> np.ndarray:
    """Orthonormal null-space basis of a, columns; relative SVD cutoff.

    A matrix under the cutoff (_below_cutoff), such as pure rounding noise,
    has basis I, exactly, and no SVD is run.  Above it, the cutoff floors
    sigma_max at 1, so a matrix with sigma_max < 1 is cut at tol_rank rather
    than relative to its own scale.  For a tall or square a the reduced SVD
    already holds all of vh, with the full SVD's bits, and never forms the
    left factor, which nothing reads.
    """
    if _below_cutoff(a, _valid_real("tol_rank", tol_rank)):
        return np.eye(a.shape[1], dtype=a.dtype)
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    return vh[_rank(s, tol_rank):].conj().T


def _rank(s: np.ndarray, tol_rank: float) -> np.ndarray:
    """Numerical rank of each row of descending singular values s (..., r):
    the count above tol_rank * max(sigma_max, 1), 0 when r = 0."""
    return np.count_nonzero(s > tol_rank * np.maximum(s[..., :1], 1.0), axis=-1)


# Underflow of the entries' squares only lowers a computed Frobenius norm, by
# less than the smallest normal number per entry: less than the norm's own
# rounding at or above this value.  Under it, the norm of a / max |a_ij| is
# taken instead.
_UNDERFLOW = np.finfo(float).tiny ** 0.25


def _below_cutoff(a: np.ndarray, tol_rank: float) -> bool:
    """Whether a has numerical rank 0, decided without a factorization.

    Exact, not a heuristic: sigma_max <= ||a||_F, and _rank's cutoff
    tol_rank * max(sigma_max, 1) is at least tol_rank, so when ||a||_F <=
    tol_rank no singular value exceeds it.  This holds for the empty matrix
    and for a stack [I - TF; I - WG] that is pure rounding noise (e.g.
    Frobenius norm 1.0e-14 for dft_pair at d = 512).
    """
    norm = np.linalg.norm(a)
    if norm < _UNDERFLOW:
        top = np.abs(a).max(initial=0.0)
        norm = top * np.linalg.norm(a / top) if top else 0.0
    return bool(norm <= tol_rank)


def admissible_space(bisystem: BiSystem, tol_rank: float = TOL_RANK) -> AdmissibleSpace:
    """Common fixed subspace of both systems: the null space of the 2d x d
    stack [I - TF; I - WG]."""
    eye = np.eye(bisystem.d, dtype=_DTYPES[bisystem.field])
    stacked = np.vstack([
        eye - _matmul(bisystem.first._vectors_form, bisystem.first._functionals_form),
        eye - _matmul(bisystem.second._vectors_form, bisystem.second._functionals_form),
    ])
    basis = null_space_basis(stacked, tol_rank)
    return AdmissibleSpace(basis, basis.shape[1])


def sample_admissible(space: AdmissibleSpace, seed: int) -> np.ndarray:
    """Seeded random nonzero signal in the admissible subspace.

    Deterministic for a fixed seed: basis @ c, with the coefficients c drawn
    by np.random.default_rng(seed).standard_normal (a second draw is the
    imaginary part for a complex basis) and normalized to max magnitude 1.
    """
    return _samples(space, [_valid_integer("seed", seed, 0)])[0]


def _samples(space: AdmissibleSpace, seeds) -> np.ndarray:
    """Stack (k, d) of the signals of the k integer seeds >= 0, row i bit for
    bit sample_admissible(space, seeds[i]).

    Every seed's default_rng state is computed in one pass (_pcg64_states)
    and installed in turn on one generator, which then draws that seed's
    coefficients; the ziggurat draws stay NumPy's own.
    """
    if space.w < 1:
        raise NoAdmissibleSignalError("admissible subspace is trivial (w = 0)")
    complex_basis = np.iscomplexobj(space.basis)
    # Row i holds seed i's draws in their order: the real parts, then the
    # imaginary parts for a complex basis.
    draws = np.empty((len(seeds), 2 if complex_basis else 1, space.w))
    # Its own seed is never drawn from: every row installs its state first.
    generator = np.random.Generator(np.random.PCG64(0))
    bit_generator = generator.bit_generator
    for row, (state, inc) in zip(draws, _pcg64_states(seeds)):
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        generator.standard_normal(out=row)
    c = draws[:, 0] + 1j * draws[:, 1] if complex_basis else draws[:, 0]
    return _apply(space.basis, c / np.abs(c).max(axis=-1, keepdims=True))


# np.random.default_rng(s) is Generator(PCG64(SeedSequence(s))).  Both
# seeding steps are fixed integer functions of s, written out here after
# NumPy's SeedSequence (pool of 4 uint32 words) and PCG64 so that they run on
# arrays, for many seeds at once, with the same bits.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_128 = (1 << 128) - 1
# The pool words each mixing round updates: all but its source word.
_OTHERS = [[dst for dst in range(_POOL) if dst != src] for src in range(_POOL)]


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before and after each of count hash steps: a
    sequence that does not depend on the seed."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


def _hash(value: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """SeedSequence's hash step of uint32 words, with the hash constant
    before and after the step."""
    value = (value ^ before) * after
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words x with hashed words y."""
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pool(words: np.ndarray) -> np.ndarray:
    """SeedSequence's pool (k, 4) of the entropy words (k, n), n >= 4, of k
    seeds: the first 4 words hashed, mixed with each other, then every
    further word mixed into each pool word."""
    n = words.shape[1]
    h = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + (n - _POOL) * _POOL)
    pool = _hash(words[:, :_POOL], h[:_POOL], h[1:_POOL + 1])
    j = _POOL
    for src, others in enumerate(_OTHERS):
        hashed = _hash(pool[:, src, None], h[j:j + _POOL - 1], h[j + 1:j + _POOL])
        pool[:, others] = _mix(pool[:, others], hashed)
        j += _POOL - 1
    for src in range(_POOL, n):
        pool = _mix(pool, _hash(words[:, src, None], h[j:j + _POOL], h[j + 1:j + _POOL + 1]))
        j += _POOL
    return pool


# Constants of SeedSequence.generate_state(4, np.uint64): 8 uint32 words,
# drawn cyclically from the pool.
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _pcg64_states(seeds) -> list:
    """(state, inc) of PCG64 seeded by default_rng(s), for each int s >= 0.

    A seed's entropy is its little-endian 32-bit words, zero-padded to the
    pool size; the seeds are grouped by word count, since the words past the
    pool's are mixed in one round each.  PCG64 seeds from the first two
    128-bit state words (initstate, initseq) by two steps of its LCG.
    """
    seeds = list(seeds)
    groups = {}
    for i, s in enumerate(seeds):
        groups.setdefault(max(_POOL, -(-s.bit_length() // 32)), []).append(i)
    states = [None] * len(seeds)
    for n, rows in groups.items():
        entropy = b"".join(seeds[i].to_bytes(4 * n, "little") for i in rows)
        pool = _pool(np.frombuffer(entropy, "<u4").reshape(len(rows), n).astype(np.uint32))
        words = _hash(np.tile(pool, 2), _STATE_HASH[:-1], _STATE_HASH[1:])
        for i, (s0, s1, q0, q1) in zip(rows, words.astype("<u4").view("<u8").tolist()):
            inc = ((q0 << 64 | q1) << 1 | 1) & _MASK_128
            states[i] = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK_128, inc
    return states


def _rotation(d: int, angle_deg: float) -> np.ndarray:
    theta = math.radians(angle_deg)
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
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    unknown = sorted(set(params) - set(_PARAMS[family]), key=str)
    if unknown:
        raise ParameterError(f"{family} takes no parameter {unknown[0]!r}; "
                             f"it takes {', '.join(_PARAMS[family])}")
    seed = _valid_integer("seed", seed, 0)
    if family == "perturbed":
        base = params.get("base")
        if not isinstance(base, dict) or "family" not in base:
            raise ParameterError("perturbed needs a base family descriptor")
        magnitude = _param(params, "magnitude", 0.0, _MAGNITUDE, real=True)
        if magnitude >= 1.0:
            raise ParameterError(f"magnitude must be in [0, 1), got {magnitude}")
        inner = generate(base["family"], base.get("params", {}),
                         _param(base, "seed", 0, seed))
        return _perturb(inner, magnitude, seed)
    d = _param(params, "d", 1)
    if family == "identity_pair":
        return BiSystem(identity_system(d), identity_system(d))
    if family == "dft_pair":
        eye = identity_system(d, COMPLEX)
        return BiSystem(eye, from_hilbert_vectors(dft_matrix(d)))
    if family == "rotated_pair":
        if d < 2:
            raise ParameterError("rotated_pair needs d >= 2")
        angle = _param(params, "angle", -math.inf, 45.0, real=True)
        return BiSystem(identity_system(d), from_hilbert_vectors(_rotation(d, angle)))
    # subspace_union
    split = _param(params, "split", 1, 1)
    if split > d:
        raise ParameterError(f"split must be in [1, {d}], got {split}")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    first = from_hilbert_vectors(q[:, :split])
    return BiSystem(first, identity_system(d))


def _param(params: dict, key: str, least, default=None, real: bool = False):
    """params[key], or default when it is absent: a number >= least, an
    integer by the library's integer rule (config._valid_integer) or, when
    real, a finite number by its real-number rule (config._valid_real)."""
    if key not in params and default is None:
        raise ParameterError(f"family parameter {key!r} missing")
    rule = _valid_real if real else _valid_integer
    return rule(f"family parameter {key!r}", params.get(key, default), least)


def _perturb(bisystem: BiSystem, magnitude: float, seed: int) -> BiSystem:
    """Seeded perturbation that keeps every theorem hypothesis intact.

    The ambient change of basis S = I + E, with E a seeded uniform matrix
    scaled to spectral norm `magnitude` (up to rounding), maps the admissible
    subspace without changing its dimension; per-index scalings
    tau_j -> c_j tau_j, f_j -> f_j / c_j change the cross-coherences while
    leaving every diagonal pairing exact.
    """
    rng = np.random.default_rng(seed)
    d = bisystem.d
    e = rng.uniform(-1.0, 1.0, size=(d, d))
    norm = np.linalg.norm(e, 2)
    s = np.eye(d) + (magnitude / norm) * e if norm > 0 else np.eye(d)
    s_inv = np.linalg.inv(s)

    def apply(system: PairedSystem) -> PairedSystem:
        c = rng.uniform(1.0, 1.0 + magnitude, size=system.n)
        vectors = _matmul(s, system._vectors_form) * c[None, :]
        functionals = _matmul(system.functionals / c[:, None], s_inv)
        return PairedSystem(vectors, functionals, system.field)

    return BiSystem(apply(bisystem.first), apply(bisystem.second))
