"""Admissible-signal subspaces and structured BiSystem families.

Admissible signals are the nonzero fixed points x = T F x = W G x shared by
both systems; their span is computed as a numerical null space via SVD.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import TOL_RANK, _valid_array, _valid_integer, _valid_real
from .dft import dft_matrix
from .errors import NoAdmissibleSignalError, ParameterError, StructuralError
from .systems import (
    _DTYPES,
    COMPLEX,
    REAL,
    BiSystem,
    PairedSystem,
    _adopted,
    _apply,
    _exact,
    _Form,
    _form,
    _identity,
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


@dataclass(frozen=True, eq=False)
class AdmissibleSpace:
    """Orthonormal basis (d x w) of the shared fixed-point subspace.

    w is the basis's column count.  The basis takes the library's array
    rule (config._valid_array) when the space is made, so a basis with a
    non-finite entry, or one that is not a 2-d matrix, is refused then with
    StructuralError.  It is private and read-only: a copy of the array a
    caller gives, in that array's memory order, so every product with it
    runs the BLAS call, and has the bits, of the array given; the rank-0
    identity that admissible_space makes is adopted as it is, with its
    known form (_identity_space).  Its product form (systems._form) is
    therefore decided at most once and kept on the instance.
    """

    basis: np.ndarray

    def __post_init__(self):
        self._own(np.array(_valid_array("admissible basis", self.basis), order="K"))

    def _own(self, basis: np.ndarray) -> None:
        """Keep basis, checked by the array rule, read-only as the space's."""
        if basis.ndim != 2:
            raise StructuralError(f"admissible basis has shape {basis.shape}, "
                                  f"expected a (d, w) matrix")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def w(self) -> int:
        """The dimension of the subspace: the basis's column count."""
        return self.basis.shape[1]

    @cached_property
    def _form(self) -> _Form:
        """The basis's product form (systems._form), decided once."""
        return _form(self.basis)


def null_space_basis(a: np.ndarray, tol_rank: float = TOL_RANK) -> np.ndarray:
    """Orthonormal null-space basis of a, columns; relative SVD cutoff.

    A matrix under the cutoff (_below_cutoff), such as pure rounding noise,
    has basis I, exactly, and no SVD is run.  Above it, the cutoff floors
    sigma_max at 1, so a matrix with sigma_max < 1 is cut at tol_rank rather
    than relative to its own scale.  For a tall or square a the reduced SVD
    already holds all of vh, with the full SVD's bits: it still returns the
    (r x d) left factor, which nothing reads, but not the full (r x r) one.
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
# rounding at or above this value.  Under it, and where the squares overflow
# to inf, the norm of a / max |a_ij| is taken instead.
_UNDERFLOW = np.finfo(float).tiny ** 0.25


def _below_cutoff(a: np.ndarray, tol_rank: float) -> bool:
    """Whether a has numerical rank 0, decided without a factorization.

    Exact, not a heuristic: sigma_max <= ||a||_F, and _rank's cutoff
    tol_rank * max(sigma_max, 1) is at least tol_rank, so when ||a||_F <=
    tol_rank no singular value exceeds it.  This holds for the empty matrix
    and for a matrix of pure rounding noise.
    """
    return _norm(a) <= tol_rank


def _norm(a: np.ndarray) -> float:
    """||a||_F, scaled by max |a_ij| where the squares underflow or overflow;
    inf or NaN when a holds one."""
    with np.errstate(over="ignore"):  # a norm beyond the largest float is inf
        norm = np.linalg.norm(a)
        if norm < _UNDERFLOW or norm == np.inf:
            # The largest magnitude, read on a itself when a is real, so
            # without a copy: an identity's exactly zero half I - TF comes
            # here (_stack).  A complex a is scaled as |a|: numpy's complex
            # a / top overflows where top is subnormal.
            mags = np.abs(a) if np.iscomplexobj(a) else a
            top = np.maximum(mags.max(initial=0.0), -mags.min(initial=0.0))
            norm = top * np.linalg.norm(mags / top) if 0 < top < np.inf else top
    return float(norm)


def admissible_space(bisystem: BiSystem, tol_rank: float = TOL_RANK) -> AdmissibleSpace:
    """Common fixed subspace of both systems: the null space of the 2d x d
    stack [I - TF; I - WG], or I, exactly, when the stack is under the
    cutoff (_stack)."""
    stacked = _stack(bisystem, tol_rank)
    if stacked is None:
        return _identity_space(bisystem.d, _DTYPES[bisystem.field])
    return AdmissibleSpace(null_space_basis(stacked, tol_rank))


def _identity_space(d: int, dtype) -> AdmissibleSpace:
    """The space with basis I of dtype, made once and adopted, not copied,
    with its known form (systems._identity), so _form never scans it."""
    identity = _identity(d, dtype)
    space = object.__new__(AdmissibleSpace)
    space._own(_valid_array("admissible basis", identity.matrix))
    space.__dict__["_form"] = identity
    return space


def _stack(bisystem: BiSystem, tol_rank: float) -> np.ndarray | None:
    """The stack [I - TF; I - WG], or None when it has numerical rank 0.

    Rank 0 is _below_cutoff's test on hypot(||I - TF||_F, ||I - WG||_F),
    so a stack of rounding noise, as every dft_pair and perturbed(dft_pair)
    has (Frobenius norm 1.0e-14 at d = 512), is never made.  The halves are scanned for a non-finite entry only
    when that norm is not finite, and refused before tol_rank is read.
    """
    halves = _halves(bisystem)
    # A complex half's norm is taken on its float view: the same squares,
    # without the copies np.linalg.norm makes of its real and imaginary parts.
    norm = math.hypot(*(_norm(half.view(half.real.dtype)) for half in halves))
    if not math.isfinite(norm) and not all(np.isfinite(half).all() for half in halves):
        raise StructuralError("admissible basis contains non-finite entries")
    if norm <= _valid_real("tol_rank", tol_rank):
        return None
    return np.concatenate(halves)


def _halves(bisystem: BiSystem) -> list[np.ndarray]:
    """I - TF and I - WG, each formed in place in its product: 0.0 - p off
    the diagonal and 1.0 - p_jj on it, the bits of np.subtract(I, p).  A
    product that overflows leaves inf or NaN, refused by _stack."""
    halves = []
    with np.errstate(over="ignore", invalid="ignore"):
        for system in (bisystem.first, bisystem.second):
            product = _matmul(system._vectors_form, system._functionals_form)
            on = 1.0 - np.diagonal(product)
            np.subtract(0.0, product, out=product)
            np.fill_diagonal(product, on)
            halves.append(product)
    return halves


def _check_space(bisystem: BiSystem, space: AdmissibleSpace) -> None:
    """Refuses a space that does not fit the bisystem: a basis without the
    bisystem's d rows, or a complex-typed one for a real bisystem.  The
    field is decided by dtype, not by value: a complex-typed basis draws
    complex coefficients (_samples) even when its imaginary part is zero."""
    if space.basis.shape[0] != bisystem.d:
        raise StructuralError(f"admissible basis has shape {space.basis.shape}, expected "
                              f"(d, w) = ({bisystem.d}, {space.w})")
    if np.iscomplexobj(space.basis) and bisystem.field == REAL:
        raise StructuralError("admissible basis is complex but the bisystem is real")


def sample_admissible(space: AdmissibleSpace, seed: int) -> np.ndarray:
    """Seeded random nonzero signal in the admissible subspace.

    Deterministic for a fixed seed: basis @ c, with the coefficients c drawn
    by np.random.default_rng(seed).standard_normal (a second draw is the
    imaginary part for a complex basis) and normalized to max magnitude 1.
    It is trial 0 of exhaustive_verify's sweep at that seed.
    """
    rng = np.random.default_rng(_valid_integer("seed", seed, 0))
    return _samples(space, rng, 1)[0]


def _samples(space: AdmissibleSpace, rng: np.random.Generator, count: int) -> np.ndarray:
    """Stack (count, d) of the next count signals drawn from rng.

    Row t's coefficients are row t of rng.standard_normal((count, 2, w)) for
    a complex basis (real parts, then imaginary parts), or of
    (count, 1, w) for a real one, normalized to max magnitude 1.
    standard_normal fills its output in order, so draws of k and then of j
    rows from one generator give the rows of one draw of k + j.  The basis
    applies by its kept form (systems._apply): an identity or diagonal basis
    as a scaling.
    """
    if space.w < 1:
        raise NoAdmissibleSignalError("admissible subspace is trivial (w = 0)")
    if np.iscomplexobj(space.basis):
        # Each real part moved next to its imaginary part: one complex array.
        draws = rng.standard_normal((count, 2, space.w)).transpose(0, 2, 1)
        c = np.ascontiguousarray(draws).view(np.complex128)[..., 0]
    else:
        c = rng.standard_normal((count, space.w))
    c /= np.abs(c).max(axis=-1, keepdims=True)
    return _apply(space._form, c)


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
    if not isinstance(params, Mapping):
        raise ParameterError(f"family parameters must be an object, got {params!r}")
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    unknown = sorted(set(params) - set(_PARAMS[family]), key=str)
    if unknown:
        raise ParameterError(f"{family} takes no parameter {unknown[0]!r}; "
                             f"it takes {', '.join(_PARAMS[family])}")
    seed = _valid_integer("seed", seed, 0)
    if family == "perturbed":
        base = _descriptor(params.get("base"), seed, "perturbed base")
        magnitude = _param(params, "magnitude", 0.0, _MAGNITUDE, real=True)
        if magnitude >= 1.0:
            raise ParameterError(f"magnitude must be in [0, 1), got {magnitude}")
        return _perturb(generate(*base), magnitude, seed)
    d = _param(params, "d", 1)
    if family == "identity_pair":
        return BiSystem(identity_system(d), identity_system(d))
    if family == "dft_pair":
        return BiSystem(identity_system(d, COMPLEX), from_hilbert_vectors(dft_matrix(d)))
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


def _descriptor(doc, seed: int, name: str) -> tuple:
    """(family, params, seed) of the family descriptor doc, an object with a
    'family' key, optional 'params' and 'seed' (default seed), no other key."""
    if not isinstance(doc, dict) or "family" not in doc:
        raise ParameterError(f"{name} needs an object with a 'family' key")
    unknown = sorted(set(doc) - {"family", "params", "seed"}, key=str)
    if unknown:
        raise ParameterError(f"{name} takes no key {unknown[0]!r}; it takes family, params, seed")
    seed = _valid_integer(f"{name} seed", doc.get("seed", seed), 0)
    return doc["family"], doc.get("params", {}), seed


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
    scaled to spectral norm `magnitude` (up to rounding, _spectral_norm),
    maps the admissible subspace without changing its dimension; per-index
    scalings tau_j -> c_j tau_j, f_j -> f_j / c_j change the
    cross-coherences while leaving every diagonal pairing exact.  The new
    systems adopt the products S T diag(c) and diag(c)^-1 F S^-1, fresh
    arrays that share no memory with the base.

    Each array is let go once nothing reads it: E once S is formed, then
    each base system, in order, once its S T diag(c) and diag(c)^-1 F are
    made, before the product by S^-1 (a base the caller still holds stays
    alive; generate hands its base over).  A complex F times the dense real
    S^-1 is computed as the transpose product (_dense), which reads the
    quotient transposed and C-ordered: diag(c)^-1 F is made in Fortran
    order, which is that layout, so it is not copied again.  The peak is
    that last product over a complex base: the first new system, S, S^-1,
    the second's vectors, its quotient, the product and its C-ordered
    transpose, seven complex d x d arrays for dft_pair.
    """
    rng = np.random.default_rng(seed)
    d = bisystem.d
    e = rng.uniform(-1.0, 1.0, size=(d, d))
    norm = _spectral_norm(e)
    s = np.eye(d)
    if norm > 0:
        e *= magnitude / norm
        s += e
    del e
    s_inv = _form(np.linalg.inv(s))
    s = _form(s)
    bases = [bisystem.first, bisystem.second]
    del bisystem  # each base system is now held by bases alone, until apply takes it

    def apply() -> PairedSystem:
        system = bases.pop(0)
        c = rng.uniform(1.0, 1.0 + magnitude, size=system.n)
        vectors = _matmul(s, system._vectors_form)
        vectors *= c
        field, f = system.field, system._functionals_form
        del system
        if f.diagonal is not None:  # diag(f_jj / c_j) @ s_inv, as _matmul scales by a diagonal
            scale, dtype = (np.diagonal(f.matrix) / c).real, f.matrix.dtype
            del f
            return _adopted(vectors, _exact(scale[:, None] * s_inv.matrix, dtype), field)
        # Where S^-1 is diagonal (magnitude 0: S^-1 = I), _matmul scales the
        # quotient in its own layout, which the system keeps: C order there.
        transposed = f.real is None and s_inv.diagonal is None
        quotient = np.divide(f.matrix, c[:, None], order="F" if transposed else "C")
        del f
        return _adopted(vectors, _matmul(quotient, s_inv), field)

    return BiSystem(apply(), apply())


def _spectral_norm(e: np.ndarray) -> float:
    """||e||_2 of a real square matrix, as sqrt(lambda_max(e e^T)).

    e @ e.T is one symmetric rank-k update (syrk), and eigvalsh computes
    eigenvalues only, about half the work of the singular values that
    np.linalg.norm(e, 2) computes.  The symmetric eigensolver is backward
    stable, so lambda_max is accurate to a few ulps of ||e e^T||_2 =
    lambda_max; e = 0 gives 0.
    """
    return float(np.sqrt(np.linalg.eigvalsh(e @ e.T)[-1]))
