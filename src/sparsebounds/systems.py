"""Paired vector/functional systems over a finite-dimensional ambient space.

A paired system holds n vectors tau_j (columns of a d x n matrix) together
with n functionals f_j (rows of an n x d matrix).  The duality pairing is the
plain coordinate dot product f_j(x) = row . x; any conjugation is baked into
the stored row, which is what :func:`from_hilbert_vectors` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ETA_HYP
from .errors import HypothesisError, StructuralError

REAL = "real"
COMPLEX = "complex"

_DTYPES = {REAL: np.float64, COMPLEX: np.complex128}


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _coerce(a, field_tag: str, name: str) -> np.ndarray:
    """a as an array of the field's dtype; a real field refuses a nonzero
    imaginary part instead of dropping it."""
    a = np.asarray(a)
    if field_tag == REAL and np.iscomplexobj(a):
        if np.any(a.imag != 0):
            raise StructuralError(f"{name} has complex entries but the field is real")
        a = a.real
    return np.asarray(a, dtype=_DTYPES[field_tag])


def _as_matrix(a, field_tag: str, name: str) -> np.ndarray:
    a = _coerce(a, field_tag, name)
    if a.ndim != 2:
        raise StructuralError(f"{name} must be a 2-d matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise StructuralError(f"{name} contains non-finite entries")
    return _frozen(a)


def infer_field(*arrays) -> str:
    return COMPLEX if any(np.iscomplexobj(np.asarray(a)) for a in arrays) else REAL


@dataclass(frozen=True)
class PairedSystem:
    """Matched collections (tau_j, f_j): vectors d x n, functionals n x d."""

    vectors: np.ndarray
    functionals: np.ndarray
    field: str = REAL

    def __post_init__(self):
        if self.field not in _DTYPES:
            raise StructuralError(f"unknown field tag {self.field!r}")
        object.__setattr__(self, "vectors", _as_matrix(self.vectors, self.field, "vectors"))
        object.__setattr__(self, "functionals", _as_matrix(self.functionals, self.field, "functionals"))
        d, n = self.vectors.shape
        if d < 1 or n < 1:
            raise StructuralError(f"dimensions must be positive, got d={d}, n={n}")
        if self.functionals.shape != (n, d):
            raise StructuralError(
                f"functionals shape {self.functionals.shape} does not match (n, d)=({n}, {d})"
            )

    @property
    def d(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class BiSystem:
    """Two paired systems over the same ambient space."""

    first: PairedSystem
    second: PairedSystem

    def __post_init__(self):
        if self.first.d != self.second.d:
            raise StructuralError(
                f"ambient dimensions differ: {self.first.d} vs {self.second.d}"
            )

    @property
    def d(self) -> int:
        return self.first.d


@dataclass(frozen=True)
class ValidationReport:
    """Per-index diagonal pairing magnitudes |f_j(tau_j)| and pass flags."""

    diagonals: np.ndarray
    per_index_ok: np.ndarray
    ok: bool
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "diagonals", _frozen(np.asarray(self.diagonals, dtype=float)))
        object.__setattr__(self, "per_index_ok", _frozen(np.asarray(self.per_index_ok, dtype=bool)))


def validate_pairing(system: PairedSystem, eta_hyp: float = ETA_HYP) -> ValidationReport:
    """Check the hypothesis |f_j(tau_j)| >= 1 for every index j."""
    diag = np.abs(np.einsum("jd,dj->j", system.functionals, system.vectors))
    per_index = diag >= 1.0 - eta_hyp
    return ValidationReport(diag, per_index, bool(per_index.all()), eta_hyp)


def from_hilbert_vectors(vectors, eta_hyp: float = ETA_HYP) -> PairedSystem:
    """Build the Hilbert specialization f_j = <., tau_j> from unit-norm columns.

    The functionals are the conjugate transpose of the column matrix, so the
    diagonal pairings are the squared column norms.
    """
    field_tag = infer_field(vectors)
    T = _as_matrix(vectors, field_tag, "vectors")
    norms = np.linalg.norm(T, axis=0)
    bad = np.nonzero(np.abs(norms - 1.0) > eta_hyp)[0]
    if bad.size:
        j = int(bad[0])
        raise HypothesisError(f"column {j} has norm {norms[j]:.6g}, expected 1 within {eta_hyp:g}")
    return PairedSystem(T, T.conj().T, field_tag)


def _as_signal(system: PairedSystem, x, length: int, name: str) -> np.ndarray:
    x = _coerce(x, system.field, name)
    if x.shape != (length,):
        raise StructuralError(f"{name} has shape {x.shape}, expected ({length},)")
    return x


def analysis(system: PairedSystem, x) -> np.ndarray:
    """Apply the analysis operator: x -> (f_j(x))_j."""
    return system.functionals @ _as_signal(system, x, system.d, "signal")


def synthesis(system: PairedSystem, coefficients) -> np.ndarray:
    """Apply the synthesis operator: (a_j)_j -> sum_j a_j tau_j."""
    return system.vectors @ _as_signal(system, coefficients, system.n, "coefficients")


def identity_system(d: int, field_tag: str = REAL) -> PairedSystem:
    """The d x d identity as both vectors and functionals."""
    eye = np.eye(d, dtype=_DTYPES[field_tag])
    return PairedSystem(eye, eye, field_tag)
