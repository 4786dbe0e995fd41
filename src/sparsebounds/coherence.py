"""Coherence quantities: gram matrices, sub-coherence, cross-coherence."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import StructuralError
from .systems import BiSystem, PairedSystem, _Form, _matmul


@dataclass(frozen=True)
class CoherenceProfile:
    """All four maxima appearing in the uncertainty bounds.

    sub_coherence_* are the largest off-diagonal pairing magnitudes within
    one system; cross_* are the largest pairings of one system's functionals
    against the other system's vectors.
    """

    sub_coherence_f: float
    sub_coherence_g: float
    cross_f_omega: float
    cross_g_tau: float

    def as_dict(self) -> dict:
        return asdict(self)


def gram(system: PairedSystem) -> np.ndarray:
    """Matrix of pairings, entry (j, r) = f_j(tau_r)."""
    return _matmul(system._functionals_form, system._vectors_form)


def sub_coherence(system: PairedSystem) -> float:
    """Largest off-diagonal |f_j(tau_r)|; zero for n = 1 (empty maximum)
    and for a diagonal gram, which is not formed when both matrices are
    diagonal.  Raises StructuralError when it is not finite."""
    functionals, vectors = system._functionals_form, system._vectors_form
    if functionals.diagonal is not None and vectors.diagonal is not None:
        return 0.0
    return _finite("sub-coherence", _max_magnitude(functionals, vectors, off_diagonal=True))


def cross_coherence(f_system: PairedSystem, w_system: PairedSystem) -> float:
    """max |f_j(omega_k)| over f_system's functionals and w_system's vectors.
    Raises StructuralError when it is not finite."""
    if f_system.d != w_system.d:
        raise StructuralError(
            f"ambient dimensions differ: {f_system.d} vs {w_system.d}"
        )
    return _finite("cross-coherence",
                   _max_magnitude(f_system._functionals_form, w_system._vectors_form))


# Row blocks of a product hold about this many entries: a block's
# magnitudes stay in cache, and no second array of the product's size is made.
_BLOCK = 2**13


def _max_magnitude(a: _Form, b: _Form, off_diagonal: bool = False) -> np.float64:
    """max |(a @ b)_jk| over every entry, or over the off-diagonal ones, with
    the bits of the same maximum of np.abs(_matmul(a, b)).

    Taken over row blocks of the product (_rows); the blocks' maxima combine
    with np.maximum, so an inf or NaN in any block is the result, for
    _finite to refuse.  A product by no diagonal operand is formed once, as
    BLAS computes it (_as_computed).
    """
    top = np.float64(0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _finite
        product = None
        if a.diagonal is None and b.diagonal is None:
            product = _matmul(*_as_computed(a, b))
        n_rows, n_cols = (a.matrix.shape[0], b.matrix.shape[1]) if product is None else product.shape
        step = max(1, _BLOCK // n_cols)
        for start in range(0, n_rows, step):
            magnitudes = np.abs(_rows(a, b, product, slice(start, start + step)))
            if off_diagonal:  # entry (r, start + r) of the block is on the diagonal
                magnitudes.reshape(-1)[start::n_cols + 1] = 0.0
            top = np.maximum(top, magnitudes.max())
    return top


def _as_computed(a: _Form, b: _Form) -> tuple[_Form, _Form]:
    """Operands whose product has the magnitudes of a @ b, bit for bit, as
    systems._dense computes them, with no cast or transposed copy after.

    Two real-valued operands multiply as the real matrices they are; their
    real product is not cast to complex, and |x| of x + 0i is |x|.  For
    complex a and real-valued b, _dense computes b^T @ a^T and returns its
    transpose; here that transpose is the product, and a square product's
    diagonal, like every maximum, is the same either way.
    """
    if a.real is not None and b.real is not None:
        return _Form(a.real, a.real, None), _Form(b.real, b.real, None)
    if a.real is None and b.real is not None:
        return _Form(b.real.T, b.real.T, None), _Form(a.matrix.T, None, None)
    return a, b


def _rows(a: _Form, b: _Form, product: np.ndarray | None, rows: slice) -> np.ndarray:
    """The rows of _matmul(a, b), up to the sign of a zero, which |.| drops.

    A diagonal operand scales only these rows, as _matmul scales the whole
    product; any other product is formed once by the caller, as BLAS
    computes it (_as_computed), and these are its rows.
    """
    if a.diagonal is not None:
        return a.diagonal[rows, None] * b.matrix[rows]
    if b.diagonal is not None:
        return a.matrix[rows] * b.diagonal
    return product[rows]


def _finite(name: str, value) -> float:
    """value as a float, refused with StructuralError when a product behind
    it overflowed to inf or NaN."""
    if not np.isfinite(value):
        raise StructuralError(f"{name} is not finite: the pairings overflow")
    return float(value)


def coherence_profile(bisystem: BiSystem) -> CoherenceProfile:
    """Bundle both sub-coherences and both cross-coherences.

    Computed once per BiSystem instance and kept on it: its arrays are
    private read-only copies, so the profile cannot go stale.
    """
    profile = bisystem.__dict__.get("_coherence_profile")
    if profile is None:
        profile = CoherenceProfile(
            sub_coherence_f=sub_coherence(bisystem.first),
            sub_coherence_g=sub_coherence(bisystem.second),
            cross_f_omega=cross_coherence(bisystem.first, bisystem.second),
            cross_g_tau=cross_coherence(bisystem.second, bisystem.first),
        )
        object.__setattr__(bisystem, "_coherence_profile", profile)
    return profile
