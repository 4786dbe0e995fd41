"""Paired vector/functional systems over a finite-dimensional ambient space.

A paired system holds n vectors tau_j (columns of a d x n matrix) together
with n functionals f_j (rows of an n x d matrix).  The duality pairing is the
plain coordinate dot product f_j(x) = row . x; any conjugation is baked into
the stored row, which is what :func:`from_hilbert_vectors` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import ETA_HYP, _valid_array, _valid_integer, _valid_real
from .errors import HypothesisError, StructuralError

REAL = "real"
COMPLEX = "complex"

_DTYPES = {REAL: np.float64, COMPLEX: np.complex128}


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only C-ordered copy of a that nothing else can write; the
    caller's array stays writable and later edits to it do not reach the copy."""
    a = np.array(a, order="C")
    a.setflags(write=False)
    return a


def _dtype(field_tag: str):
    """The numpy dtype of a field tag; anything but a tag, an unhashable
    value included, raises StructuralError."""
    if not isinstance(field_tag, str) or field_tag not in _DTYPES:
        raise StructuralError(f"unknown field tag {field_tag!r}")
    return _DTYPES[field_tag]


def _as_matrix(a, field_tag: str, name: str, copy: bool = False) -> np.ndarray:
    a = _valid_array(name, a, _dtype(field_tag), copy)
    if a.ndim != 2:
        raise StructuralError(f"{name} must be a 2-d matrix, got ndim={a.ndim}")
    return a


@dataclass(frozen=True, eq=False)
class PairedSystem:
    """Matched collections (tau_j, f_j): vectors d x n, functionals n x d.

    Its arrays are private, read-only and C-ordered.  The arrays a caller
    gives are copied; the fresh arrays a library constructor has just made
    for the system are adopted as they are (_adopted), after the same shape
    and finiteness checks.  Either way no other system, and no caller,
    holds them, so per-system invariants such as the pairing diagonals and
    each matrix's product form are computed once and kept on the instance.
    """

    vectors: np.ndarray
    functionals: np.ndarray
    field: str = REAL

    def __post_init__(self):
        # One copy, cast and all, is the system's private matrix.
        self._own(copy=True)

    def _own(self, copy: bool) -> None:
        """Check the field tag and both matrices, and keep each read-only:
        with copy, a C-ordered copy in the field's dtype; without, the
        array itself."""
        for name in ("vectors", "functionals"):
            matrix = _as_matrix(getattr(self, name), self.field, name, copy)
            matrix.setflags(write=False)
            object.__setattr__(self, name, matrix)
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

    @cached_property
    def _diagonals(self) -> np.ndarray:
        """The diagonal pairing magnitudes |f_j(tau_j)|, read-only."""
        return _frozen(np.abs(np.einsum("jd,dj->j", self.functionals, self.vectors)))

    @cached_property
    def _vectors_form(self) -> _Form:
        """The vectors' product form (_form), decided once."""
        return _form(self.vectors)

    @cached_property
    def _functionals_form(self) -> _Form:
        """The functionals' product form (_form), decided once."""
        return _form(self.functionals)


@dataclass(frozen=True, eq=False)
class BiSystem:
    """Two paired systems over the same ambient space.

    Both systems own read-only arrays, so per-bisystem invariants, the
    coherence profile and the pairing verdict, are computed once and kept on
    the instance.
    """

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

    @property
    def field(self) -> str:
        """The field of the bisystem's signals: complex when either system's is."""
        return COMPLEX if COMPLEX in (self.first.field, self.second.field) else REAL

    @cached_property
    def _pairing_ok(self) -> bool:
        """validate_pairing's verdict at ETA_HYP on both systems, without its
        report, decided once."""
        return all(bool(_paired(s).all()) for s in (self.first, self.second))


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Per-index diagonal pairing magnitudes |f_j(tau_j)| and pass flags."""

    diagonals: np.ndarray
    per_index_ok: np.ndarray
    ok: bool
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "diagonals", _frozen(np.asarray(self.diagonals, dtype=float)))
        object.__setattr__(self, "per_index_ok", _frozen(np.asarray(self.per_index_ok, dtype=bool)))


def _paired(system: PairedSystem, eta_hyp: float = ETA_HYP) -> np.ndarray:
    """The pairing hypothesis |f_j(tau_j)| >= 1 - eta_hyp of each index j,
    on the diagonals the system keeps.  A diagonal that is not finite, a
    pairing that overflowed, fails it."""
    diagonals = system._diagonals
    return np.isfinite(diagonals) & (diagonals >= 1.0 - eta_hyp)


def validate_pairing(system: PairedSystem, eta_hyp: float = ETA_HYP) -> ValidationReport:
    """Check the hypothesis |f_j(tau_j)| >= 1 for every index j."""
    per_index = _paired(system, _valid_real("eta_hyp", eta_hyp))
    return ValidationReport(system._diagonals, per_index, bool(per_index.all()), eta_hyp)


def from_hilbert_vectors(vectors) -> PairedSystem:
    """Build the Hilbert specialization f_j = <., tau_j> from columns of unit
    norm within ETA_HYP.

    The functionals are the conjugate transpose of the column matrix, so the
    diagonal pairings are the squared column norms.
    """
    field_tag = COMPLEX if np.iscomplexobj(vectors) else REAL
    T = _as_matrix(vectors, field_tag, "vectors")
    norms = np.linalg.norm(T, axis=0)
    bad = np.nonzero(np.abs(norms - 1.0) > ETA_HYP)[0]
    if bad.size:
        j = int(bad[0])
        raise HypothesisError(f"column {j} has norm {norms[j]:.6g}, expected 1 within {ETA_HYP:g}")
    # One copy of T and one of its conjugate transpose, made first: the
    # ufunc's buffer for the transposed operand is then alive beside one
    # array of T's size, not two.
    functionals = np.conjugate(T.T, order="C")
    return _adopted(np.array(T, order="C"), functionals, field_tag)


def _adopted(vectors, functionals, field_tag: str) -> PairedSystem:
    """A PairedSystem that keeps the given arrays themselves, not copies.

    For a library constructor's own arrays only: fresh, C-ordered, of the
    field's dtype, and held by nothing else once handed over.  They get the
    public constructor's shape and finiteness checks.  Either matrix may be
    given as its _Form when the constructor knows it, as for an identity
    (_identity); that form is kept, and _form never scans the matrix.
    """
    system, forms = object.__new__(PairedSystem), {}
    for name, a in (("vectors", vectors), ("functionals", functionals)):
        if isinstance(a, _Form):
            forms[f"_{name}_form"], a = a, a.matrix
        object.__setattr__(system, name, a)
    object.__setattr__(system, "field", field_tag)
    system._own(copy=False)
    system.__dict__.update(forms)
    return system


def _as_signal(field_tag: str, x, length: int, name: str) -> np.ndarray:
    x = _valid_array(name, x, _DTYPES[field_tag])
    if x.shape != (length,):
        raise StructuralError(f"{name} has shape {x.shape}, expected ({length},)")
    return x


@dataclass(frozen=True)
class _Form:
    """A matrix with the cheapest form it exactly has, for _matmul and _apply.

    real is the matrix as a real array when its imaginary part is exactly
    zero, else None; diagonal is its diagonal, a real vector, when it is
    also square with every off-diagonal entry zero, else None.
    """

    matrix: np.ndarray
    real: np.ndarray | None
    diagonal: np.ndarray | None


def _form(m: np.ndarray) -> _Form:
    """Classify m, exactly: one scan of its imaginary part and one count of
    its nonzeros, each skipped when m's last row already holds a nonzero
    imaginary part or off-diagonal entry, as a dense matrix's last row does."""
    real = None if np.iscomplexobj(m) and (m.imag[-1:].any() or m.imag.any()) else m.real
    diagonal = None
    if real is not None and m.shape[0] == m.shape[1] and not real[-1:, :-1].any():
        on = np.diagonal(real)
        if np.count_nonzero(real) == np.count_nonzero(on):
            diagonal = _frozen(on)
    return _Form(m, real, diagonal)


def _matmul(a, b) -> np.ndarray:
    """a @ b with a @ b's dtype, each operand multiplied in the cheapest form
    it exactly has.

    An operand is a finite matrix, or its _Form when that is kept (a
    PairedSystem classifies each of its matrices once); a plain matrix is
    classified here, in O(d^2) against the product's d^3.  A real-valued
    diagonal operand diag(c) scales the other operand x in one multiply,
    c[:, None] * x or x * c.  Otherwise an operand whose imaginary part is
    exactly zero is multiplied as the real matrix it is (_dense).

    The scaling is exact, as BLAS's sums of one nonzero term are: numpy
    multiplies a complex a + bi by the real c as (a c - b 0) + (a 0 + b c) i,
    one rounded product per part, and += 0.0 makes every zero +0.0, as BLAS
    leaves the exact zeros of its real sums.  Only the sign of a zero can
    differ, where BLAS keeps an underflowed term's -0.0 (FMA) or in its
    complex kernels.
    """
    a = a if isinstance(a, _Form) else _form(a)
    b = b if isinstance(b, _Form) else _form(b)
    dtype = np.result_type(a.matrix, b.matrix)
    if a.diagonal is None and b.diagonal is None:
        return _dense(a, b, dtype)
    return _exact(a.diagonal[:, None] * b.matrix if a.diagonal is not None
                  else a.matrix * b.diagonal, dtype)


def _exact(scaled: np.ndarray, dtype) -> np.ndarray:
    """A product by a diagonal operand, computed as a scaling, with every zero
    made +0.0 (+= 0.0), as the product's dtype."""
    scaled += 0.0
    return scaled.astype(dtype, copy=False)


def _apply(form: _Form, x: np.ndarray) -> np.ndarray:
    """The kept form's matrix @ v for the vector x, or for every row v of a
    stack x, with matrix @ v's dtype.

    A diagonal matrix diag(c) scales, x * c, by _matmul's exactness argument
    (_exact).  Any other matrix runs numpy's stacked matmul, one BLAS
    matrix-vector product per row, so each row has the bits of matrix @ v
    for that row alone.
    """
    if form.diagonal is None:
        return (form.matrix @ x[..., None])[..., 0]
    return _exact(x * form.diagonal, np.result_type(form.matrix, x))


def _dense(a: _Form, b: _Form, dtype) -> np.ndarray:
    """a @ b by BLAS, an operand whose imaginary part is exactly zero
    multiplied as the real matrix it is.

    numpy casts a real operand of a mixed product to complex, and a complex
    product costs about four real ones.  Here real-valued @ real-valued is
    one real product, and real-valued @ complex, or the reverse, one real
    product with the complex operand's real and imaginary parts side by
    side.  Complex @ complex and real @ real are a @ b, bit for bit.  The
    product is C-ordered, as a system keeps it.
    """
    ra, rb = a.real, b.real
    a, b = a.matrix, b.matrix
    if dtype.kind != "c" or ra is None and rb is None:
        return a @ b
    # A C-ordered complex matrix viewed as real holds each column's real and
    # imaginary parts in two adjacent columns; so does a real matrix times it.
    if rb is None:
        return (ra @ np.ascontiguousarray(b).view(b.real.dtype)).view(dtype)
    if ra is None:
        # a @ b is the transpose of b^T @ a^T, returned C-ordered.
        return np.ascontiguousarray(
            (rb.T @ np.ascontiguousarray(a.T).view(a.real.dtype)).view(dtype).T)
    return (ra @ rb).astype(dtype)


def analysis(system: PairedSystem, x) -> np.ndarray:
    """Apply the analysis operator: x -> (f_j(x))_j, by the functionals' kept
    form (_apply), as the certificates analyse a signal."""
    return _apply(system._functionals_form, _as_signal(system.field, x, system.d, "signal"))


def identity_system(d: int, field_tag: str = REAL) -> PairedSystem:
    """The d x d identity as both vectors and functionals: two arrays, each
    made in the field's dtype and adopted with its known form (_identity)."""
    d = _valid_integer("d", d, 1)
    dtype = _dtype(field_tag)
    return _adopted(_identity(d, dtype), _identity(d, dtype), field_tag)


def _identity(d: int, dtype) -> _Form:
    """A fresh read-only d x d identity of dtype with its product form, the
    one _form decides for it (a real view, a diagonal of ones), known
    without a scan."""
    eye = np.eye(d, dtype=dtype)
    eye.setflags(write=False)
    ones = np.ones(d)
    ones.setflags(write=False)
    return _Form(eye, eye.real, ones)
