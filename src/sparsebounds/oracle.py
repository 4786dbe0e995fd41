"""Brute-force ground truth: exhaustive support-pattern search.

The search enumerates support-pattern pairs (S_f, S_g) in increasing order of
|S_f| * |S_g| (ties by |S_f|, then lexicographic sets) and solves each
pattern's feasibility as a null-space problem; the first feasible pattern is
therefore a minimizer of the sparsity product over the admissible subspace.
Each S_f is projected once per call onto V, a loosely cut null space of the
first system's rows outside S_f; P = C V (m x k) is cached, at most one per
S_f already scanned.  With k = 0 every S_g is counted with no linear algebra;
otherwise the smallest eigenvalue of the k x k Gram matrix of the rows of P
outside S_g filters the S_g in chunks, and each candidate is confirmed in
order on its full off-pattern stack, as a pattern-by-pattern scan would.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .admissible import AdmissibleSpace, null_space_basis
from .bounds import verify_fkdb
from .config import ETA, GUARD, TOL_RANK
from .errors import DegenerateInputError, GuardExceededError, NoAdmissibleSignalError
from .systems import BiSystem

# Patterns S_g per batched eigenvalue call: few enough that the scan stops soon
# after the first feasible pattern, enough to amortize the per-call overhead.
CHUNK = 128
# Projection cutoff over the confirmation cutoff (see min_sparsity_product).
MARGIN = 1e4


@dataclass(frozen=True)
class TightnessReport:
    """Outcome of the minimal-sparsity-product search on one BiSystem."""

    best_lhs: int
    witness: np.ndarray
    rhs_at_witness: float
    gap: float
    patterns_searched: int
    guard: int
    eta: float


def _pattern_order(n: int, m: int):
    """All (|S_f|, |S_g|) size pairs by increasing product, then |S_f|."""
    return sorted(
        ((i, j) for i in range(1, n + 1) for j in range(1, m + 1)),
        key=lambda ij: (ij[0] * ij[1], ij[0], ij[1]),
    )


def min_sparsity_product(bisystem: BiSystem, space: AdmissibleSpace,
                         eta: float = ETA, guard: int = GUARD,
                         tol_rank: float = TOL_RANK) -> TightnessReport:
    """Exhaustive minimizer of l0(theta_f x) * l0(theta_g x) over admissible x.

    patterns_searched is the rank of the winning pattern in the full
    (product, lexicographic) order.
    """
    n, m = bisystem.first.n, bisystem.second.n
    if n + m > guard:
        raise GuardExceededError(f"search space n + m = {n + m} exceeds guard {guard}")
    if space.w < 1:
        raise NoAdmissibleSignalError("admissible subspace is trivial (w = 0)")
    a_rows = bisystem.first.functionals @ space.basis
    c_rows = bisystem.second.functionals @ space.basis
    # The filter must pass every pattern the confirmation accepts.  Rows divided
    # by s = max(||[A; C]||, 1) give a confirmed pattern a unit c with
    # ||[A_off; C_off] c|| <= t (tol_rank plus a rounding allowance).  V spans
    # A_off's singular vectors of singular value up to MARGIN * t, so k = 0
    # rules out every S_g, and c = V v + u, u orthogonal to V, has ||u|| <=
    # 1 / MARGIN, so ||C_off V v|| <= t + ||C|| / MARGIN with ||v||^2 >=
    # 1 - MARGIN^-2: the Gram cutoff is twice the square of that bound.
    scale = max(np.linalg.norm(np.concatenate([a_rows, c_rows]), 2), 1.0)
    a_unit, c_unit = a_rows / scale, c_rows / scale
    t = tol_rank + 1e3 * np.finfo(float).eps
    cutoff = 2.0 * (t + np.linalg.norm(c_unit, 2) / MARGIN) ** 2
    projections = {}  # S_f -> P / s, dropped in the last size class using it

    searched = 0
    for size_f, size_g in _pattern_order(n, m):
        off_g = _complements(m, size_g)
        subsets_f = itertools.combinations(range(n), size_f)
        for i_f, (s_f, off_f) in enumerate(zip(subsets_f, _complements(n, size_f))):
            p = (projections.pop if size_g == m else projections.get)(s_f, None)
            if p is None:
                p = c_unit @ null_space_basis(a_unit[off_f], MARGIN * t)
                if size_g < m:
                    projections[s_f] = p
            if p.shape[1] == 0:
                continue
            c, i_g = _scan_s_g(a_rows[off_f], c_rows, p, off_g, cutoff, tol_rank)
            if c is not None:
                return _report(bisystem, space, c, (size_f, size_g), eta, guard,
                               searched + i_f * len(off_g) + i_g + 1)
        searched += comb(n, size_f) * len(off_g)
    raise NoAdmissibleSignalError("no feasible support pattern found")


def _complements(m: int, size: int) -> np.ndarray:
    """Rows of the indices outside each size-subset of range(m), in the subsets'
    lexicographic order, which is the reverse of their complements' order."""
    rows = itertools.chain.from_iterable(itertools.combinations(range(m), m - size))
    count = comb(m, size)
    return np.fromiter(rows, np.min_scalar_type(m), count * (m - size)).reshape(count, -1)[::-1]


def _scan_s_g(a_off, c_rows, p, off_g, cutoff, tol_rank):
    """(null vector, index into off_g) of the first feasible S_g for one S_f, or
    (None, 0): Gram eigenvalue tests on CHUNK rows of p at a time, then a
    full-stack confirmation of each candidate in order."""
    for start in range(0, len(off_g), CHUNK):
        p_off = p[off_g[start:start + CHUNK]]
        low = np.linalg.eigvalsh(p_off.conj().transpose(0, 2, 1) @ p_off)[:, 0]
        for i in np.flatnonzero(low <= cutoff):
            basis = null_space_basis(np.concatenate([a_off, c_rows[off_g[start + i]]]), tol_rank)
            if basis.shape[1] > 0:
                return basis[:, 0], start + int(i)
    return None, 0


def _report(bisystem, space, c, sizes, eta, guard, searched) -> TightnessReport:
    """Report for null vector c of the winning pattern with sizes (|S_f|, |S_g|),
    scored by the flat certificate at the witness; raises when the witness's
    l0 product is not the pattern's size product."""
    x = space.basis @ c
    # Normalize the entry of largest magnitude to 1 for a reproducible witness.
    x = x / x[int(np.argmax(np.abs(x)))]
    cert = verify_fkdb(bisystem, x, eta)
    if cert.lhs != sizes[0] * sizes[1]:
        raise DegenerateInputError(
            f"witness l0 product {cert.lhs:g} differs from its support pattern's "
            f"{sizes[0]} x {sizes[1]} at eta = {eta:g}"
        )
    return TightnessReport(
        best_lhs=int(cert.lhs), witness=x, rhs_at_witness=cert.rhs,
        gap=cert.lhs - cert.rhs, patterns_searched=searched, guard=guard, eta=eta,
    )
