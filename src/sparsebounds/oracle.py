"""Brute-force ground truth: exhaustive support-pattern search.

The search enumerates support-pattern pairs (S_f, S_g) in increasing order of
|S_f| * |S_g| (ties by |S_f|, then lexicographic sets) and solves each
pattern's feasibility as a null-space problem; the first feasible pattern is
therefore a minimizer of the sparsity product over the admissible subspace.
Feasibility is tested in chunks of patterns by one batched singular-value
call each; only candidate patterns get a null vector, from the same gathered
constraint rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .admissible import AdmissibleSpace, _rank, null_space_basis
from .bounds import verify_fkdb
from .config import ETA, GUARD, TOL_RANK
from .errors import DegenerateInputError, GuardExceededError, NoAdmissibleSignalError
from .systems import BiSystem

# Support patterns per batched singular-value call: small enough that the scan
# stops soon after the first feasible pattern and the stack stays under a
# megabyte within the default guard, large enough to amortize the per-call overhead.
CHUNK = 128


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
        raise GuardExceededError(
            f"search space n + m = {n + m} exceeds guard {guard}"
        )
    if space.w < 1:
        raise NoAdmissibleSignalError("admissible subspace is trivial (w = 0)")
    a_rows = bisystem.first.functionals @ space.basis
    c_rows = bisystem.second.functionals @ space.basis

    searched = 0
    for size_f, size_g in _pattern_order(n, m):
        pairs = itertools.product(
            itertools.combinations(range(n), size_f),
            itertools.combinations(range(m), size_g),
        )
        c, rank = _scan_size_class(pairs, a_rows, c_rows, space.w, tol_rank)
        if c is not None:
            return _report(bisystem, space, c, (size_f, size_g), eta, guard,
                           searched + rank + 1)
        searched += comb(n, size_f) * comb(m, size_g)
    raise NoAdmissibleSignalError("no feasible support pattern found")


def _scan_size_class(pairs, a_rows, c_rows, w, tol_rank):
    """(null vector, enumeration rank) of the first feasible pattern within one
    size class, or (None, 0).

    Patterns are tested CHUNK at a time by their singular values alone; the
    null vector of each candidate, in enumeration order, comes from the same
    stack of off-pattern rows.
    """
    start = 0
    while chunk := list(itertools.islice(pairs, CHUNK)):
        s_f, s_g = zip(*chunk)
        stack = np.concatenate([_off_rows(a_rows, s_f), _off_rows(c_rows, s_g)], axis=1)
        s = np.linalg.svd(stack, compute_uv=False)
        for i in np.flatnonzero(_rank(s, tol_rank) < w):
            basis = null_space_basis(stack[i], tol_rank)
            if basis.shape[1] > 0:
                return basis[:, 0], start + int(i)
        start += len(chunk)
    return None, 0


def _off_rows(rows: np.ndarray, supports) -> np.ndarray:
    """(k, rows - |S|, w) stack of the rows outside each of k equal-size supports,
    in ascending row order."""
    k = len(supports)
    keep = np.ones((k, rows.shape[0]), dtype=bool)
    keep[np.arange(k)[:, None], np.array(supports)] = False
    return rows[np.nonzero(keep)[1].reshape(k, -1)]


def _report(bisystem, space, c, sizes, eta, guard, searched) -> TightnessReport:
    """Report for null vector c of the winning pattern with sizes (|S_f|, |S_g|),
    scored by the flat certificate at the witness; raises when the witness's
    l0 product is not the pattern's size product."""
    x = space.basis @ c
    # Normalize the entry of largest magnitude to 1 for a reproducible witness.
    pivot = x[int(np.argmax(np.abs(x)))]
    x = x / pivot
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
