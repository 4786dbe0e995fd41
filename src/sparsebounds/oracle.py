"""Brute-force ground truth: exhaustive support-pattern search.

The search enumerates support-pattern pairs (S_f, S_g) in increasing order of
|S_f| * |S_g| (ties by |S_f|, then lexicographic sets) and solves each
pattern's feasibility as a null-space problem; the first feasible pattern is
therefore a minimizer of the sparsity product over the admissible subspace.
Each S_f is projected once per call onto V, a loosely cut null space of the
first system's rows outside S_f, by one stacked SVD per BATCH S_f of equal size
in the first size class of that |S_f|; P = C V (m x k) is kept until its last.  A
size class is then filtered in batches of at most BATCH patterns: the S_f of
equal k are tested together, across S_f and S_g, by an LDL^H pivot test of
G - cutoff * I for the k x k Gram matrix G of the rows of P outside S_g, and
every S_g of an S_f with k = 0 is counted with no linear algebra.  Each
batch's candidates are confirmed in order on their full off-pattern stacks, as
a pattern-by-pattern scan would, before the next batch is filtered.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .admissible import AdmissibleSpace, _rank, null_space_basis
from .bounds import verify_fkdb
from .config import ETA, GUARD, TOL_RANK, _valid_integer, _valid_real
from .errors import DegenerateInputError, GuardExceededError, NoAdmissibleSignalError
from .systems import BiSystem

# Patterns (S_f, S_g) per filter batch, and S_f per projection SVD call: few
# enough that the scan stops soon after the first feasible pattern and that the
# stacks stay small, enough to amortize numpy's per-call overhead.
BATCH = 512
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
    _valid_real("eta", eta)
    _valid_real("tol_rank", tol_rank)
    guard = _valid_integer("guard", guard, 0)
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
    # The filter rejects a pattern only when every pivot of the LDL^H
    # factorization of G - cutoff * I, G = (C_off V)^H C_off V, is > 0.  In
    # floating point, forming G and factorizing it give the exact pivots of a
    # perturbed G whose error is at most about (k + 1) * u * ||C / s||^2 from
    # the factorization (u the unit roundoff; Higham, Accuracy and Stability
    # of Numerical Algorithms, ch. 10) plus about m * k * u * ||C / s||^2 from
    # the sums.  The factor 2 in the cutoff leaves a room of at least
    # (||C / s|| / MARGIN)^2 = 1e-8 * ||C / s||^2 between a confirmed
    # pattern's smallest eigenvalue of G and the cutoff, far above both.
    scale = max(np.linalg.norm(np.concatenate([a_rows, c_rows]), 2), 1.0)
    a_unit, c_unit = a_rows / scale, c_rows / scale
    t = tol_rank + 1e3 * np.finfo(float).eps
    cutoff = 2.0 * (t + np.linalg.norm(c_unit, 2) / MARGIN) ** 2
    # |S_f| -> (the rows off each S_f, their projections and k per S_f, as
    # _project returns them).  Made in the first size class of |S_f|,
    # (|S_f|, 1), and dropped in the last one, (|S_f|, m).
    projections = {}

    searched = 0
    for size_f, size_g in _pattern_order(n, m):
        if size_g == 1:
            off_f = _complements(n, size_f)
            projections[size_f] = (off_f, *_project(a_unit[off_f], c_unit, MARGIN * t))
        off_f, p, ks = (projections.pop if size_g == m else projections.get)(size_f)
        off_g = _complements(m, size_g)
        for rows, cols in _batches(len(off_f), len(off_g)):
            for i_f, i_g in _candidates(p[:, rows], ks[rows], off_g[cols], cutoff):
                i_f, i_g = rows.start + int(i_f), cols.start + int(i_g)
                off = np.concatenate([a_rows[off_f[i_f]], c_rows[off_g[i_g]]])
                basis = null_space_basis(off, tol_rank)
                if basis.shape[1] > 0:
                    return _report(bisystem, space, basis[:, 0], (size_f, size_g), eta, guard,
                                   searched + i_f * len(off_g) + i_g + 1)
        searched += len(off_f) * len(off_g)
    raise NoAdmissibleSignalError("no feasible support pattern found")


def _complements(m: int, size: int) -> np.ndarray:
    """Rows of the indices outside each size-subset of range(m), in the subsets'
    lexicographic order, which is the reverse of their complements' order."""
    rows = itertools.chain.from_iterable(itertools.combinations(range(m), m - size))
    count = comb(m, size)
    return np.fromiter(rows, np.min_scalar_type(m), count * (m - size)).reshape(count, -1)[::-1]


def _batches(count_f: int, count_g: int):
    """(S_f slice, S_g slice) blocks of a size class, in enumeration order, of
    at most BATCH patterns each: whole rows of S_g, or one S_f at a time when
    a row is longer than BATCH."""
    step_f, step_g = max(BATCH // count_g, 1), min(count_g, BATCH)
    for f in range(0, count_f, step_f):
        for g in range(0, count_g, step_g):
            yield slice(f, min(f + step_f, count_f)), slice(g, min(g + step_g, count_g))


def _project(a_off: np.ndarray, c_unit: np.ndarray, cut: float) -> tuple:
    """(C Vh^H / s as m x F x width, k per S_f) for a stack a_off (F, r, w) of
    the rows A_off / s of F sets S_f, one stacked SVD per BATCH sets.  The last
    k rows of Vh, A_off's right singular vectors beyond the rank at cut, span
    V; the last k of the width = max k columns of each S_f are its P / s."""
    p, ks = [], []
    for start in range(0, len(a_off), BATCH):
        _, s, vh = np.linalg.svd(a_off[start:start + BATCH])
        p.append(c_unit @ vh.conj().transpose(0, 2, 1))
        ks.append(vh.shape[-1] - _rank(s, cut))
    ks = np.concatenate(ks)
    p = np.concatenate(p)[:, :, a_off.shape[2] - ks.max():]
    return np.ascontiguousarray(p.transpose(1, 0, 2)), ks


def _candidates(p: np.ndarray, ks: np.ndarray, off_g: np.ndarray, cutoff: float):
    """(i_f, i_g), in enumeration order, of the patterns whose Gram matrix
    G = P_off^H P_off fails the positive-definiteness test of G - cutoff * I,
    where P is the last ks[i_f] columns of p[:, i_f] and P_off its rows
    off_g[i_g].  The S_f of equal k are tested together; k = 0 passes none."""
    keep = np.zeros((len(off_g), len(ks)), bool)
    for k in set(ks.tolist()) - {0}:
        group = ks == k
        keep[:, group] = _indefinite(_shifted_gram(p[:, group, p.shape[2] - k:], off_g, cutoff))
    return zip(*np.nonzero(keep.T))


def _shifted_gram(q: np.ndarray, off_g: np.ndarray, cutoff: float) -> np.ndarray:
    """G - cutoff * I (len(off_g), F, k, k) for the F matrices P of q (m, F, k)
    and each row set off_g[i_g], summed over the rows' outer products."""
    k = q.shape[2]
    h = np.empty((len(off_g),) + q.shape[1:] + (k,), q.dtype)
    h[...] = -cutoff * np.eye(k)
    if off_g.size:
        outer = q.conj()[..., :, None] * q[..., None, :]
        for rows in off_g.T:
            h += outer[rows]
    return h


def _indefinite(h: np.ndarray) -> np.ndarray:
    """Whether each Hermitian matrix of a stack h (..., k, k) is not positive
    definite: some pivot of its LDL^H factorization without pivoting is <= 0
    or NaN.  At k = 1 the test is h <= 0.  Overwrites h."""
    positive = h[..., 0, 0].real > 0
    with np.errstate(all="ignore"):  # a failed pivot may divide by zero
        for _ in range(h.shape[-1] - 1):
            col = h[..., 1:, :1]
            row = col.conj().swapaxes(-1, -2) / h[..., :1, :1].real
            h = h[..., 1:, 1:]
            h -= col * row
            positive &= h[..., 0, 0].real > 0
    return ~positive


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
