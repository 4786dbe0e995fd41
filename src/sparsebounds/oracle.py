"""Brute-force ground truth: exhaustive support-pattern search.

The search enumerates support-pattern pairs (S_f, S_g) in increasing order of
|S_f| * |S_g| (ties by |S_f|, then lexicographic sets) and solves each
pattern's feasibility as a null-space problem; the first feasible pattern is
therefore a minimizer of the sparsity product over the admissible subspace.
Each S_f is projected once per call onto V, a loosely cut null space of the
first system's rows outside S_f, by one stacked SVD over all S_f of equal size
in the first size class of that |S_f|; P = C V (m x k) and its shifted Gram
matrix H = P^H P - cutoff * I, summed once over all m rows, are kept until its
last.  A size class is then filtered in batches of at most BATCH patterns: the
S_f of equal k are tested together, across S_f and S_g, by an LDL^H pivot test
of G - cutoff * I for the k x k Gram matrix G of the rows of P outside S_g,
downdated from H by the |S_g| outer products of the rows in S_g, and every S_g
of an S_f with k = 0 is counted with no linear algebra.  The Gram stacks hold
the k x k matrix axes first and the pattern axes last, so every elementwise
step of the downdate and the pivot test runs over contiguous vectors of
patterns.  Each batch's candidates are confirmed in order on their full
off-pattern stacks, as a pattern-by-pattern scan would, before the next batch
is filtered.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .admissible import AdmissibleSpace, _check_space, _rank, null_space_basis
from .bounds import verify_fkdb
from .config import ETA, GUARD, TOL_RANK, _valid_integer, _valid_real
from .errors import DegenerateInputError, GuardExceededError, NoAdmissibleSignalError
from .systems import BiSystem

# Patterns (S_f, S_g) per filter batch: few enough that the scan stops soon
# after the first feasible pattern and that the stacks stay small, enough to
# amortize numpy's per-call overhead.
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
    _check_space(bisystem, space)
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
    # factorization of G - cutoff * I, G = (C_off V)^H C_off V, is > 0.  It
    # forms G - cutoff * I as H minus the outer products p_i^H p_i of the rows
    # i in S_g of P / s, H = (P / s)^H (P / s) - cutoff * I summed over all m
    # rows.  In floating point that gives the exact pivots of a perturbed G.
    # The factorization's error is at most about (k + 1) * u * ||C / s||^2 (u
    # the unit roundoff; Higham, Accuracy and Stability of Numerical
    # Algorithms, ch. 10).  The full sum over m rows plus the |S_g|
    # subtractions add an entrywise error of about (m + |S_g|) * u *
    # ||C / s||^2: every term is at most ||P / s||^2 <= ||C / s||^2 in
    # magnitude, so the bound holds even when the rows in S_g carry almost
    # all of H and cancel it.  The factor 2 in the cutoff leaves a room of at
    # least (||C / s|| / MARGIN)^2 = 1e-8 * ||C / s||^2 between a confirmed
    # pattern's smallest eigenvalue of G and the cutoff; at the default guard,
    # m + |S_g| <= 46 keeps both errors about 6 orders of magnitude below it.
    scale = max(np.linalg.norm(np.concatenate([a_rows, c_rows]), 2), 1.0)
    a_unit, c_unit = a_rows / scale, c_rows / scale
    t = tol_rank + 1e3 * np.finfo(float).eps
    with np.errstate(over="ignore"):  # inf for a tol_rank near the largest float
        cutoff = 2.0 * (t + np.linalg.norm(c_unit, 2) / MARGIN) ** 2
    # |S_f| -> (the rows off each S_f, their projections P, H = P^H P - cutoff
    # * I and k per S_f).  Made in the first size class of |S_f|, (|S_f|, 1),
    # and dropped in the last one, (|S_f|, m).
    projections = {}

    searched = 0
    for size_f, size_g in _pattern_order(n, m):
        if size_g == 1:
            # The rows outside each S_f, in the S_f's lexicographic order.
            off_f = _subsets(n, n - size_f)[::-1]
            projections[size_f] = (off_f, *_project(a_unit[off_f], c_unit, MARGIN * t, cutoff))
        off_f, p, h, ks = (projections.pop if size_g == m else projections.get)(size_f)
        s_g = _subsets(m, size_g)
        for rows, cols in _batches(len(off_f), len(s_g)):
            for i_f, i_g in _candidates(p[..., rows], ks[rows], h[..., rows], s_g[cols]):
                i_f, i_g = rows.start + int(i_f), cols.start + int(i_g)
                off = np.concatenate([a_rows[off_f[i_f]], np.delete(c_rows, s_g[i_g], axis=0)])
                basis = null_space_basis(off, tol_rank)
                if basis.shape[1] > 0:
                    return _report(bisystem, space, basis[:, 0], (size_f, size_g), eta, guard,
                                   searched + i_f * len(s_g) + i_g + 1)
        searched += len(off_f) * len(s_g)
    raise NoAdmissibleSignalError("no feasible support pattern found")


def _subsets(m: int, size: int) -> np.ndarray:
    """The size-subsets of range(m), one sorted row each, in lexicographic order."""
    rows = itertools.chain.from_iterable(itertools.combinations(range(m), size))
    count = comb(m, size)
    return np.fromiter(rows, np.min_scalar_type(m), count * size).reshape(count, size)


def _batches(count_f: int, count_g: int):
    """(S_f slice, S_g slice) blocks of a size class, in enumeration order, of
    at most BATCH patterns each: whole rows of S_g, or one S_f at a time when
    a row is longer than BATCH."""
    step_f, step_g = max(BATCH // count_g, 1), min(count_g, BATCH)
    for f in range(0, count_f, step_f):
        for g in range(0, count_g, step_g):
            yield slice(f, min(f + step_f, count_f)), slice(g, min(g + step_g, count_g))


def _project(a_off: np.ndarray, c_unit: np.ndarray, cut: float, cutoff: float) -> tuple:
    """(p, h, k per S_f) for a stack a_off (F, r, w) of the rows A_off / s of F
    sets S_f, by one stacked SVD.  The last k rows of Vh, A_off's right
    singular vectors beyond the rank at cut, span V.  p (width, m, F),
    width = max k, holds the last width rows of (C Vh^H / s)^T of each S_f,
    the last k of them its P^T / s; h (width, width, F) holds H = P^H P -
    cutoff * I over all m rows, whose last k rows and columns are its P's."""
    _, s, vh = np.linalg.svd(a_off)
    ks = vh.shape[-1] - _rank(s, cut)
    width = ks.max()
    q = vh[:, vh.shape[-1] - width:].conj() @ c_unit.T
    h = q.conj() @ q.transpose(0, 2, 1)
    i = np.arange(width)
    h[:, i, i] -= cutoff
    return (np.ascontiguousarray(q.transpose(1, 2, 0)),
            np.ascontiguousarray(h.transpose(1, 2, 0)), ks)


def _candidates(p: np.ndarray, ks: np.ndarray, h: np.ndarray, s_g: np.ndarray):
    """(i_f, i_g), in enumeration order, of the patterns whose Gram matrix
    G = P_off^H P_off fails the positive-definiteness test of G - cutoff * I,
    where P is the last ks[i_f] rows of p[:, :, i_f] transposed and P_off its
    rows outside s_g[i_g]; G - cutoff * I is downdated from H, h[:, :, i_f].
    The S_f of equal k are tested together; k = 0 passes none."""
    keep = np.zeros((len(ks), len(s_g)), bool)
    for k in set(ks.tolist()) - {0}:
        group, cut = ks == k, len(p) - k
        if group.all():
            group = slice(None)  # a view, not a copy
        keep[group] = _indefinite(_downdate(p[cut:, :, group], h[cut:, cut:, group], s_g)).T
    return zip(*np.nonzero(keep))


def _downdate(q: np.ndarray, h: np.ndarray, s_g: np.ndarray) -> np.ndarray:
    """G - cutoff * I (k, k, len(s_g), F) for each S_g and each of the F
    matrices P^T of q (k, m, F): h (k, k, F) less the outer products of the
    rows of P in S_g."""
    outer = q.conj()[:, None] * q[None]
    g = np.empty(h.shape[:2] + (len(s_g),) + h.shape[2:], h.dtype)
    g[...] = h[:, :, None]
    for rows in s_g.T:
        g -= outer.take(rows, axis=2)
    return g


def _indefinite(h: np.ndarray) -> np.ndarray:
    """Whether each Hermitian matrix of a stack h (k, k, ...) is not positive
    definite: some pivot of its LDL^H factorization without pivoting is <= 0
    or NaN.  At k = 1 the test is h <= 0.  Overwrites h."""
    positive = h[0, 0].real > 0
    with np.errstate(all="ignore"):  # a failed pivot may divide by zero
        for _ in range(len(h) - 1):
            col = h[1:, :1]
            row = col.conj().swapaxes(0, 1) / h[:1, :1].real
            h = h[1:, 1:]
            h -= col * row
            positive &= h[0, 0].real > 0
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
