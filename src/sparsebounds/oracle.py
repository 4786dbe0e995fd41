"""Brute-force ground truth: exhaustive support-pattern search.

The search enumerates support-pattern pairs (S_f, S_g) in increasing order
of |S_f| * |S_g| (ties by |S_f|, then lexicographic sets) and solves each
pattern's feasibility as a null-space problem; the first feasible pattern is
therefore a minimizer of the sparsity product over the admissible subspace.
The classes come one at a time, from a heap, so a search that stops early
never orders the rest.  Each size class projects the side with fewer sets,
S_g when comb(m, |S_g|) < comb(n, |S_f|) and S_f otherwise, unless only the
other side's sets of the class are projected already, which it then reuses.
Described for S_f (for S_g, exchange the two systems): each S_f is projected
onto V, a loosely cut null space of the first system's rows outside S_f, by
one stacked eigendecomposition of their Gram matrices over all S_f of equal
size in the first class that projects them; P = C V (m x k) and its shifted
Gram matrix H = P^H P - cutoff * I, summed once over all m rows, are kept
until the search returns, with the sizes of S_g that Weyl's inequality
rules out for the set, found in the projection on the same arrays: those at
which H's smallest eigenvalue exceeds the sum of the |S_g| largest row
masses ||p_i||^2 of P, so that G - cutoff * I below is positive definite
for every S_g of that size.  A set of k below the projection's largest
has an exact inert block ahead of its own that decides nothing (_project);
one with k = 0 is ruled out at every size.  A class at a size that every projected set rules out is counted by
one comparison with the least of those sizes, and only a class that is
filtered builds the tables of its S_f and S_g (a projection builds the table
of its sets' complements).  A size class is otherwise filtered in batches of
at most BATCH patterns: the live projected sets, those not ruled out at the
class's size, are tested together, across S_f and S_g, by an LDL^H pivot
test of G - cutoff * I for the Gram matrix G of the rows of P outside S_g,
downdated from H by the |S_g| outer products of the rows in S_g.  A batch or
a class with no live set is counted whole.  The Gram stacks hold the matrix
axes first and the pattern axes last, so every elementwise step of the
downdate and the pivot test runs over contiguous vectors of patterns.  Each
batch's candidates are confirmed in enumeration order (S_f-major) on their
full off-pattern stacks, as a pattern-by-pattern scan would, before the next
batch is filtered.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .admissible import AdmissibleSpace, _check_space, null_space_basis
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


@dataclass(frozen=True, eq=False)
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
    """All (|S_f|, |S_g|) size pairs by increasing product, then |S_f|, made
    one at a time: a heap holds the next pair (i, j) of each |S_f| = i, keyed
    (i * j, i), so a search that stops early never orders the rest."""
    heap = [(i, i, 1) for i in range(1, n + 1)] if m else []  # sorted, so a heap
    while heap:
        _, i, j = heap[0]
        yield i, j
        if j < m:
            heapq.heapreplace(heap, (i * (j + 1), i, j + 1))
        else:
            heapq.heappop(heap)


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
    # ||[A_off; C_off] c|| <= t (tol_rank plus a rounding allowance).  Write
    # the argument for a class that projects S_f; one that projects S_g reads
    # the same with A and C, and S_f and S_g, exchanged.  V spans the
    # eigenvectors of (A_off / s)^H (A_off / s) of eigenvalue up to MARGIN^2 *
    # (t^2 + delta), delta a bound on the rounding of that Gram matrix and of
    # its eigendecomposition (_project derives both), so k = 0 rules out
    # every S_g, and c = V v + u, u orthogonal to V, has ||u|| <= 1 / MARGIN,
    # so ||C_off V v|| <= t + ||C / s|| / MARGIN with ||v||^2 >= 1 - MARGIN^-2:
    # the Gram cutoff is twice the square of that bound with ||C / s|| read as
    # min(||C / s||_F, 1), which is at least ||C / s|| because the Frobenius
    # norm bounds the spectral one and s >= ||C||.  A larger cutoff only
    # passes more patterns and rules out fewer sizes, and it widens the room
    # below, so it saves the spectral norm's SVD at no cost to soundness.
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
    # m + |S_g| <= 46 (n + |S_f| <= 46 when S_g is projected) keeps both
    # errors about 6 orders of magnitude below it.
    # With its projection, each projected set gets the sizes |S_g| that
    # Weyl's inequality rules out for it (_ruled_out); it is not tested in
    # a class of such a size, and a class at a size that every set rules
    # out is counted whole, its subset tables never built.  The smallest
    # eigenvalue of G - cutoff * I = H - sum_{i in S_g} p_i^H p_i is at least
    # that of H less the sum of the |S_g| largest ||p_i||^2, and where that is
    # > 0 the filter rejects every pattern of the class with that set, as
    # above.  The bound reads only the instance's projected rows, never a
    # coherence bound.
    # Its rounding, about k * u * ||H|| for eigvalsh (backward stable) and
    # m * u * ||C / s||^2 for the sums of masses, lies as far inside the room
    # as the filter's, so it never rules out a pattern the confirmation
    # accepts.
    scale = max(np.linalg.svd(np.concatenate([a_rows, c_rows]), compute_uv=False)[0], 1.0)
    units = (a_rows / scale, c_rows / scale)
    t = tol_rank + 1e3 * np.finfo(float).eps
    with np.errstate(over="ignore"):  # inf for a tol_rank near the largest float
        # Side 0 projects S_f and tests the rows of C; side 1 projects S_g.
        cutoffs = [2.0 * (t + min(np.linalg.norm(u), 1.0) / MARGIN) ** 2 for u in units[::-1]]
    # The tables of this call's projected and filtered size classes only.
    subsets = functools.cache(_subsets)
    # (side, size) -> (P, H = P^H P - cutoff * I, the sizes ruled out and
    # their least) of every projected set of that size, made in the first
    # class that projects them.
    projections = {}

    searched = 0
    for sizes in _pattern_order(n, m):
        counts = comb(n, sizes[0]), comb(m, sizes[1])
        # Project the side with fewer sets (ties: S_f), unless only the other
        # side's sets of this class are projected already: reuse those.
        side = int(counts[1] < counts[0])
        if (side, sizes[side]) not in projections and (1 - side, sizes[1 - side]) in projections:
            side = 1 - side
        count, size = (n, m)[side], sizes[side]
        if (side, size) not in projections:
            # The rows outside each projected set, in the sets' lexicographic order.
            outside = subsets(count, count - size)[::-1]
            projections[side, size] = _project(units[side][outside], units[1 - side],
                                               t, cutoffs[side])
        p, h, ruled_out, least = projections[side, size]
        # A class whose tested size every projected set rules out is counted
        # whole.  Otherwise only the live sets, those not ruled out at that
        # size, are tested, and a block with none is not filtered.
        if sizes[1 - side] >= least:
            s_f, s_g = subsets(n, sizes[0]), subsets(m, sizes[1])
            tested = (s_g, s_f)[side]
            live = ruled_out <= sizes[1 - side]
            for block in _batches(*counts):
                here, there = block[side], block[1 - side]
                if not live[here].any():
                    continue
                keep = _candidates(p[..., here], live[here], h[..., here], tested[there])
                for i_f, i_g in zip(*np.nonzero(keep.T if side else keep)):
                    i_f, i_g = block[0].start + int(i_f), block[1].start + int(i_g)
                    off = np.concatenate([np.delete(a_rows, s_f[i_f], axis=0),
                                          np.delete(c_rows, s_g[i_g], axis=0)])
                    basis = null_space_basis(off, tol_rank)
                    if basis.shape[1] > 0:
                        return _report(bisystem, space, basis[:, 0], sizes, eta, guard,
                                       searched + i_f * counts[1] + i_g + 1)
        searched += counts[0] * counts[1]
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


def _project(a_off: np.ndarray, c_unit: np.ndarray, t: float, cutoff: float) -> tuple:
    """(p, h, sizes ruled out per set, their least) for a stack a_off (F, r,
    w) of the rows A_off / s of one system outside F sets, rows of norm <= 1,
    by one stacked eigendecomposition of their Gram matrices G = A_off^H
    A_off / s^2 (F, w, w); c_unit (m, w) holds the other system's rows C / s,
    and t bounds ||A_off c / s|| for the unit c of a confirmed pattern.  V
    spans the k eigenvectors of G of eigenvalue at most

        cut = MARGIN^2 * (t^2 + delta),  delta = 4 (r + w) r rho,

    rho = eps / 2 the unit roundoff.  The computed eigenpairs are exact for
    G + E with ||E||_2 <= delta / 2: forming G errs by at most (r + 2) rho
    ||A_off / s||_F^2 <= (r + 2) r rho (inner products, complex ones
    included; Higham, Accuracy and Stability of Numerical Algorithms, ch. 3),
    eigh's backward error is at most about w rho ||G||_2 <= w r rho (LAPACK
    Users' Guide, sec. 4.7), and (r + 2) r + w r <= 2 (r + w) r once r + w
    >= 2 (at r = 0, G = 0 exactly).  G is positive semidefinite, so G + E
    has no eigenvalue below -delta / 2.  A unit c with ||A_off c / s|| <= t,
    written c = V v + u with u orthogonal to V, so in the span of the
    eigenvectors of eigenvalue above cut, then has cut ||u||^2 - delta / 2
    <= c^H (G + E) c <= t^2 + delta / 2, so

        ||u||^2 <= (t^2 + delta) / cut = MARGIN^-2,  ||u|| <= 1 / MARGIN,

    and with k = 0 no such c exists.  The computed eigenvectors are
    orthonormal to about w rho, far inside that.  As a singular value of
    A_off / s the cut is MARGIN sqrt(t^2 + delta), not MARGIN t = 1e-6 as an
    SVD's would be: at the default tol_rank, 3.7e-4 to 2.5e-3 on the
    benchmark's searches (1 x 2 to 8 x 9 stacks; 2.2e-3 for the 36 sets of
    7 x 9 of dft_pair d = 9), and at most 4.7e-3 under the default guard,
    where w <= min(n, m) and projected sets are nonempty, so r + w <= 23.  A
    larger cut only widens V, which passes more patterns to the
    confirmation and decides no result.
    p (width, m, F), width = max(max k, 1), holds (C U / s)^T for the width
    eigenvectors U of least eigenvalue, least last: its P^T / s in the last
    k rows, exact zeros in the others, the inert rows, which lie outside V;
    h (width, width, F) holds H = P^H P - cutoff * I over all m rows,
    exactly I in the inert block.
    That block decides nothing.  Its coupling entries are exact zeros and
    its pivots 1, so the LDL^H test takes the k x k block's own pivots; H's
    eigenvalues are 1 and the block's, whose least is at most ||C / s||^2 -
    cutoff < 1 (and min(1, low) <= low in any case); its rows add no mass.
    A set with k = 0, all inert, has low = 1 and no mass, so it is ruled out
    at every size.  The sizes ruled out are _ruled_out's, on the same arrays
    sets axis first."""
    r, w = a_off.shape[1:]
    lam, vecs = np.linalg.eigh(a_off.conj().transpose(0, 2, 1) @ a_off)
    with np.errstate(over="ignore"):  # inf for a tol_rank near the largest float
        # delta = 4 (r + w) r rho = 2 (r + w) r eps
        cut = MARGIN**2 * (t * t + 2 * (r + w) * r * np.finfo(float).eps)
    ks = np.count_nonzero(lam <= cut, axis=-1)
    width = max(ks.max(), 1)
    q = vecs[..., width - 1::-1].transpose(0, 2, 1) @ c_unit.T
    i = np.arange(width)
    inert = i < (width - ks)[:, None]
    q[inert] = 0.0
    h = q.conj() @ q.transpose(0, 2, 1)
    h[:, i, i] = np.where(inert, 1.0, h[:, i, i] - cutoff)
    ruled_out = _ruled_out(q, h)
    p, h = np.ascontiguousarray(q.transpose(1, 2, 0)), np.ascontiguousarray(h.transpose(1, 2, 0))
    return p, h, ruled_out, int(ruled_out.min())


def _ruled_out(q: np.ndarray, h: np.ndarray) -> np.ndarray:
    """For each of the F sets of a projection, with q (F, width, m) its P^T
    and h (F, width, width) its H, the number b of sizes |S_g| = 0 ... b - 1
    at which G - cutoff * I is positive definite for every S_g, so that the
    filter rejects every such pattern.  G - cutoff * I is H less the outer
    products of the rows of P in S_g, so by Weyl's inequality its smallest
    eigenvalue is at least low - top, for low the smallest eigenvalue of H
    and top the sum of the |S_g| largest row masses ||p_i||^2 of P.  None is
    ruled out when H is not finite, as an infinite cutoff makes it."""
    if not np.isfinite(h).all():  # eigvalsh would raise
        return np.zeros(len(q), int)
    low = h[:, 0, 0].real if h.shape[-1] == 1 else np.linalg.eigvalsh(h)[:, 0]
    mass = (q.conj() * q).real.sum(axis=1)
    top = np.cumsum(np.sort(mass, axis=1)[:, ::-1], axis=1)
    return (low > 0) + (low[:, None] > top).sum(axis=1)


def _candidates(p: np.ndarray, live: np.ndarray, h: np.ndarray, s_g: np.ndarray) -> np.ndarray:
    """Whether each pattern (i_f, i_g), as a (len(live), len(s_g)) mask, has a
    Gram matrix G = P_off^H P_off that fails the positive-definiteness test of
    G - cutoff * I, where P is p[:, :, i_f] transposed and P_off its rows
    outside s_g[i_g]; G - cutoff * I is downdated from H, h[:, :, i_f].  The
    live sets are tested together; the others pass none."""
    keep = np.zeros((len(live), len(s_g)), bool)
    group = slice(None) if live.all() else live  # a view, not a copy
    keep[group] = _indefinite(_downdate(p[..., group], h[..., group], s_g)).T
    return keep


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
