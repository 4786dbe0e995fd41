"""Brute-force ground truth: exhaustive support-pattern search and batch checks.

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
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .admissible import AdmissibleSpace, _rank, null_space_basis, sample_admissible
from .bounds import _certify, _prepare, _signal, fkdb_rhs
from .coherence import coherence_profile
from .config import ETA, GUARD, TOL_CERT, TOL_FP, TOL_RANK
from .errors import (DegenerateInputError, GuardExceededError, NoAdmissibleSignalError,
                     ParameterError)
from .sparsity import best_set, l0
from .systems import BiSystem, analysis

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
        if stack.shape[1] < w:
            # Fewer constraint rows than unknowns: every pattern is feasible.
            candidates = range(len(chunk))
        else:
            s = np.linalg.svd(stack, compute_uv=False)
            candidates = np.flatnonzero(_rank(s, tol_rank) < w)
        for i in candidates:
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
    """Report for null vector c of the winning pattern with sizes (|S_f|, |S_g|);
    raises when the witness's l0 product is not the pattern's size product."""
    x = space.basis @ c
    # Normalize the entry of largest magnitude to 1 for a reproducible witness.
    pivot = x[int(np.argmax(np.abs(x)))]
    x = x / pivot
    s_f = l0(analysis(bisystem.first, x), eta)
    s_g = l0(analysis(bisystem.second, x), eta)
    if s_f * s_g != sizes[0] * sizes[1]:
        raise DegenerateInputError(
            f"witness l0 product {s_f} x {s_g} differs from its support pattern's "
            f"{sizes[0]} x {sizes[1]} at eta = {eta:g}"
        )
    rhs = fkdb_rhs(s_f, s_g, coherence_profile(bisystem))
    best = s_f * s_g
    return TightnessReport(
        best_lhs=best, witness=x, rhs_at_witness=rhs, gap=best - rhs,
        patterns_searched=searched, guard=guard, eta=eta,
    )


@dataclass(frozen=True)
class VerifySummary:
    trials: int
    satisfied: int
    concentrated_checked: int
    concentrated_satisfied: int
    min_margin: float
    failing_seeds: tuple = field(default_factory=tuple)


def exhaustive_verify(bisystem: BiSystem, space: AdmissibleSpace, trials: int,
                      seed: int = 0, eta: float = ETA, tol_fp: float = TOL_FP,
                      tol_cert: float = TOL_CERT,
                      concentrated_subsample: int = 5) -> VerifySummary:
    """Verify certificates on many sampled admissible signals.

    On the first `concentrated_subsample` signals, also checks the
    concentrated certificate with M, N chosen by best_set at every
    cardinality pair.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if space.w < 1:
        raise NoAdmissibleSignalError("admissible subspace is trivial (w = 0)")
    n, m = bisystem.first.n, bisystem.second.n
    prep = _prepare(bisystem, eta, tol_fp, tol_cert)
    satisfied = 0
    conc_checked = conc_ok = 0
    min_margin = np.inf
    failing = []
    for t in range(trials):
        sig = _signal(prep, sample_admissible(space, seed + t))
        cert = _certify(prep, sig, l0(sig.a, eta), l0(sig.b, eta), None, None)
        margin = cert.lhs - cert.rhs
        min_margin = min(min_margin, margin)
        if cert.hypothesis_ok and cert.satisfied:
            satisfied += 1
        else:
            failing.append(seed + t)
        if t < concentrated_subsample:
            sets_m = [best_set(sig.a, o_m) for o_m in range(1, n + 1)]
            sets_n = [best_set(sig.b, o_n) for o_n in range(1, m + 1)]
            for w_m in sets_m:
                for w_n in sets_n:
                    c = _certify(prep, sig, len(w_m.set), len(w_n.set),
                                 w_m.epsilon, w_n.epsilon)
                    conc_checked += 1
                    conc_ok += int(c.hypothesis_ok and c.satisfied)
                    min_margin = min(min_margin, c.lhs - c.rhs)
    return VerifySummary(
        trials=trials, satisfied=satisfied, concentrated_checked=conc_checked,
        concentrated_satisfied=conc_ok, min_margin=float(min_margin),
        failing_seeds=tuple(failing),
    )
