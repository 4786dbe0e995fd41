"""Thresholded l0 counts, l1 mass, supports, and 1-norm concentration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ETA
from .errors import DegenerateInputError, ParameterError


@dataclass(frozen=True)
class ConcentrationWitness:
    """An index set M together with its exact concentration defect epsilon."""

    set: tuple
    epsilon: float


def _magnitudes(a) -> np.ndarray:
    return np.abs(np.asarray(a).ravel())


def l0(a, eta: float = ETA) -> int:
    """Number of entries with magnitude strictly above eta."""
    if eta < 0:
        raise ParameterError("zero threshold eta must be nonnegative")
    return int(np.count_nonzero(_magnitudes(a) > eta))


def l1(a) -> float:
    return float(_magnitudes(a).sum())


def support(a, eta: float = ETA) -> tuple:
    """Sorted indices of entries with magnitude above eta."""
    if eta < 0:
        raise ParameterError("zero threshold eta must be nonnegative")
    return tuple(np.nonzero(_magnitudes(a) > eta)[0].tolist())


def concentration_epsilon(a, index_set) -> float:
    """Smallest epsilon for which a is epsilon-concentrated on the set.

    Equals the fraction of the l1 mass lying outside the set; always in
    [0, 1].  Raises on zero total mass.
    """
    mags = _magnitudes(a)
    m = sorted(set(int(i) for i in index_set))
    if m and (m[0] < 0 or m[-1] >= mags.size):
        raise ParameterError(f"index set not contained in [0, {mags.size})")
    total = mags.sum()
    if total <= 0.0:
        raise DegenerateInputError("sequence has zero l1 mass")
    off = total - mags[m].sum() if m else total
    return float(min(1.0, max(0.0, off / total)))


def best_set(a, size: int) -> ConcentrationWitness:
    """Index set of the `size` largest magnitudes, with its exact epsilon.

    Ties broken by lowest index; this set minimizes concentration_epsilon
    over all sets of the given cardinality.
    """
    mags = _magnitudes(a)
    if not 0 <= size <= mags.size:
        raise ParameterError(f"set size {size} outside [0, {mags.size}]")
    order = np.argsort(-mags, kind="stable")
    chosen = tuple(sorted(int(i) for i in order[:size]))
    return ConcentrationWitness(chosen, concentration_epsilon(a, chosen))
