"""Thresholded l0 counts, l1 mass, supports, and 1-norm concentration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ETA, _valid_array, _valid_integer, _valid_real
from .errors import DegenerateInputError, ParameterError


@dataclass(frozen=True)
class ConcentrationWitness:
    """An index set M together with its exact concentration defect epsilon."""

    set: tuple
    epsilon: float


def _magnitudes(a) -> np.ndarray:
    """|a| of an outside sequence a, flattened, once a passes the array rule."""
    return np.abs(_valid_array("sequence", a).ravel())


def l0(a, eta: float = ETA) -> int:
    """Number of entries with magnitude strictly above eta."""
    return int(_counts(_magnitudes(a), eta))


def _counts(a: np.ndarray, eta: float):
    """l0 of each row (last axis) of a."""
    return np.count_nonzero(_nonzero(a, eta), axis=-1)


def _nonzero(a, eta: float) -> np.ndarray:
    """Mask of the entries of a whose magnitude is strictly above eta."""
    return np.abs(a) > _valid_real("eta", eta)


def l1(a) -> float:
    return float(_magnitudes(a).sum())


def support(a, eta: float = ETA) -> tuple:
    """Sorted indices of entries with magnitude above eta."""
    return tuple(np.flatnonzero(_nonzero(_magnitudes(a), eta)).tolist())


def concentration_epsilon(a, index_set) -> float:
    """Smallest epsilon for which a is epsilon-concentrated on the set.

    Equals the fraction of the l1 mass lying outside the set; always in
    [0, 1].  Raises on zero total mass.
    """
    return _concentration(_magnitudes(a), index_set)[1]


def _concentration(mags: np.ndarray, index_set) -> tuple:
    """(size, concentration_epsilon) of the set index_set, whose indices are
    integers >= 0, for the magnitudes mags."""
    m = sorted({_valid_integer("index", i, 0) for i in index_set})
    if m and m[-1] >= mags.size:
        raise ParameterError(f"index set not contained in [0, {mags.size})")
    return len(m), float(_defects(mags.sum(), mags[m].sum()))


def best_set(a, size: int) -> ConcentrationWitness:
    """Index set of the `size` largest magnitudes, with its exact epsilon.

    Ties broken by lowest index; this set minimizes concentration_epsilon
    over all sets of the given cardinality.
    """
    mags, size = _magnitudes(a), _valid_integer("size", size, 0)
    if size > mags.size:
        raise ParameterError(f"set size {size} outside [0, {mags.size}]")
    rank, eps = _top_defects(mags[None], [size])
    return ConcentrationWitness(tuple(np.flatnonzero(rank[0] < size).tolist()), float(eps[0, 0]))


def _top_defects(mags: np.ndarray, sizes) -> tuple:
    """Largest-magnitude prefixes of each row of mags (k, n): the rank of
    every entry in a stable descending argsort (ties to the lowest index),
    and the (k, len(sizes)) concentration defects of the sets of the `size`
    largest entries.  Each set is summed as a contiguous row in index order,
    as concentration_epsilon sums it, so the defects have its bits."""
    k = mags.shape[0]
    rank = np.argsort(np.argsort(-mags, axis=-1, kind="stable"), axis=-1)
    inside = np.empty((k, len(sizes)))
    for j, size in enumerate(sizes):
        inside[:, j] = mags[rank < size].reshape(k, size).sum(axis=-1)
    return rank, _defects(mags.sum(axis=-1)[:, None], inside)


def _defects(total, inside):
    """Concentration defects (total - inside) / total, clamped to [0, 1],
    elementwise over the l1 masses of sequences and of their sets."""
    if np.any(total <= 0.0):
        raise DegenerateInputError("sequence has zero l1 mass")
    return np.minimum(1.0, np.maximum(0.0, (total - inside) / total))
