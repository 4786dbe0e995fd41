"""Thresholded l0 counts and 1-norm concentration."""

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
    """Number of entries with magnitude strictly above eta, an absolute
    threshold, not one relative to the scale of a (ROADMAP.md, item 1,
    "Scale-aware thresholds")."""
    return int(_counts(_magnitudes(a), _valid_real("eta", eta)))


def _counts(mags: np.ndarray, eta: float):
    """l0 of each row (last axis) of the magnitudes mags: the count strictly
    above eta, a threshold its caller has checked (config._valid_real)."""
    return (mags > eta).sum(axis=-1)


def concentration_epsilon(a, index_set) -> float:
    """Smallest epsilon for which a is epsilon-concentrated on the set.

    Equals the fraction of the l1 mass lying outside the set; always in
    [0, 1].  Raises on zero total mass.  Both masses are summed largest
    magnitude first (_masses), so epsilon is exactly invariant under a
    permutation of the indices that maps the set with them.
    """
    return _concentration(_magnitudes(a), index_set)[1]


def _concentration(mags: np.ndarray, index_set) -> tuple:
    """(size, concentration_epsilon) of the set index_set, whose indices are
    integers >= 0, for the magnitudes mags."""
    m = sorted({_valid_integer("index", i, 0) for i in index_set})
    if m and m[-1] >= mags.size:
        raise ParameterError(f"index set not contained in [0, {mags.size})")
    return len(m), float(_defects(_masses(mags)[-1], _masses(mags[m])[-1]))


def best_set(a, size: int) -> ConcentrationWitness:
    """Index set of the `size` largest magnitudes, with its exact epsilon.

    Ties broken by lowest index; this set minimizes concentration_epsilon
    over all sets of the given cardinality.  epsilon has the bits of
    concentration_epsilon on the set: a tie changes which indices are
    chosen, not the magnitudes summed.
    """
    mags, size = _magnitudes(a), _valid_integer("size", size, 0)
    if size > mags.size:
        raise ParameterError(f"set size {size} outside [0, {mags.size}]")
    chosen = np.sort(np.argsort(-mags, kind="stable")[:size])
    return ConcentrationWitness(tuple(chosen.tolist()), float(_top_defects(mags)[size]))


def _top_defects(mags: np.ndarray) -> np.ndarray:
    """Concentration defects (..., n + 1) of the sets of the `size` largest
    entries of each row of mags (..., n), for size = 0..n: one sort and one
    running sum.  The l1 mass of a set depends only on its multiset of
    magnitudes (_masses), so each defect has the bits of
    concentration_epsilon on any set of `size` largest entries, best_set's
    included."""
    inside = _masses(mags)
    return _defects(inside[..., -1:], inside)


def _masses(mags: np.ndarray) -> np.ndarray:
    """l1 masses (..., n + 1) of the 0..n largest magnitudes of each row
    (last axis) of mags (..., n): the magnitudes summed one at a time,
    largest first.  The one summation rule of a set's mass and of the total
    mass, so a full set has a defect of exactly 0.  np.cumsum adds in
    sequence; tied magnitudes are equal values, so their order does not
    matter."""
    out = np.zeros(mags.shape[:-1] + (mags.shape[-1] + 1,))
    np.cumsum(np.sort(mags, axis=-1)[..., ::-1], axis=-1, out=out[..., 1:])
    return out


def _defects(total, inside):
    """Concentration defects (total - inside) / total, clamped to [0, 1],
    elementwise over the l1 masses of sequences and of their sets."""
    if (total <= 0.0).any():
        raise DegenerateInputError("sequence has zero l1 mass")
    return np.minimum(1.0, np.maximum(0.0, (total - inside) / total))
