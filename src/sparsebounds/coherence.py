"""Coherence quantities: gram matrices, sub-coherence, cross-coherence."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import StructuralError
from .systems import BiSystem, PairedSystem, _matmul


@dataclass(frozen=True)
class CoherenceProfile:
    """All four maxima appearing in the uncertainty bounds.

    sub_coherence_* are the largest off-diagonal pairing magnitudes within
    one system; cross_* are the largest pairings of one system's functionals
    against the other system's vectors.
    """

    sub_coherence_f: float
    sub_coherence_g: float
    cross_f_omega: float
    cross_g_tau: float

    def as_dict(self) -> dict:
        return asdict(self)


def gram(system: PairedSystem) -> np.ndarray:
    """Matrix of pairings, entry (j, r) = f_j(tau_r)."""
    return _matmul(system._functionals_form, system._vectors_form)


def sub_coherence(system: PairedSystem) -> float:
    """Largest off-diagonal |f_j(tau_r)|; zero for n = 1 (empty maximum).
    Raises StructuralError when it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _finite
        g = np.abs(gram(system))
        np.fill_diagonal(g, 0.0)
        return _finite("sub-coherence", g.max())


def cross_coherence(f_system: PairedSystem, w_system: PairedSystem) -> float:
    """max |f_j(omega_k)| over f_system's functionals and w_system's vectors.
    Raises StructuralError when it is not finite."""
    if f_system.d != w_system.d:
        raise StructuralError(
            f"ambient dimensions differ: {f_system.d} vs {w_system.d}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _finite
        pairings = _matmul(f_system._functionals_form, w_system._vectors_form)
        return _finite("cross-coherence", np.abs(pairings).max())


def _finite(name: str, value) -> float:
    """value as a float, refused with StructuralError when a product behind
    it overflowed to inf or NaN."""
    if not np.isfinite(value):
        raise StructuralError(f"{name} is not finite: the pairings overflow")
    return float(value)


def coherence_profile(bisystem: BiSystem) -> CoherenceProfile:
    """Bundle both sub-coherences and both cross-coherences.

    Computed once per BiSystem instance and kept on it: its arrays are
    private read-only copies, so the profile cannot go stale.
    """
    profile = bisystem.__dict__.get("_coherence_profile")
    if profile is None:
        profile = CoherenceProfile(
            sub_coherence_f=sub_coherence(bisystem.first),
            sub_coherence_g=sub_coherence(bisystem.second),
            cross_f_omega=cross_coherence(bisystem.first, bisystem.second),
            cross_g_tau=cross_coherence(bisystem.second, bisystem.first),
        )
        object.__setattr__(bisystem, "_coherence_profile", profile)
    return profile
