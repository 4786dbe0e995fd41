"""The benchmark's own numerics, written apart from the program under test.

Every check the benchmark makes on a program output is computed here with
plain numpy from the input matrices, or from a property the theorem
guarantees.  Nothing in this module imports `sparsebounds`.

Thresholds are scale-aware on purpose: a coefficient f_j(x) counts as
nonzero when it exceeds RTOL * ||f_j|| * ||x|| (the Cauchy-Schwarz bound on
|f_j(x)|), which does not move under the per-index rescaling
tau_j -> c tau_j, f_j -> f_j / c that the theorem allows.
"""

from __future__ import annotations

import math

import numpy as np

RTOL = 1e-9
# I - TF is invariant under per-index rescaling, and I has norm 1, so an
# absolute singular-value cutoff on it is scale-aware.
RANK_CUTOFF = 1e-8
FIXED_POINT_TOL = 1e-8
CERT_TOL = 1e-9


class Instance:
    """Plain matrices of one bisystem: vectors T, W (d x n, d x m) and
    functionals F, G (n x d, m x d)."""

    def __init__(self, t, f, w, g):
        self.t, self.f, self.w, self.g = (np.asarray(a) for a in (t, f, w, g))
        self.d = self.t.shape[0]
        self._coherences = None

    @classmethod
    def of(cls, bisystem) -> "Instance":
        """Copy the matrices out of a program BiSystem (inputs, not outputs)."""
        return cls(np.array(bisystem.first.vectors), np.array(bisystem.first.functionals),
                   np.array(bisystem.second.vectors), np.array(bisystem.second.functionals))

    @classmethod
    def from_document(cls, doc: dict) -> "Instance":
        """Parse a bisystem JSON document without the program's loader."""
        def matrix(rows, field):
            if field == "complex":
                return np.array([[complex(v[0], v[1]) for v in row] for row in rows])
            return np.array(rows, dtype=float)
        s1, s2 = doc["first"], doc["second"]
        return cls(matrix(s1["vectors"], s1["field"]), matrix(s1["functionals"], s1["field"]),
                   matrix(s2["vectors"], s2["field"]), matrix(s2["functionals"], s2["field"]))

    def coherences(self) -> dict:
        if self._coherences is None:
            self._coherences = {
                "sub_coherence_f": sub_coherence(self.f, self.t),
                "sub_coherence_g": sub_coherence(self.g, self.w),
                "cross_f_omega": float(np.abs(self.f @ self.w).max()),
                "cross_g_tau": float(np.abs(self.g @ self.t).max()),
            }
        return self._coherences

    def residual(self, x) -> float:
        """Largest relative fixed-point residual of x against both systems."""
        x = np.asarray(x)
        scale = np.abs(x).max()
        r_f = np.abs(x - self.t @ (self.f @ x)).max()
        r_g = np.abs(x - self.w @ (self.g @ x)).max()
        return float(max(r_f, r_g) / scale)

    def l0_pair(self, x) -> tuple:
        return l0_analysis(self.f, x), l0_analysis(self.g, x)

    def diagonals_ok(self) -> bool:
        d_f = np.abs(np.einsum("jd,dj->j", self.f, self.t))
        d_g = np.abs(np.einsum("jd,dj->j", self.g, self.w))
        return bool((d_f >= 1 - 1e-9).all() and (d_g >= 1 - 1e-9).all())

    def admissible_basis(self) -> np.ndarray:
        eye = np.eye(self.d)
        stacked = np.vstack([eye - self.t @ self.f, eye - self.w @ self.g])
        _, s, vh = np.linalg.svd(stacked)
        rank = int(np.count_nonzero(s > RANK_CUTOFF))
        return vh[rank:].conj().T


def sub_coherence(f, t) -> float:
    if f.shape[0] == 1:
        return 0.0
    g = np.abs(f @ t)
    np.fill_diagonal(g, 0.0)
    return float(g.max())


def l0_analysis(f, x) -> int:
    """Scale-aware count of the analysis coefficients f_j(x) that are nonzero."""
    coef = np.abs(f @ x)
    scale = np.linalg.norm(f, axis=1) * np.linalg.norm(x)
    return int(np.count_nonzero(coef > RTOL * scale))


def l0_vector(v) -> int:
    """Scale-aware count of the nonzero entries of v, relative to ||v||."""
    v = np.abs(np.asarray(v))
    return int(np.count_nonzero(v > RTOL * np.linalg.norm(v)))


def bound(s_f: int, s_g: int, co: dict, eps: float = 0.0, delta: float = 0.0) -> float:
    """Right-hand side of the sparsity-product inequality (concentrated form;
    the flat form is eps = delta = 0)."""
    num = max(0.0, 1.0 - eps - (s_f - 1 + eps) * co["sub_coherence_f"]) * max(
        0.0, 1.0 - delta - (s_g - 1 + delta) * co["sub_coherence_g"])
    denom = co["cross_f_omega"] * co["cross_g_tau"]
    if denom <= 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / denom


def epsilons(a) -> np.ndarray:
    """Concentration defect of a on its k largest entries, for k = 1..len(a)."""
    mags = np.sort(np.abs(np.asarray(a)))[::-1]
    total = mags.sum()
    return np.clip(1.0 - np.cumsum(mags) / total, 0.0, 1.0)


def top_set_ok(a, index_set) -> bool:
    """index_set holds |index_set| largest magnitudes of a (ties allowed)."""
    mags = np.abs(np.asarray(a))
    inside = np.zeros(mags.size, dtype=bool)
    inside[list(index_set)] = True
    if inside.all() or not inside.any():
        return True
    return bool(mags[inside].min() >= mags[~inside].max() * (1 - 1e-12))


def unitary_dft(d: int) -> np.ndarray:
    """Unitary DFT matrix from np.fft, entry (j, k) = exp(-2 pi i jk/d)/sqrt(d)."""
    return np.fft.fft(np.eye(d), axis=0, norm="ortho")


def dft_pair(d: int) -> Instance:
    """Identity against the unitary DFT basis, f_j = <., column_j>."""
    eye = np.eye(d, dtype=complex)
    m = unitary_dft(d)
    return Instance(eye, eye, m, m.conj().T)


def rescaled_dft_pair(d: int, c: float) -> Instance:
    """dft_pair with tau_j -> c tau_j and f_j -> f_j / c in both systems."""
    base = dft_pair(d)
    return Instance(base.t * c, base.f / c, base.w * c, base.g / c)


def sample(basis: np.ndarray, seed: int) -> np.ndarray:
    """The documented admissible sampler: seeded Gaussian coefficients,
    normalised to max magnitude 1, mapped through the basis."""
    rng = np.random.default_rng(seed)
    w = basis.shape[1]
    c = rng.standard_normal(w)
    if np.iscomplexobj(basis):
        c = c + 1j * rng.standard_normal(w)
    return basis @ (c / np.abs(c).max())


def exhaustive_expectation(inst: Instance, basis: np.ndarray, trials: int, seed: int,
                           concentrated_subsample: int) -> dict:
    """Recompute every verdict of a certificate batch with the benchmark's
    own coherences, l0 counts and concentration defects."""
    co = inst.coherences()
    hyp = inst.diagonals_ok()
    satisfied = conc_checked = conc_ok = 0
    for t in range(trials):
        x = sample(basis, seed + t)
        hyp_x = hyp and inst.residual(x) <= FIXED_POINT_TOL
        s_f, s_g = inst.l0_pair(x)
        satisfied += int(hyp_x and s_f * s_g >= bound(s_f, s_g, co) - CERT_TOL)
        if t < concentrated_subsample:
            eps = epsilons(inst.f @ x)
            delta = epsilons(inst.g @ x)
            for o_m in range(1, eps.size + 1):
                for o_n in range(1, delta.size + 1):
                    rhs = bound(o_m, o_n, co, eps[o_m - 1], delta[o_n - 1])
                    conc_checked += 1
                    conc_ok += int(hyp_x and o_m * o_n >= rhs - CERT_TOL)
    return {"trials": trials, "satisfied": satisfied,
            "concentrated_checked": conc_checked, "concentrated_satisfied": conc_ok}
