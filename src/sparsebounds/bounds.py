"""Right-hand sides of the uncertainty inequalities and verified certificates."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import dft
from .admissible import AdmissibleSpace, sample_admissible
from .coherence import CoherenceProfile, coherence_profile
from .config import ETA, ETA_HYP, TOL_CERT, TOL_FP
from .errors import DegenerateInputError, NoAdmissibleSignalError, ParameterError
from .sparsity import best_set, concentration_epsilon, l0, l1
from .systems import BiSystem, _as_signal, infer_field, validate_pairing


def ds_product(h, eta: float = ETA) -> tuple:
    """(l0 of h, l0 of its unitary DFT, their product) for nonzero h."""
    s_time = l0(h, eta)
    if s_time == 0:
        raise DegenerateInputError("signal is zero after thresholding")
    s_freq = l0(dft.forward(h), eta)
    return s_time, s_freq, s_time * s_freq


def eb_bound(mu: float) -> float:
    """1 / mu^2 for the cross-coherence mu of two orthonormal bases."""
    if mu <= 0.0:
        raise DegenerateInputError("cross coherence must be positive for two bases")
    return 1.0 / (mu * mu)


def fkdb_rhs(s_f: int, s_g: int, prof: CoherenceProfile) -> float:
    """Bound on the sparsity product at sparsities (s_f, s_g): the concentrated
    bound at eps = delta = 0.  A zero cross-coherence makes the bound infinite
    (vacuous hypothesis), reported as math.inf, never as an arithmetic fault,
    except that a zero numerator yields 0 outright."""
    return fskpb_rhs(s_f, s_g, 0.0, 0.0, prof)


def fskpb_rhs(o_m: int, o_n: int, eps: float, delta: float, prof: CoherenceProfile) -> float:
    """Concentrated variant of the bound for set sizes (o_m, o_n)."""
    return _bound(o_m, o_n, eps, delta, prof)[2]


def _bound(o_m, o_n, eps, delta, prof: CoherenceProfile) -> tuple:
    """(numerator_f, numerator_g, rhs) of the concentrated bound."""
    num_f = 1.0 - eps - (o_m - 1 + eps) * prof.sub_coherence_f
    num_g = 1.0 - delta - (o_n - 1 + delta) * prof.sub_coherence_g
    num = max(0.0, num_f) * max(0.0, num_g)
    denom = prof.cross_f_omega * prof.cross_g_tau
    if denom <= 0.0:
        return num_f, num_g, 0.0 if num == 0.0 else math.inf
    return num_f, num_g, num / denom


@dataclass(frozen=True)
class BoundCertificate:
    """One verified inequality instance with all component quantities."""

    lhs: float
    rhs: float
    numerator_f: float
    numerator_g: float
    profile: CoherenceProfile
    fixedpoint_residual_f: float
    fixedpoint_residual_g: float
    hypothesis_ok: bool
    satisfied: bool
    vacuous: bool
    eta: float
    tol_fp: float
    tol_cert: float
    epsilon: Optional[float] = None
    delta: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "numerator_f": self.numerator_f,
            "numerator_g": self.numerator_g,
            "coherences": self.profile.as_dict(),
            "residuals": {"f": self.fixedpoint_residual_f, "g": self.fixedpoint_residual_g},
            "epsilon": self.epsilon,
            "delta": self.delta,
            "hypothesis_ok": self.hypothesis_ok,
            "satisfied": self.satisfied,
            "vacuous": self.vacuous,
            "eta": self.eta,
            "tol_fp": self.tol_fp,
            "tol_cert": self.tol_cert,
        }


def fixedpoint_residuals(bisystem: BiSystem, x) -> tuple:
    """Max-norm residuals of x against both fixed-point conditions."""
    sig = _analyse(bisystem, np.asarray(x).ravel())
    return sig.r_f, sig.r_g


@dataclass(frozen=True)
class _Prepared:
    """Per-bisystem invariants and tolerances, computed once for many signals."""

    bisystem: BiSystem
    profile: CoherenceProfile
    pairing_ok: bool
    eta: float
    tol_fp: float
    tol_cert: float


def _prepare(bisystem: BiSystem, eta: float = ETA, tol_fp: float = TOL_FP,
             tol_cert: float = TOL_CERT, eta_hyp: float = ETA_HYP) -> _Prepared:
    pairing_ok = (validate_pairing(bisystem.first, eta_hyp).ok
                  and validate_pairing(bisystem.second, eta_hyp).ok)
    return _Prepared(bisystem, coherence_profile(bisystem), pairing_ok,
                     eta, tol_fp, tol_cert)


@dataclass(frozen=True)
class _Signal:
    """Analysis vectors and fixed-point residuals of one nonzero signal."""

    a: np.ndarray
    b: np.ndarray
    r_f: float
    r_g: float


def _analyse(bisystem: BiSystem, x) -> _Signal:
    """x in the bisystem's field (complex when either system is), analysed by
    each system's matrices directly, so a real system pairs with a complex one."""
    field = infer_field(bisystem.first.vectors, bisystem.second.vectors)
    x = _as_signal(field, x, bisystem.d, "signal")
    a, b = bisystem.first.functionals @ x, bisystem.second.functionals @ x
    r_f = np.abs(x - bisystem.first.vectors @ a).max()
    r_g = np.abs(x - bisystem.second.vectors @ b).max()
    return _Signal(a, b, float(r_f), float(r_g))


def _signal(prep: _Prepared, x) -> _Signal:
    if l0(x, prep.eta) == 0:
        raise DegenerateInputError("signal is zero after thresholding")
    return _analyse(prep.bisystem, x)


def _certify(prep: _Prepared, sig: _Signal, o_m: int, o_n: int,
             eps: Optional[float], delta: Optional[float]) -> BoundCertificate:
    """Certificate at set sizes (o_m, o_n) with concentration defects
    (eps, delta); eps = delta = None is the flat bound, evaluated at 0."""
    num_f, num_g, rhs = _bound(o_m, o_n, 0.0 if eps is None else eps,
                               0.0 if delta is None else delta, prep.profile)
    lhs = o_m * o_n
    hyp_ok = bool(sig.r_f <= prep.tol_fp and sig.r_g <= prep.tol_fp and prep.pairing_ok)
    vacuous = math.isinf(rhs)
    satisfied = bool(hyp_ok and not vacuous and lhs >= rhs - prep.tol_cert)
    return BoundCertificate(
        lhs=float(lhs), rhs=rhs, numerator_f=num_f, numerator_g=num_g,
        profile=prep.profile, fixedpoint_residual_f=sig.r_f,
        fixedpoint_residual_g=sig.r_g, hypothesis_ok=hyp_ok, satisfied=satisfied,
        vacuous=vacuous, eta=prep.eta, tol_fp=prep.tol_fp, tol_cert=prep.tol_cert,
        epsilon=eps, delta=delta,
    )


def verify_fkdb(bisystem: BiSystem, x, eta: float = ETA, tol_fp: float = TOL_FP,
                tol_cert: float = TOL_CERT, eta_hyp: float = ETA_HYP) -> BoundCertificate:
    """Certificate for the sparsity-product inequality at signal x.

    Hypothesis failure yields a certificate with hypothesis_ok=False and
    satisfied=False, never a silent pass.
    """
    prep = _prepare(bisystem, eta, tol_fp, tol_cert, eta_hyp)
    sig = _signal(prep, x)
    return _certify(prep, sig, l0(sig.a, eta), l0(sig.b, eta), None, None)


def verify_fskpb(bisystem: BiSystem, x, set_m, set_n, eta: float = ETA,
                 tol_fp: float = TOL_FP, tol_cert: float = TOL_CERT,
                 eta_hyp: float = ETA_HYP) -> BoundCertificate:
    """Concentrated certificate for index sets M (first system) and N (second).

    epsilon and delta are the exact concentration defects of the analysis
    coefficients on M and N; empty sets are allowed (epsilon or delta = 1).
    """
    prep = _prepare(bisystem, eta, tol_fp, tol_cert, eta_hyp)
    sig = _signal(prep, x)
    set_m, set_n = {int(i) for i in set_m}, {int(i) for i in set_n}
    return _certify(prep, sig, len(set_m), len(set_n),
                    concentration_epsilon(sig.a, set_m),
                    concentration_epsilon(sig.b, set_n))


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


def per_index_slack(bisystem: BiSystem, x) -> np.ndarray:
    """Slack of the per-index proof inequality at every index j.

    For admissible x the quantity
    (1 + mu_f)|f_j(x)| - ||theta_f x||_1 mu_f is at most
    ||theta_g x||_1 * cross_f_omega; returned is the (rhs - lhs) array,
    nonnegative up to rounding on valid instances.
    """
    prof = coherence_profile(bisystem)
    sig = _analyse(bisystem, x)
    lhs = (1.0 + prof.sub_coherence_f) * np.abs(sig.a) - l1(sig.a) * prof.sub_coherence_f
    return l1(sig.b) * prof.cross_f_omega - lhs
