"""Right-hand sides of the uncertainty inequalities and verified certificates."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import dft
from .admissible import AdmissibleSpace, _check_space, _samples
from .coherence import CoherenceProfile, coherence_profile
from .config import ETA, TOL_CERT, TOL_FP, _valid_integer, _valid_real
from .errors import DegenerateInputError
from .sparsity import _concentration, _counts, _top_defects, l0
from .systems import _DTYPES, BiSystem, _apply, _as_signal


def ds_product(h, eta: float = ETA) -> tuple:
    """(l0 of h, l0 of its unitary DFT, their product) for nonzero h."""
    s_time = l0(h, eta)
    if s_time == 0:
        raise DegenerateInputError("signal is zero after thresholding")
    s_freq = l0(dft.forward(h), eta)
    return s_time, s_freq, s_time * s_freq


def _bound(o_m, o_n, eps, delta, prof: CoherenceProfile) -> tuple:
    """(numerator_f, numerator_g, rhs) of the concentrated bound at set sizes
    (o_m, o_n) and concentration defects (eps, delta), elementwise over
    scalars or broadcastable arrays; eps = delta = 0 is the flat bound.  A
    zero cross-coherence makes rhs inf (a vacuous bound), never an
    arithmetic fault, except that a zero numerator gives 0 outright."""
    num_f = 1.0 - eps - (o_m - 1 + eps) * prof.sub_coherence_f
    num_g = 1.0 - delta - (o_n - 1 + delta) * prof.sub_coherence_g
    num = np.maximum(0.0, num_f) * np.maximum(0.0, num_g)
    denom = prof.cross_f_omega * prof.cross_g_tau
    if denom <= 0.0:
        return num_f, num_g, np.where(num == 0.0, 0.0, np.inf)
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
        """The record's fields, with profile as coherences and the two
        fixed-point residuals as residuals {f, g}."""
        document = dict(vars(self))
        document["coherences"] = document.pop("profile").as_dict()
        document["residuals"] = {"f": document.pop("fixedpoint_residual_f"),
                                 "g": document.pop("fixedpoint_residual_g")}
        return document


def fixedpoint_residuals(bisystem: BiSystem, x) -> tuple:
    """Max-norm residuals of x against both fixed-point conditions."""
    _, _, r_f, r_g = _analyse(bisystem, _as_signal(bisystem.field, x, bisystem.d, "signal"))
    return float(r_f), float(r_g)


def _analyse(bisystem: BiSystem, x: np.ndarray) -> tuple:
    """(a, b, r_f, r_g): the analysis vectors and fixed-point residuals of x,
    one signal (d,) or a stack (k, d) in the bisystem's field (then each has
    the stack's leading axis), analysed by each system's kept matrix forms
    directly, so a real system pairs with a complex one.  Each row of a
    stack has the bits of the same signal analysed alone (systems._apply).
    A product that overflows leaves a residual of inf or NaN, which fails
    the hypothesis (_certificates): a non-finite analysis vector does so
    too, through T a or W b, unless its tau_j is 0, and then f_j(tau_j) = 0
    fails the pairing."""
    first, second = bisystem.first, bisystem.second
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = _apply(first._functionals_form, x), _apply(second._functionals_form, x)
        r_f = np.abs(x - _apply(first._vectors_form, a)).max(axis=-1)
        r_g = np.abs(x - _apply(second._vectors_form, b)).max(axis=-1)
    return a, b, r_f, r_g


def _evaluate(bisystem: BiSystem, x: np.ndarray, eta: float) -> tuple:
    """(zero, r_f, r_g, mags) of a stack x (k, d) of signals in the
    bisystem's field: the indices of the rows that are zero after
    thresholding at eta, the fixed-point residuals (k,) and |a|, |b| in one
    array (2, k, max(n, m)), zero-padded to one width.  A zero is never
    above eta and adds +0.0 to a running mass, so one call gives the l0
    counts, and one the defects, of both systems, with their bits.  The one
    evaluation of signals that single certificates and sweeps share."""
    zero = (_counts(np.abs(x), eta) == 0).nonzero()[0]
    a, b, r_f, r_g = _analyse(bisystem, x)
    n, m = a.shape[1], b.shape[1]
    mags = np.zeros((2, len(x), max(n, m)))
    np.abs(a, out=mags[0, :, :n])
    np.abs(b, out=mags[1, :, :m])
    return zero, r_f, r_g, mags


def _certificates(bisystem: BiSystem, tol_fp: float, tol_cert: float, r_f, r_g, o_m, o_n,
                  eps, delta) -> dict:
    """BoundCertificate's lhs, rhs, numerators and verdicts, keyed by field
    name, at fixed-point residuals (r_f, r_g), set sizes (o_m, o_n) and
    concentration defects (eps, delta), elementwise over scalars or
    broadcastable arrays; the bisystem's profile and pairing verdict are
    kept on it."""
    numerator_f, numerator_g, rhs = _bound(o_m, o_n, eps, delta, coherence_profile(bisystem))
    lhs = np.multiply(o_m, o_n, dtype=float)
    hypothesis_ok = (np.maximum(r_f, r_g) <= tol_fp) & bisystem._pairing_ok
    vacuous = np.isinf(rhs)
    # rhs is in [0, inf] and lhs is finite, so a vacuous bound (rhs = inf)
    # already fails the comparison: it is never satisfied.
    satisfied = hypothesis_ok & (lhs >= rhs - tol_cert)
    return dict(lhs=lhs, rhs=rhs, numerator_f=numerator_f, numerator_g=numerator_g,
                hypothesis_ok=hypothesis_ok, vacuous=vacuous, satisfied=satisfied)


def verify_fkdb(bisystem: BiSystem, x, eta: float = ETA, tol_fp: float = TOL_FP,
                tol_cert: float = TOL_CERT) -> BoundCertificate:
    """Certificate for the sparsity-product inequality at signal x.

    Hypothesis failure (a pairing below 1 - ETA_HYP, or a fixed-point
    residual above tol_fp) yields a certificate with hypothesis_ok=False and
    satisfied=False, never a silent pass.
    """
    return _verify(bisystem, x, None, eta, tol_fp, tol_cert)


def verify_fskpb(bisystem: BiSystem, x, set_m, set_n, eta: float = ETA,
                 tol_fp: float = TOL_FP, tol_cert: float = TOL_CERT) -> BoundCertificate:
    """Concentrated certificate for index sets M (first system) and N (second).

    epsilon and delta are the exact concentration defects of the analysis
    coefficients on M and N; empty sets are allowed (epsilon or delta = 1).
    """
    return _verify(bisystem, x, (set_m, set_n), eta, tol_fp, tol_cert)


def _verify(bisystem: BiSystem, x, sets, eta: float, tol_fp: float,
            tol_cert: float) -> BoundCertificate:
    """Certificate at signal x.  With sets None it is the flat bound, at the
    l0 counts of the analysis vectors and eps = delta = 0, with epsilon and
    delta recorded as None; with sets (M, N), the concentrated bound at the
    sets' sizes and concentration defects.  x is evaluated as a stack of one
    signal, the sweep's evaluation (_evaluate)."""
    for name, value in (("eta", eta), ("tol_fp", tol_fp), ("tol_cert", tol_cert)):
        _valid_real(name, value)
    profile = coherence_profile(bisystem)
    x = _as_signal(bisystem.field, x, bisystem.d, "signal")
    zero, (r_f,), (r_g,), mags = _evaluate(bisystem, x[None], eta)
    if zero.size:
        raise DegenerateInputError("signal is zero after thresholding")
    eps = delta = None
    if sets is None:
        o_m, o_n = _counts(mags[:, 0], eta)
    else:
        (o_m, eps), (o_n, delta) = map(_concentration, (mags[0, 0, :bisystem.first.n],
                                                        mags[1, 0, :bisystem.second.n]), sets)
    quantities = _certificates(bisystem, tol_fp, tol_cert, r_f, r_g, o_m, o_n,
                               0.0 if eps is None else eps, 0.0 if delta is None else delta)
    return BoundCertificate(
        **{name: np.asarray(value).item() for name, value in quantities.items()},
        profile=profile, fixedpoint_residual_f=float(r_f), fixedpoint_residual_g=float(r_g),
        eta=eta, tol_fp=tol_fp, tol_cert=tol_cert, epsilon=eps, delta=delta,
    )


@dataclass(frozen=True)
class VerifySummary:
    """exhaustive_verify's tally: flat certificates satisfied of trials,
    concentrated ones satisfied of checked, the least lhs - rhs over all of
    them, and the 0-based indices of the trials whose flat certificate failed."""

    trials: int
    satisfied: int
    concentrated_checked: int
    concentrated_satisfied: int
    min_margin: float
    failing_trials: tuple = field(default_factory=tuple)


# Trials drawn and analysed per array pass of exhaustive_verify; bounds the
# memory of a long sweep to this many signals.
_SWEEP_BLOCK = 1024


def exhaustive_verify(bisystem: BiSystem, space: AdmissibleSpace, trials: int,
                      seed: int = 0, eta: float = ETA, tol_fp: float = TOL_FP,
                      tol_cert: float = TOL_CERT,
                      concentrated_subsample: int = 5) -> VerifySummary:
    """Verify certificates on many sampled admissible signals.

    The trials are drawn from one stream, np.random.default_rng(seed): trial
    t's coefficients are row t of its standard_normal((trials, 2, w)) for a
    complex basis (real parts, then imaginary parts), or of (trials, 1, w)
    for a real one, normalized to max magnitude 1, so trial 0 is
    sample_admissible(space, seed) and trial t replays as row t of the
    (t + 1)-row draw.  failing_trials holds the 0-based indices of the
    trials whose flat certificate failed.  On the first
    `concentrated_subsample` signals, also checks the concentrated
    certificate with M, N chosen by best_set at every cardinality pair.
    The certificates are evaluated as arrays, and the summary equals that of
    verify_fkdb and verify_fskpb called signal by signal, bit for bit.
    """
    trials = _valid_integer("trials", trials, 1)
    rng = np.random.default_rng(_valid_integer("seed", seed, 0))
    concentrated_subsample = _valid_integer("concentrated_subsample", concentrated_subsample, 0)
    for name, value in (("eta", eta), ("tol_fp", tol_fp), ("tol_cert", tol_cert)):
        _valid_real(name, value)
    coherence_profile(bisystem)  # an overflowing profile is refused before the space
    _check_space(bisystem, space)
    n, m = bisystem.first.n, bisystem.second.n
    satisfied = conc_checked = conc_ok = 0
    min_margin = np.inf
    failing = []
    for start in range(0, trials, _SWEEP_BLOCK):
        block = range(start, min(start + _SWEEP_BLOCK, trials))
        # In the bisystem's field, as verify_fkdb analyses a signal: a real
        # basis of a complex bisystem draws real signals.
        x = _samples(space, rng, len(block)).astype(_DTYPES[bisystem.field], copy=False)
        zero, r_f, r_g, mags = _evaluate(bisystem, x, eta)
        # A zero signal ends the sweep, as it ends the loop of single
        # certificates: only the signals before it are checked first.
        k = min(max(concentrated_subsample - start, 0), zero[0] if zero.size else len(block))
        if k:
            # The concentrated certificates (k, n, m) of the first k signals,
            # with M and N the best_set sets of every size pair (o_m, o_n).
            defects = _top_defects(mags[:, :k])
            cert = _certificates(bisystem, tol_fp, tol_cert, r_f[:k, None, None],
                                 r_g[:k, None, None], np.arange(1, n + 1)[:, None],
                                 np.arange(1, m + 1), defects[0, :, 1:n + 1, None],
                                 defects[1, :, None, 1:m + 1])
            conc_checked += cert["satisfied"].size
            conc_ok += int(cert["satisfied"].sum())
            min_margin = min(min_margin, (cert["lhs"] - cert["rhs"]).min())
        if zero.size:
            raise DegenerateInputError("signal is zero after thresholding")
        cert = _certificates(bisystem, tol_fp, tol_cert, r_f, r_g, *_counts(mags, eta), 0.0, 0.0)
        passed = int(cert["satisfied"].sum())
        satisfied += passed
        if passed < len(block):
            failing.extend(start + int(i) for i in np.flatnonzero(~cert["satisfied"]))
        min_margin = min(min_margin, (cert["lhs"] - cert["rhs"]).min())
    return VerifySummary(
        trials=trials, satisfied=satisfied, concentrated_checked=conc_checked,
        concentrated_satisfied=conc_ok, min_margin=float(min_margin),
        failing_trials=tuple(failing),
    )
