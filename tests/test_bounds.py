import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sparsebounds import (
    AdmissibleSpace,
    BiSystem,
    PairedSystem,
    admissible_space,
    analysis,
    coherence_profile,
    ds_product,
    eb_bound,
    exhaustive_verify,
    fkdb_rhs,
    from_hilbert_vectors,
    fskpb_rhs,
    generate,
    identity_system,
    per_index_slack,
    support,
    validate_pairing,
    verify_fkdb,
    verify_fskpb,
)
from sparsebounds import admissible, bounds
from sparsebounds.admissible import FAMILIES
from sparsebounds.bounds import VerifySummary, _analyse, fixedpoint_residuals
from sparsebounds.coherence import CoherenceProfile
from sparsebounds.config import ETA, ETA_HYP, TOL_CERT, TOL_FP
from sparsebounds.dft import dft_matrix
from sparsebounds.errors import DegenerateInputError, ParameterError, StructuralError
from referees import MIXED, reference_verify, rescaled, rescaled_per_index, rotation, skewed


class TestDonohoStark:
    def test_comb_d4(self):
        assert ds_product([1.0, 0.0, 1.0, 0.0]) == (2, 2, 4)

    def test_comb_d9(self):
        h = np.zeros(9)
        h[::3] = 1.0
        assert ds_product(h) == (3, 3, 9)

    def test_spike(self):
        assert ds_product([1.0, 0.0, 0.0, 0.0]) == (1, 4, 4)

    def test_zero_signal(self):
        with pytest.raises(DegenerateInputError):
            ds_product(np.zeros(4))


class TestEladBruckstein:
    def test_dft_case(self):
        assert eb_bound(0.5) == pytest.approx(4.0)

    def test_shared_vector(self):
        assert eb_bound(1.0) == 1.0

    def test_rotation_case(self):
        assert eb_bound(np.sqrt(2) / 2) == pytest.approx(2.0)

    def test_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            eb_bound(0.0)


class TestRhsFormulas:
    def test_hand_evaluated(self):
        prof = CoherenceProfile(0.2, 0.1, 0.5, 0.5)
        assert fkdb_rhs(2, 2, prof) == pytest.approx(0.8 * 0.9 / 0.25)

    def test_orthonormal_recovers_eb(self):
        mu = 0.5
        prof = CoherenceProfile(0.0, 0.0, mu, mu)
        assert fkdb_rhs(3, 2, prof) == pytest.approx(eb_bound(mu))

    def test_clamping_to_zero(self):
        prof = CoherenceProfile(0.6, 0.1, 0.5, 0.5)
        assert fkdb_rhs(5, 2, prof) == 0.0

    def test_fskpb_reduces_to_fkdb(self):
        prof = CoherenceProfile(0.2, 0.3, 0.4, 0.6)
        for s_f in range(1, 5):
            for s_g in range(1, 5):
                assert fskpb_rhs(s_f, s_g, 0.0, 0.0, prof) == fkdb_rhs(s_f, s_g, prof)

    def test_fskpb_direct_substitution(self):
        prof = CoherenceProfile(0.0, 0.0, 1.0, 1.0)
        assert fskpb_rhs(3, 7, 0.5, 0.0, prof) == pytest.approx(0.5)

    def test_fskpb_clamps(self):
        prof = CoherenceProfile(0.5, 0.0, 1.0, 1.0)
        assert fskpb_rhs(4, 1, 0.99, 0.0, prof) == 0.0

    def test_zero_cross_is_infinite_not_a_crash(self):
        prof = CoherenceProfile(0.0, 0.0, 0.0, 1.0)
        assert math.isinf(fkdb_rhs(1, 1, prof))
        assert fkdb_rhs(100, 1, CoherenceProfile(1.0, 0.0, 0.0, 1.0)) == 0.0


class TestVerifyFkdb:
    def test_identity_pair_equality(self):
        b = BiSystem(identity_system(2), identity_system(2))
        cert = verify_fkdb(b, [1.0, 0.0])
        assert cert.hypothesis_ok and cert.satisfied
        assert cert.lhs == 1.0
        assert cert.rhs == pytest.approx(1.0)

    def test_rotated_pair_equality(self):
        b = BiSystem(identity_system(2), from_hilbert_vectors(rotation(45.0)))
        cert = verify_fkdb(b, [1.0, 0.0])
        assert cert.hypothesis_ok and cert.satisfied
        assert cert.lhs == 2.0
        assert cert.rhs == pytest.approx(2.0)

    def test_hypothesis_failure_flagged(self):
        vectors = 1.2 * np.eye(2)
        b = BiSystem(PairedSystem(vectors, np.eye(2)), identity_system(2))
        cert = verify_fkdb(b, [1.0, 1.0])
        assert not cert.hypothesis_ok
        assert not cert.satisfied

    @pytest.mark.parametrize("slack,ok", [(0.5 * ETA_HYP, True), (2 * ETA_HYP, False)])
    def test_pairing_hypothesis_at_eta_hyp(self, slack, ok):
        # A pairing within ETA_HYP below 1 passes and one further below fails,
        # as validate_pairing decides; tol_fp = 1 leaves the pairing alone
        # to decide.
        first = PairedSystem(np.eye(2), (1.0 - slack) * np.eye(2))
        b = BiSystem(first, identity_system(2))
        assert validate_pairing(first).ok is ok
        assert verify_fkdb(b, [1.0, 1.0], tol_fp=1.0).hypothesis_ok is ok
        assert verify_fskpb(b, [1.0, 1.0], (0,), (1,), tol_fp=1.0).hypothesis_ok is ok
        space = AdmissibleSpace(np.eye(2), 2)
        assert exhaustive_verify(b, space, 3, tol_fp=1.0).satisfied == (3 if ok else 0)

    def test_zero_signal_rejected(self):
        b = BiSystem(identity_system(2), identity_system(2))
        with pytest.raises(DegenerateInputError):
            verify_fkdb(b, np.zeros(2))

    def test_vacuous_bound_never_satisfied(self):
        zero = PairedSystem(np.zeros((2, 1)), np.zeros((1, 2)))
        b = BiSystem(identity_system(2), zero)
        cert = verify_fkdb(b, [1.0, 0.0])
        assert cert.vacuous
        assert not cert.satisfied


@pytest.mark.parametrize("certify", [
    verify_fkdb,
    lambda b, x: verify_fskpb(b, x, (0, 2), (1,)),
], ids=["flat", "concentrated"])
def test_certificate_document_holds_the_record_fields(certify):
    b = generate("dft_pair", {"d": 4}, 0)
    cert = certify(b, [1.0, 0.0, 1.0, 0.0])
    doc = cert.as_dict()
    assert doc.pop("coherences") == {
        name: getattr(cert.profile, name)
        for name in ("sub_coherence_f", "sub_coherence_g", "cross_f_omega", "cross_g_tau")}
    assert doc.pop("residuals") == {"f": cert.fixedpoint_residual_f,
                                    "g": cert.fixedpoint_residual_g}
    assert len(doc) == 12
    for name, value in doc.items():
        assert value == getattr(cert, name), name
    for name in ("lhs", "rhs", "numerator_f", "numerator_g"):
        assert type(doc[name]) is float, name
    for name in ("hypothesis_ok", "satisfied", "vacuous"):
        assert type(doc[name]) is bool, name


class TestVerifyFskpb:
    def test_support_sets_match_fkdb(self):
        b = BiSystem(identity_system(2), from_hilbert_vectors(rotation(45.0)))
        x = np.array([1.0, 0.0])
        m = support(analysis(b.first, x), eta=0.0)
        n = support(analysis(b.second, x), eta=0.0)
        conc = verify_fskpb(b, x, m, n)
        flat = verify_fkdb(b, x)
        assert conc.epsilon == 0.0 and conc.delta == 0.0
        assert conc.lhs == flat.lhs
        assert conc.rhs == pytest.approx(flat.rhs, abs=1e-15)
        assert conc.satisfied

    def test_direct_substitution(self):
        b = BiSystem(identity_system(4), identity_system(4))
        x = np.array([4.0, 2.0, 1.0, 1.0])
        cert = verify_fskpb(b, x, {0}, {0})
        assert cert.epsilon == pytest.approx(0.5)
        assert cert.delta == pytest.approx(0.5)
        assert cert.lhs == 1.0
        assert cert.rhs == pytest.approx(0.25)
        assert cert.satisfied

    def test_full_sets(self):
        r3 = np.eye(3)
        r3[:2, :2] = rotation(30.0)
        b = BiSystem(identity_system(3), from_hilbert_vectors(r3))
        x = np.array([1.0, -2.0, 0.5])
        cert = verify_fskpb(b, x, range(3), range(3))
        assert cert.epsilon == 0.0 and cert.delta == 0.0
        assert cert.lhs == 9.0
        assert cert.satisfied

    def test_empty_set_allowed(self):
        b = BiSystem(identity_system(2), identity_system(2))
        cert = verify_fskpb(b, [1.0, 1.0], (), (0, 1))
        assert cert.epsilon == 1.0
        assert cert.lhs == 0.0
        assert cert.rhs == 0.0
        assert cert.satisfied


class TestPerIndexInequality:
    def test_identity_pair(self):
        b = BiSystem(identity_system(3), identity_system(3))
        slack = per_index_slack(b, [1.0, -2.0, 0.5])
        assert slack.min() >= -1e-9

    def test_dft_pair(self):
        b = BiSystem(identity_system(4, "complex"), from_hilbert_vectors(dft_matrix(4)))
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert per_index_slack(b, x).min() >= -1e-9


GRID = np.linspace(0.0, 0.9, 11)


def test_fskpb_monotonicity_grid():
    """Grid sweep of every monotone direction, exact float comparisons."""
    prof0 = CoherenceProfile(0.15, 0.25, 0.6, 0.7)
    o_m0, o_n0 = 3, 2
    eps_grid = GRID
    size_grid = range(1, 12)

    for eps in eps_grid:
        for hi, lo in zip(eps_grid[1:], eps_grid):
            assert fskpb_rhs(o_m0, o_n0, hi, eps, prof0) <= fskpb_rhs(o_m0, o_n0, lo, eps, prof0)
            assert fskpb_rhs(o_m0, o_n0, eps, hi, prof0) <= fskpb_rhs(o_m0, o_n0, eps, lo, prof0)
    for hi, lo in zip(list(size_grid)[1:], size_grid):
        assert fskpb_rhs(hi, o_n0, 0.1, 0.1, prof0) <= fskpb_rhs(lo, o_n0, 0.1, 0.1, prof0)
        assert fskpb_rhs(o_m0, hi, 0.1, 0.1, prof0) <= fskpb_rhs(o_m0, lo, 0.1, 0.1, prof0)
    sub_grid = GRID
    for hi, lo in zip(sub_grid[1:], sub_grid):
        assert (
            fskpb_rhs(o_m0, o_n0, 0.1, 0.1, CoherenceProfile(hi, 0.2, 0.6, 0.7))
            <= fskpb_rhs(o_m0, o_n0, 0.1, 0.1, CoherenceProfile(lo, 0.2, 0.6, 0.7))
        )
        assert (
            fskpb_rhs(o_m0, o_n0, 0.1, 0.1, CoherenceProfile(0.2, hi, 0.6, 0.7))
            <= fskpb_rhs(o_m0, o_n0, 0.1, 0.1, CoherenceProfile(0.2, lo, 0.6, 0.7))
        )
    cross_grid = np.linspace(0.1, 1.0, 11)
    for hi, lo in zip(cross_grid[1:], cross_grid):
        assert (
            fskpb_rhs(o_m0, o_n0, 0.1, 0.1, CoherenceProfile(0.2, 0.2, lo, 0.7))
            >= fskpb_rhs(o_m0, o_n0, 0.1, 0.1, CoherenceProfile(0.2, 0.2, hi, 0.7))
        )
        assert (
            fskpb_rhs(o_m0, o_n0, 0.1, 0.1, CoherenceProfile(0.2, 0.2, 0.6, lo))
            >= fskpb_rhs(o_m0, o_n0, 0.1, 0.1, CoherenceProfile(0.2, 0.2, 0.6, hi))
        )


@pytest.mark.parametrize("bisystem", [
    generate("identity_pair", {"d": 1}, 0),
    generate("dft_pair", {"d": 16}, 0),
    generate("rotated_pair", {"d": 5, "angle": 20.0}, 0),
    generate("perturbed", {"base": {"family": "subspace_union", "params": {"d": 9, "split": 4}},
                           "magnitude": 0.3}, 2),
    BiSystem(identity_system(4), from_hilbert_vectors(dft_matrix(4))),
])
def test_stacked_analysis_has_single_signal_bits(bisystem):
    # exhaustive_verify analyses its signals as one stack; every row must
    # equal the certificates' analysis of that signal alone, bit for bit.
    rng = np.random.default_rng(0)
    x = rng.standard_normal((9, bisystem.d))
    if bisystem.field == "complex":
        x = x + 1j * rng.standard_normal(x.shape)
    stack = _analyse(bisystem, x)
    for i, row in enumerate(x):
        one = _analyse(bisystem, row)
        for got, want in zip((stack.a[i], stack.b[i], stack.r_f[i], stack.r_g[i]),
                             (one.a, one.b, one.r_f, one.r_g)):
            assert got.tobytes() == want.tobytes()


DFT4 = generate("dft_pair", {"d": 4})


@pytest.mark.parametrize("call", [
    lambda x: verify_fkdb(DFT4, x),
    lambda x: fixedpoint_residuals(DFT4, x),
    lambda x: per_index_slack(DFT4, x),
], ids=["verify_fkdb", "fixedpoint_residuals", "per_index_slack"])
def test_signal_of_wrong_shape_refused(call):
    # Four coordinates as a (2, 2) array are not a signal of d = 4.
    with pytest.raises(StructuralError, match=r"shape \(2, 2\), expected \(4,\)"):
        call(np.ones((2, 2)))


class TestExhaustiveVerify:
    def test_dft_pair_thousand_trials(self):
        b = generate("dft_pair", {"d": 4}, 0)
        summary = exhaustive_verify(b, admissible_space(b), trials=1000, seed=0)
        assert summary.satisfied == 1000
        assert summary.failing_trials == ()
        assert summary.concentrated_satisfied == summary.concentrated_checked
        assert summary.min_margin >= -1e-9

    def test_subspace_union_thousand_trials(self):
        b = generate("subspace_union", {"d": 6, "split": 3}, 1)
        summary = exhaustive_verify(b, admissible_space(b), trials=1000, seed=0)
        assert summary.satisfied == 1000
        assert summary.failing_trials == ()
        assert summary.min_margin >= -1e-9

    def test_zero_trials_rejected(self):
        b = generate("identity_pair", {"d": 2}, 0)
        with pytest.raises(ParameterError):
            exhaustive_verify(b, admissible_space(b), trials=0)

    @pytest.mark.parametrize("counts", [
        {"trials": 2.5},
        {"trials": 3, "concentrated_subsample": -2},
        {"trials": 3, "concentrated_subsample": 2.5},
    ])
    def test_malformed_counts_rejected(self, counts):
        # Refused, not truncated, by the rule of config._valid_integer.
        b = generate("identity_pair", {"d": 2}, 0)
        with pytest.raises(ParameterError):
            exhaustive_verify(b, admissible_space(b), **counts)

    def test_integral_float_counts_accepted(self):
        b = generate("dft_pair", {"d": 3}, 0)
        space = admissible_space(b)
        got = exhaustive_verify(b, space, trials=4.0, concentrated_subsample=2.0)
        assert got == exhaustive_verify(b, space, trials=4, concentrated_subsample=2)


# n >= 9 and not a multiple of 8: lengths at which a pairwise sum of a set's
# magnitudes would depend on numpy's 8-term blocks.
@pytest.mark.parametrize("family,params", [
    ("dft_pair", {"d": 16}),
    ("perturbed", {"base": {"family": "dft_pair", "params": {"d": 4}}, "magnitude": 0.1}),
    ("subspace_union", {"d": 6, "split": 3}),
    ("identity_pair", {"d": 9}),
    ("rotated_pair", {"d": 10, "angle": 30.0}),
    ("perturbed", {"base": {"family": "dft_pair", "params": {"d": 11}}, "magnitude": 0.05}),
])
def test_exhaustive_verify_matches_reference_loop(family, params):
    b = generate(family, params, seed=2)
    space = admissible_space(b)
    assert exhaustive_verify(b, space, trials=12, seed=5) == reference_verify(b, space, 12, seed=5)


def verify_outcome(verify, bisystem, space, trials, seed, **kwargs):
    """The summary of a verify run, or the type and message of the error it raised."""
    try:
        return verify(bisystem, space, trials, seed=seed, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def verify_bisystems(draw):
    """A bisystem of any of the five families at d <= 6, the mixed
    real/complex bisystem, or a skewed one, whose sub-coherence is far above
    rounding."""
    family = draw(st.sampled_from(FAMILIES + ("mixed", "skewed")))
    if family == "mixed":
        return MIXED
    seed = draw(st.integers(0, 2**31 - 1))
    if family == "skewed":
        return skewed(draw(st.sampled_from(["dft_pair", "rotated_pair"])), draw(st.integers(2, 6)),
                      draw(st.sampled_from([0.1, 0.3])), seed)
    base = draw(st.sampled_from(FAMILIES[:-1])) if family == "perturbed" else family
    d = draw(st.integers(2 if base == "rotated_pair" else 1, 6))
    params = {"d": d}
    if base == "rotated_pair":
        params["angle"] = draw(st.floats(1.0, 89.0))
    if base == "subspace_union":
        params["split"] = draw(st.integers(1, d))
    if family == "perturbed":
        params = {"base": {"family": base, "params": params, "seed": seed},
                  "magnitude": draw(st.floats(0.0, 0.9))}
    return generate(family, params, seed)


# Tolerances: a tol_fp near the rounding of the fixed-point residuals fails
# some trials and passes others, which orders failing_trials; eta = 0.05
# drops small coefficients from the l0 counts, and eta = 1e6 zeroes every
# signal, which both paths refuse with the same error.
verify_tolerances = st.fixed_dictionaries({
    "eta": st.sampled_from([ETA, 0.0, 0.05, 1e6]),
    "tol_fp": st.sampled_from([TOL_FP, 0.0]) | st.floats(-17.0, -14.0).map(lambda e: 10.0 ** e),
    "tol_cert": st.sampled_from([TOL_CERT, 0.0]),
})


# Example count from the hypothesis profile (tests/conftest.py).
@given(verify_bisystems(), st.integers(0, 2**20), st.integers(1, 60), st.integers(0, 8),
       verify_tolerances)
@example(generate("dft_pair", {"d": 4}, 0), 0, 40, 5,
         {"eta": ETA, "tol_fp": 1e-16, "tol_cert": TOL_CERT})
@example(MIXED, 4, 20, 8, {"eta": ETA, "tol_fp": 1e-17, "tol_cert": TOL_CERT})
@example(generate("rotated_pair", {"d": 3, "angle": 30.0}, 0), 0, 10, 5,
         {"eta": 1e6, "tol_fp": TOL_FP, "tol_cert": TOL_CERT})
def test_exhaustive_verify_matches_reference_property(b, seed, trials, subsample, tolerances):
    space = admissible_space(b)
    kwargs = dict(concentrated_subsample=subsample, **tolerances)
    want = verify_outcome(reference_verify, b, space, trials, seed, **kwargs)
    assert verify_outcome(exhaustive_verify, b, space, trials, seed, **kwargs) == want


def test_exhaustive_verify_rescaled_fault_matches_reference():
    # The rescaling fault of ROADMAP item 1, as it stands: at c = 1e10 the
    # absolute eta counts every analysis coefficient as zero, so every flat
    # certificate reports lhs = 0 < rhs = 4.  Both paths agree on it.
    b = rescaled(generate("dft_pair", {"d": 4}, 0), 1e10)
    space = admissible_space(b)
    got = exhaustive_verify(b, space, 12, seed=3)
    assert got == reference_verify(b, space, 12, seed=3)
    assert got.satisfied == 0
    assert got.failing_trials == tuple(range(12))


@pytest.mark.parametrize("block", [1, 3, 7])
def test_exhaustive_verify_blocks_match_reference(monkeypatch, block):
    # Sweeps longer than one block: the concentrated subsample and the
    # failing trials run across block boundaries.
    monkeypatch.setattr(bounds, "_SWEEP_BLOCK", block)
    b = generate("rotated_pair", {"d": 3, "angle": 30.0}, 0)
    space = admissible_space(b)
    kwargs = dict(tol_fp=1e-16, concentrated_subsample=8)
    got = exhaustive_verify(b, space, 20, seed=1, **kwargs)
    assert got == reference_verify(b, space, 20, seed=1, **kwargs)
    assert 0 < got.satisfied < got.trials


def recorded_sweep(bisystem, space, trials, seed, block, **kwargs):
    """exhaustive_verify's summary with sweep blocks of `block` trials, and
    the signals it drew, stacked in order."""
    drawn = []

    def record(*args):
        drawn.append(admissible._samples(*args))
        return drawn[-1]

    with mock.patch.object(bounds, "_SWEEP_BLOCK", block), \
            mock.patch.object(bounds, "_samples", record):
        summary = exhaustive_verify(bisystem, space, trials, seed=seed, **kwargs)
    return summary, np.concatenate(drawn)


# eta = 1e6 is left out: it refuses every sweep at trial 0.
@given(verify_bisystems(), st.integers(0, 2**20), st.integers(1, 30), st.integers(1, 30),
       st.sampled_from([1, 4, bounds._SWEEP_BLOCK]),
       verify_tolerances.filter(lambda tolerances: tolerances["eta"] < 1e6))
def test_exhaustive_verify_prefix_property(b, seed, trials, more, block, tolerances):
    # A T-trial sweep is the start of every longer sweep at its seed: its
    # signals are the first T, bit for bit, and its failing trials are the
    # longer sweep's below T.
    space = admissible_space(b)
    short, x = recorded_sweep(b, space, trials, seed, block, **tolerances)
    long, x_long = recorded_sweep(b, space, trials + more, seed, block, **tolerances)
    assert x.tobytes() == x_long[:trials].tobytes()
    assert short.failing_trials == tuple(t for t in long.failing_trials if t < trials)
    assert short.satisfied == trials - len(short.failing_trials)


@pytest.mark.parametrize("eta,subsample,want", [
    (2.0, 5, (DegenerateInputError, "signal is zero after thresholding")),
    (ETA, 5, (DegenerateInputError, "sequence has zero l1 mass")),
    (ETA, 0, VerifySummary(3, 0, 0, 0, -1.0, (0, 1, 2))),
])
def test_exhaustive_verify_errors_in_loop_order(eta, subsample, want):
    # The first system annihilates every sample of this space, so each
    # concentrated check meets a zero-mass analysis vector; at eta = 2 the
    # zero signal of trial 0 is refused first, as in the loop.
    first = PairedSystem(np.array([[1.0], [0.0]]), np.array([[1.0, 0.0]]))
    b = BiSystem(first, identity_system(2))
    space = AdmissibleSpace(np.array([[0.0], [1.0]]), 1)
    kwargs = dict(eta=eta, concentrated_subsample=subsample)
    assert verify_outcome(reference_verify, b, space, 3, 0, **kwargs) == want
    assert verify_outcome(exhaustive_verify, b, space, 3, 0, **kwargs) == want


# Bisystems on which a sweep that took a wrong input to the bound would
# differ from the loop of single certificates.  Every family above has
# sub-coherence <= 1.2e-16, so its flat rhs hardly depends on the l0 counts;
# a skewed system has sub-coherence mu.  The others fail the pairing by
# 2 ETA_HYP (under its own basis, since its I - TF is above the rank cutoff),
# rescale a diagonal system per index, or have a basis that is not square.
SWEEP_CORPUS = {
    **{f"skewed-{partner}-{mu}": (skewed(partner, 5, mu, 0), None)
       for partner in ("dft_pair", "rotated_pair") for mu in (0.1, 0.3)},
    "unpaired": (BiSystem(PairedSystem(np.eye(3), (1.0 - 2 * ETA_HYP) * np.eye(3)),
                          generate("dft_pair", {"d": 3}, 0).second),
                 AdmissibleSpace(np.eye(3), 3)),
    "rescaled-diagonal": (BiSystem(rescaled_per_index(identity_system(4, "complex"),
                                                      np.array([1e-3, 2.0, 7.5, 1e4])),
                                   generate("dft_pair", {"d": 4}, 0).second), None),
    "subspace_union": (generate("subspace_union", {"d": 7, "split": 3}, 5), None),
}


# With no concentrated checks, min_margin is the least flat margin; with
# them, it is almost always a concentrated one.
@pytest.mark.parametrize("tol_fp,subsample", [(TOL_FP, 0), (TOL_FP, 6), (1e-16, 6), (1.0, 6)])
@pytest.mark.parametrize("name", SWEEP_CORPUS)
def test_exhaustive_verify_matches_reference_on_corpus(name, tol_fp, subsample):
    b, space = SWEEP_CORPUS[name]
    space = space or admissible_space(b)
    if name.startswith("skewed"):
        assert coherence_profile(b).sub_coherence_f >= 0.1
    kwargs = dict(tol_fp=tol_fp, concentrated_subsample=subsample)
    got = exhaustive_verify(b, space, 40, seed=7, **kwargs)
    want = reference_verify(b, space, 40, seed=7, **kwargs)
    assert got == want
    assert got.min_margin.hex() == want.min_margin.hex()
    if name == "unpaired":
        assert got.satisfied == got.concentrated_satisfied == 0
