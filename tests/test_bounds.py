import math

import numpy as np
import pytest

from sparsebounds import (
    AdmissibleSpace,
    BiSystem,
    PairedSystem,
    analysis,
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
from sparsebounds.bounds import _analyse, fixedpoint_residuals
from sparsebounds.coherence import CoherenceProfile
from sparsebounds.config import ETA_HYP
from sparsebounds.dft import dft_matrix
from sparsebounds.errors import DegenerateInputError, StructuralError
from referees import rotation


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
