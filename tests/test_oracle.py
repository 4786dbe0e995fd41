import numpy as np
import pytest

from sparsebounds import (
    BiSystem,
    PairedSystem,
    admissible_space,
    analysis,
    best_set,
    exhaustive_verify,
    from_hilbert_vectors,
    generate,
    identity_system,
    min_sparsity_product,
    sample_admissible,
    verify_fkdb,
    verify_fskpb,
)
from sparsebounds.admissible import AdmissibleSpace
from sparsebounds.errors import (
    DegenerateInputError,
    GuardExceededError,
    NoAdmissibleSignalError,
    ParameterError,
)
from sparsebounds.oracle import VerifySummary


def rotation(angle_deg):
    t = np.deg2rad(angle_deg)
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


class TestMinSparsityProduct:
    def test_identity_pair_d2(self):
        b = BiSystem(identity_system(2), identity_system(2))
        r = min_sparsity_product(b, admissible_space(b))
        assert r.best_lhs == 1
        assert r.rhs_at_witness == pytest.approx(1.0)
        assert abs(r.gap) <= 1e-9

    def test_rotated_pair(self):
        b = BiSystem(identity_system(2), from_hilbert_vectors(rotation(45.0)))
        r = min_sparsity_product(b, admissible_space(b))
        assert r.best_lhs == 2
        assert r.rhs_at_witness == pytest.approx(2.0)
        assert abs(r.gap) <= 1e-9

    def test_dft_pair_matches_comb(self):
        b = generate("dft_pair", {"d": 4}, 0)
        r = min_sparsity_product(b, admissible_space(b))
        assert r.best_lhs == 4
        assert r.rhs_at_witness == pytest.approx(4.0)
        assert abs(r.gap) <= 1e-9
        # Equality witnesses at product 4 are combs up to phase: a single
        # spike (1 x 4) or a two-spike comb (2 x 2); the size ordering finds
        # the spike pattern first.
        mags = np.abs(r.witness)
        supp = sorted(np.nonzero(mags > 1e-9)[0].tolist())
        assert supp in ([0], [0, 2], [1, 3])

    def test_guard(self):
        b = generate("dft_pair", {"d": 15}, 0)
        with pytest.raises(GuardExceededError):
            min_sparsity_product(b, admissible_space(b), guard=24)

    def test_trivial_space(self):
        b = BiSystem(identity_system(2), identity_system(2))
        with pytest.raises(NoAdmissibleSignalError):
            min_sparsity_product(b, AdmissibleSpace(np.zeros((2, 0)), 0))

    @pytest.mark.parametrize("family,params", [
        ("dft_pair", {"d": 4}),
        ("rotated_pair", {"d": 2, "angle": 45.0}),
        ("subspace_union", {"d": 4, "split": 2}),
        ("perturbed", {"base": {"family": "dft_pair", "params": {"d": 4}}, "magnitude": 0.1}),
    ])
    def test_parallel_matches_serial(self, family, params):
        b = generate(family, params, seed=3)
        space = admissible_space(b)
        serial = min_sparsity_product(b, space, workers=1)
        parallel = min_sparsity_product(b, space, workers=4)
        assert serial.best_lhs == parallel.best_lhs
        assert serial.rhs_at_witness == parallel.rhs_at_witness
        assert serial.patterns_searched == parallel.patterns_searched
        np.testing.assert_array_equal(serial.witness, parallel.witness)

    def test_witness_disagreeing_with_pattern_raises(self):
        # Rescaling tau_j -> c tau_j, f_j -> f_j / c keeps every hypothesis,
        # but at c = 1e10 the witness's coefficients fall below the absolute
        # eta, so its l0 product (0) is not the winning pattern's (1 x 1).
        c = 1e10
        b = generate("dft_pair", {"d": 4}, 0)
        rescaled = BiSystem(*(PairedSystem(s.vectors * c, s.functionals / c, s.field)
                              for s in (b.first, b.second)))
        with pytest.raises(DegenerateInputError):
            min_sparsity_product(rescaled, admissible_space(rescaled))

    def test_deterministic(self):
        b = generate("subspace_union", {"d": 5, "split": 3}, 7)
        space = admissible_space(b)
        a = min_sparsity_product(b, space)
        c = min_sparsity_product(b, space)
        assert a.best_lhs == c.best_lhs
        assert a.patterns_searched == c.patterns_searched
        np.testing.assert_array_equal(a.witness, c.witness)


class TestExhaustiveVerify:
    def test_dft_pair_thousand_trials(self):
        b = generate("dft_pair", {"d": 4}, 0)
        summary = exhaustive_verify(b, admissible_space(b), trials=1000, seed=0)
        assert summary.satisfied == 1000
        assert summary.failing_seeds == ()
        assert summary.concentrated_satisfied == summary.concentrated_checked
        assert summary.min_margin >= -1e-9

    def test_subspace_union_thousand_trials(self):
        b = generate("subspace_union", {"d": 6, "split": 3}, 1)
        summary = exhaustive_verify(b, admissible_space(b), trials=1000, seed=0)
        assert summary.satisfied == 1000
        assert summary.failing_seeds == ()
        assert summary.min_margin >= -1e-9

    def test_zero_trials_rejected(self):
        b = generate("identity_pair", {"d": 2}, 0)
        with pytest.raises(ParameterError):
            exhaustive_verify(b, admissible_space(b), trials=0)


def reference_verify(bisystem, space, trials, seed=0, concentrated_subsample=5):
    """exhaustive_verify written as a plain loop over the public certificates."""
    n, m = bisystem.first.n, bisystem.second.n
    satisfied = conc_checked = conc_ok = 0
    min_margin = np.inf
    failing = []
    for t in range(trials):
        x = sample_admissible(space, seed + t)
        cert = verify_fkdb(bisystem, x)
        min_margin = min(min_margin, cert.lhs - cert.rhs)
        if cert.hypothesis_ok and cert.satisfied:
            satisfied += 1
        else:
            failing.append(seed + t)
        if t < concentrated_subsample:
            a, b = analysis(bisystem.first, x), analysis(bisystem.second, x)
            for o_m in range(1, n + 1):
                for o_n in range(1, m + 1):
                    c = verify_fskpb(bisystem, x, best_set(a, o_m).set, best_set(b, o_n).set)
                    conc_checked += 1
                    conc_ok += int(c.hypothesis_ok and c.satisfied)
                    min_margin = min(min_margin, c.lhs - c.rhs)
    return VerifySummary(
        trials=trials, satisfied=satisfied, concentrated_checked=conc_checked,
        concentrated_satisfied=conc_ok, min_margin=float(min_margin),
        failing_seeds=tuple(failing),
    )


@pytest.mark.parametrize("family,params", [
    ("dft_pair", {"d": 16}),
    ("perturbed", {"base": {"family": "dft_pair", "params": {"d": 4}}, "magnitude": 0.1}),
    ("subspace_union", {"d": 6, "split": 3}),
])
def test_exhaustive_verify_matches_reference_loop(family, params):
    b = generate(family, params, seed=2)
    space = admissible_space(b)
    assert exhaustive_verify(b, space, trials=12, seed=5) == reference_verify(b, space, 12, seed=5)
