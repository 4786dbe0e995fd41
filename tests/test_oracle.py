import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from sparsebounds.admissible import AdmissibleSpace, null_space_basis
from sparsebounds.errors import (
    DegenerateInputError,
    GuardExceededError,
    NoAdmissibleSignalError,
    ParameterError,
)
from sparsebounds.config import ETA, GUARD, TOL_RANK
from sparsebounds.oracle import VerifySummary, _pattern_order, _report


def reference_search(bisystem, space, eta=ETA, guard=GUARD, tol_rank=TOL_RANK):
    """min_sparsity_product as a plain loop of one null-space solve per pattern,
    on the off-pattern rows gathered pattern by pattern."""
    n, m = bisystem.first.n, bisystem.second.n
    a_rows = bisystem.first.functionals @ space.basis
    c_rows = bisystem.second.functionals @ space.basis
    searched = 0
    for size_f, size_g in _pattern_order(n, m):
        for s_f in itertools.combinations(range(n), size_f):
            for s_g in itertools.combinations(range(m), size_g):
                searched += 1
                off = np.vstack([np.delete(a_rows, list(s_f), axis=0),
                                 np.delete(c_rows, list(s_g), axis=0)])
                basis = null_space_basis(off, tol_rank)
                if basis.shape[1] > 0:
                    return _report(bisystem, space, basis[:, 0], (size_f, size_g), eta,
                                   guard, searched)
    raise NoAdmissibleSignalError("no feasible support pattern found")


def report_fields(report):
    """Every field of a TightnessReport, the witness as dtype and raw bytes."""
    return (report.best_lhs, report.patterns_searched, report.rhs_at_witness, report.gap,
            report.guard, report.eta, report.witness.dtype, report.witness.tobytes())


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
        # The winner (pattern 7921) lies many chunks into its size class.
        ("dft_pair", {"d": 8}),
        # A single functional per system: no off-pattern rows, so the
        # row-count shortcut decides the first pattern.
        ("identity_pair", {"d": 1}),
    ])
    def test_batched_matches_reference(self, family, params):
        b = generate(family, params, seed=3)
        space = admissible_space(b)
        want = reference_search(b, space)
        assert report_fields(min_sparsity_product(b, space)) == report_fields(want)

    def test_row_count_shortcut_skips_svd(self, monkeypatch):
        # dft_pair d=5 wins in size class (1, 5), whose 4 off-pattern rows are
        # fewer than w = 5; that class needs no singular values.
        b = generate("dft_pair", {"d": 5}, 0)
        space = admissible_space(b)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a.shape) or svd(a, **kw))
        report = min_sparsity_product(b, space)
        assert report.best_lhs == 5
        batched, witness = calls[:-1], calls[-1]
        assert batched and all(len(shape) == 3 and shape[1] >= shape[2] for shape in batched)
        assert witness == (4, 5)  # the winner's null vector, from null_space_basis
        assert report_fields(report) == report_fields(reference_search(b, space))

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


@st.composite
def small_bisystems(draw):
    """Seeded subspace_union or perturbed bisystems with n + m <= 12."""
    seed = draw(st.integers(0, 2**31 - 1))
    if draw(st.booleans()):
        d = draw(st.integers(1, 10))
        split = draw(st.integers(1, min(d, 12 - d)))
        return generate("subspace_union", {"d": d, "split": split}, seed)
    family = draw(st.sampled_from(["identity_pair", "dft_pair", "rotated_pair", "subspace_union"]))
    d = draw(st.integers(2, 6))
    params = {"d": d}
    if family == "rotated_pair":
        params["angle"] = draw(st.floats(1.0, 89.0))
    if family == "subspace_union":
        params["split"] = draw(st.integers(1, d))
    base = {"family": family, "params": params, "seed": seed}
    return generate("perturbed", {"base": base, "magnitude": draw(st.floats(0.0, 0.9))}, seed)


@settings(max_examples=40, deadline=None)
@given(small_bisystems())
def test_batched_search_matches_reference_property(b):
    space = admissible_space(b)
    want = reference_search(b, space)
    assert report_fields(min_sparsity_product(b, space)) == report_fields(want)


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
