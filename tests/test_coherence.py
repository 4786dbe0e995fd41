import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebounds import (
    BiSystem,
    PairedSystem,
    admissible_space,
    coherence_profile,
    cross_coherence,
    exhaustive_verify,
    from_hilbert_vectors,
    generate,
    gram,
    identity_system,
    sample_admissible,
    sub_coherence,
    verify_fkdb,
    verify_fskpb,
)
from sparsebounds import coherence
from sparsebounds.dft import dft_matrix
from sparsebounds.errors import StructuralError
from referees import (
    corpus_bisystem,
    permuted,
    pipeline_corpus,
    reference_profile,
    rotation,
)


class TestGram:
    def test_identity(self):
        np.testing.assert_array_equal(gram(identity_system(3)), np.eye(3))

    def test_orthonormal_basis(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
        np.testing.assert_allclose(gram(from_hilbert_vectors(q)), np.eye(4), atol=1e-12)

    def test_two_vector_pair(self):
        c = np.sqrt(2) / 2
        vectors = np.array([[1.0, c], [0.0, c]])
        g = gram(PairedSystem(vectors, vectors.T))
        np.testing.assert_allclose(g[0, 1], c, atol=1e-15)
        np.testing.assert_allclose(g[1, 0], c, atol=1e-15)


class TestSubCoherence:
    def test_orthonormal_is_zero(self):
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((5, 5)))
        assert sub_coherence(from_hilbert_vectors(q)) <= 1e-14

    def test_singleton_is_zero(self):
        s = PairedSystem(np.array([[1.0], [0.0]]), np.array([[1.0, 0.0]]))
        assert sub_coherence(s) == 0.0

    def test_45_degree_pair(self):
        c = np.sqrt(2) / 2
        vectors = np.array([[1.0, c], [0.0, c]])
        assert sub_coherence(PairedSystem(vectors, vectors.T)) == pytest.approx(c)


class TestCrossCoherence:
    def test_identity_vs_identity(self):
        assert cross_coherence(identity_system(3), identity_system(3)) == 1.0

    def test_identity_vs_dft(self):
        eye = identity_system(4, "complex")
        f = from_hilbert_vectors(dft_matrix(4))
        assert cross_coherence(eye, f) == pytest.approx(0.5, abs=1e-14)

    def test_identity_vs_zero_vectors(self):
        zero = PairedSystem(np.zeros((3, 2)), np.zeros((2, 3)))
        assert cross_coherence(identity_system(3), zero) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            cross_coherence(identity_system(2), identity_system(3))

    def test_overflowed_pairings_refused(self):
        # f_0(tau_1) = 1e400 + 1e200 overflows: each profile entry that
        # holds it is refused where it is made, with no numpy warning.
        big = PairedSystem([[1e200, 1e200], [0, 1]], [[1e200, 1e200], [0, 1]])
        with pytest.raises(StructuralError, match="sub-coherence is not finite"):
            sub_coherence(big)
        with pytest.raises(StructuralError, match="cross-coherence is not finite"):
            cross_coherence(big, big)
        with pytest.raises(StructuralError, match="not finite"):
            coherence_profile(BiSystem(big, identity_system(2)))


class TestProfile:
    def test_identity_pair(self):
        p = coherence_profile(BiSystem(identity_system(3), identity_system(3)))
        assert (p.sub_coherence_f, p.sub_coherence_g) == (0.0, 0.0)
        assert (p.cross_f_omega, p.cross_g_tau) == (1.0, 1.0)

    def test_identity_vs_dft(self):
        b = BiSystem(identity_system(4, "complex"), from_hilbert_vectors(dft_matrix(4)))
        p = coherence_profile(b)
        assert p.sub_coherence_f <= 1e-14 and p.sub_coherence_g <= 1e-14
        assert p.cross_f_omega == pytest.approx(0.5, abs=1e-14)
        assert p.cross_g_tau == pytest.approx(0.5, abs=1e-14)

    def test_identity_vs_rotated(self):
        b = BiSystem(identity_system(2), from_hilbert_vectors(rotation(45.0)))
        p = coherence_profile(b)
        assert p.cross_f_omega == pytest.approx(np.sqrt(2) / 2)
        assert p.cross_g_tau == pytest.approx(np.sqrt(2) / 2)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(3)
        q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a, b = from_hilbert_vectors(q1), from_hilbert_vectors(q2)
        p = coherence_profile(BiSystem(a, b))
        q = coherence_profile(BiSystem(b, a))
        assert p.sub_coherence_f == q.sub_coherence_g
        assert p.sub_coherence_g == q.sub_coherence_f
        assert p.cross_f_omega == pytest.approx(q.cross_g_tau, abs=1e-15)
        assert p.cross_g_tau == pytest.approx(q.cross_f_omega, abs=1e-15)


def mixed_field(kind, d, real_first):
    """A dense real system against the complex DFT basis, in either order:
    the real system's products with the DFT system are real x complex and
    complex x real, each multiplied by _matmul as the real matrix it is."""
    if kind == "rotated":
        real = generate("rotated_pair", {"d": d, "angle": 30.0}, 7).second
    else:
        q, _ = np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))
        real = from_hilbert_vectors(q)
    dft = from_hilbert_vectors(dft_matrix(d))
    return BiSystem(real, dft) if real_first else BiSystem(dft, real)


@pytest.mark.parametrize("family,params", [
    pytest.param(family, params, id=label) for label, family, params in pipeline_corpus()] + [
    pytest.param("mixed", (kind, d, real_first),
                 id=f"{kind}-real-{'first' if real_first else 'second'}-dft-d{d}")
    for kind in ("rotated", "orthogonal") for d in (2, 64, 255) for real_first in (True, False)])
def test_profile_matches_whole_array_referee(family, params):
    """Each maximum, taken from the product _matmul returns (its diagonal
    zeroed for a sub-coherence), and the unformed diagonal gram give the
    profile of the whole arrays, bit for bit."""
    b = mixed_field(*params) if family == "mixed" else corpus_bisystem(family, params)
    assert coherence_profile(b) == reference_profile(b)


class TestRowBlocks:
    """Maxima of non-finite, scaled, diagonal, single-index and non-square
    products, each taken from the whole product."""

    D = 200

    @staticmethod
    def overflowing(d, row, nan):
        """T = I, F = I plus entries that make the gram's entry (row, 7)
        inf, or inf - inf = NaN, and leave every other pairing finite,
        1e200 at most."""
        t, f = np.eye(d), np.eye(d)
        t[3, 7], f[row, 3] = 1e200, 1e200
        if nan:
            t[4, 7], f[row, 4] = -1e200, 1e200
        return PairedSystem(t, f)

    @pytest.mark.parametrize("row", [0, 150, 199])
    @pytest.mark.parametrize("nan", [False, True])
    def test_non_finite_entry_in_one_block_is_refused(self, row, nan):
        """An inf or NaN entry at the first, a middle or the last row is the
        maximum: ndarray.max propagates NaN, where Python's max(0.0, nan)
        would lose it."""
        system = self.overflowing(self.D, row, nan)
        with pytest.raises(StructuralError, match="^sub-coherence is not finite"):
            sub_coherence(system)
        with pytest.raises(StructuralError, match="^cross-coherence is not finite"):
            cross_coherence(system, system)

    @pytest.mark.parametrize("row", [0, 150, 199])
    def test_non_finite_scaled_row_is_refused(self, row):
        # diag(c) @ T with c_row T[row, 7] = 1e400: an inf in one scaled row.
        c = np.ones(self.D)
        c[row] = 1e200
        t = np.eye(self.D)
        t[row, 7] = 1e200
        scaled = PairedSystem(np.eye(self.D), np.diag(c))
        with pytest.raises(StructuralError, match="^cross-coherence is not finite"):
            cross_coherence(scaled, PairedSystem(t, np.eye(self.D)))

    def test_diagonal_gram_is_zero_without_a_product(self, monkeypatch):
        calls = []
        monkeypatch.setattr(coherence, "_matmul", lambda *args: calls.append(args))
        c = np.linspace(1.0, 1e200, self.D)
        assert sub_coherence(PairedSystem(np.diag(c), np.diag(c))) == 0.0
        assert sub_coherence(identity_system(self.D, "complex")) == 0.0
        assert calls == []

    @pytest.mark.parametrize("d", [1, 4, 300])
    def test_single_index_systems(self, d):
        # n = 1: a 1 x 1 gram, whose only entry is on the diagonal, and
        # cross products of one row or one column.
        rng = np.random.default_rng(d)
        tau = rng.standard_normal((d, 1))
        one = PairedSystem(tau, tau.T / (tau.T @ tau))
        for b in (BiSystem(one, identity_system(d)), BiSystem(one, one),
                  BiSystem(identity_system(d, "complex"), one)):
            profile = coherence_profile(b)
            assert profile == reference_profile(b)
            assert profile.sub_coherence_f == 0.0

    @pytest.mark.parametrize("d,split", [(64, 20), (255, 85), (300, 7)])
    def test_non_square_blocks(self, d, split):
        # subspace_union's first system is d x split: a split x d and a
        # d x split cross product, each against the identity as a scaling.
        b = generate("subspace_union", {"d": d, "split": split}, 3)
        assert coherence_profile(b) == reference_profile(b)
        b = generate("perturbed", {"base": {"family": "subspace_union",
                                            "params": {"d": d, "split": split}}}, 3)
        assert coherence_profile(b) == reference_profile(b)


def test_profile_computed_once_per_bisystem(monkeypatch):
    calls = []

    def spy(f_system, w_system):
        calls.append(1)
        return cross_coherence(f_system, w_system)

    monkeypatch.setattr(coherence, "cross_coherence", spy)
    b = generate("dft_pair", {"d": 4}, 0)
    space = admissible_space(b)
    x = sample_admissible(space, 0)
    first = verify_fkdb(b, x)
    verify_fskpb(b, x, {0}, {0})
    exhaustive_verify(b, space, 3)
    assert len(calls) == 2
    again = generate("dft_pair", {"d": 4}, 0)
    assert verify_fkdb(again, x).as_dict() == first.as_dict()
    assert len(calls) == 4


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_hilbert_cross_coherence_symmetry(seed):
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    a, b = from_hilbert_vectors(q1), from_hilbert_vectors(q2)
    assert cross_coherence(a, b) == pytest.approx(cross_coherence(b, a), abs=1e-12)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_sub_coherence_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    system = PairedSystem(rng.standard_normal((3, 5)), rng.standard_normal((5, 3)))
    perm = rng.permutation(5)
    assert sub_coherence(permuted(system, perm)) == pytest.approx(sub_coherence(system), abs=1e-15)
