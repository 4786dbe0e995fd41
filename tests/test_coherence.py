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
from referees import permuted, rotation


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
