import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebounds import (
    BiSystem,
    PairedSystem,
    analysis,
    from_hilbert_vectors,
    identity_system,
    synthesis,
    validate_pairing,
    verify_fkdb,
)
from sparsebounds.dft import dft_matrix
from sparsebounds.errors import HypothesisError, StructuralError


def rotation(angle_deg):
    t = np.deg2rad(angle_deg)
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def mercedes_benz():
    """Parseval frame of three vectors of norm sqrt(2/3) in R^2."""
    angles = np.deg2rad([90.0, 210.0, 330.0])
    return np.sqrt(2.0 / 3.0) * np.vstack([np.cos(angles), np.sin(angles)])


class TestConstruction:
    def test_shape_mismatch(self):
        with pytest.raises(StructuralError):
            PairedSystem(np.eye(3), np.eye(2))

    def test_nonfinite_rejected(self):
        bad = np.eye(2)
        bad[0, 0] = np.nan
        with pytest.raises(StructuralError):
            PairedSystem(bad, np.eye(2))

    @pytest.mark.parametrize("vectors,functionals,field_tag,match", [
        (np.ones(2), np.ones(2), "real", "must be a 2-d matrix"),
        (np.eye(2), np.eye(2), "quaternion", "unknown field tag"),
        (np.zeros((2, 0)), np.zeros((0, 2)), "real", "dimensions must be positive"),
    ], ids=["one-d-array", "unknown-field-tag", "n-zero"])
    def test_malformed_system_refused(self, vectors, functionals, field_tag, match):
        with pytest.raises(StructuralError, match=match):
            PairedSystem(vectors, functionals, field_tag)

    def test_bisystem_field_is_complex_when_either_system_is(self):
        real, cplx = identity_system(2), identity_system(2, "complex")
        fields = [BiSystem(a, b).field for a, b in ((real, real), (real, cplx), (cplx, real),
                                                    (cplx, cplx))]
        assert fields == ["real", "complex", "complex", "complex"]

    def test_bisystem_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            BiSystem(identity_system(2), identity_system(3))

    def test_immutable(self):
        s = identity_system(2)
        with pytest.raises(ValueError):
            s.vectors[0, 0] = 5.0

    def test_system_owns_its_arrays(self):
        a = np.eye(3)
        base = np.zeros((4, 3))
        base[:3] = np.eye(3)
        view = base[:3]
        s = PairedSystem(a, view)
        assert a.flags.writeable and view.flags.writeable and base.flags.writeable
        b = BiSystem(s, identity_system(3))
        x = np.array([1.0, 0.0, 0.0])
        before = verify_fkdb(b, x).as_dict()
        a[:] = 2.0
        base[:] = 5.0
        np.testing.assert_array_equal(s.vectors, np.eye(3))
        np.testing.assert_array_equal(s.functionals, np.eye(3))
        assert verify_fkdb(b, x).as_dict() == before
        assert verify_fkdb(BiSystem(PairedSystem(a, view), identity_system(3)), x).as_dict() != before

    def test_complex_entries_in_real_field_rejected(self):
        f = dft_matrix(4)
        with pytest.raises(StructuralError, match="field is real"):
            PairedSystem(f, f.conj().T)

    def test_zero_imaginary_part_accepted_in_real_field(self):
        s = PairedSystem(np.eye(2) + 0j, np.eye(2))
        assert s.vectors.dtype == np.float64
        np.testing.assert_array_equal(s.vectors, np.eye(2))

    def test_complex_signal_on_real_system_rejected(self):
        s = from_hilbert_vectors(rotation(30.0))
        with pytest.raises(StructuralError, match="field is real"):
            analysis(s, np.array([1.0, 1j]))
        with pytest.raises(StructuralError, match="field is real"):
            synthesis(s, np.array([1j, 0.0]))
        np.testing.assert_array_equal(analysis(s, np.array([1.0 + 0j, 0.0])), analysis(s, [1.0, 0.0]))


class TestValidatePairing:
    def test_identity_passes(self):
        report = validate_pairing(identity_system(3))
        assert report.ok
        np.testing.assert_allclose(report.diagonals, 1.0)

    def test_mercedes_benz_fails(self):
        mb = mercedes_benz()
        report = validate_pairing(PairedSystem(mb, mb.T))
        assert not report.ok
        np.testing.assert_allclose(report.diagonals, 2.0 / 3.0, atol=1e-12)

    def test_scaled_mercedes_benz_passes(self):
        mb = mercedes_benz()
        report = validate_pairing(PairedSystem(mb, 1.5 * mb.T))
        assert report.ok
        np.testing.assert_allclose(report.diagonals, 1.0, atol=1e-12)


class TestFromHilbertVectors:
    def test_standard_basis(self):
        s = from_hilbert_vectors(np.eye(3))
        np.testing.assert_array_equal(s.functionals, np.eye(3))

    def test_rotated_basis(self):
        r = rotation(45.0)
        s = from_hilbert_vectors(r)
        np.testing.assert_allclose(s.functionals, r.T, atol=1e-15)
        np.testing.assert_allclose(
            np.diag(s.functionals @ s.vectors), [1.0, 1.0], atol=1e-12
        )
        assert validate_pairing(s).ok

    def test_non_unit_column_named(self):
        t = np.eye(3)
        t[:, 1] *= 0.5
        with pytest.raises(HypothesisError, match="column 1"):
            from_hilbert_vectors(t)

    def test_complex_conjugation(self):
        t = np.array([[1j], [0.0]])
        s = from_hilbert_vectors(t)
        assert s.functionals[0, 0] == -1j
        assert validate_pairing(s).ok


class TestOperators:
    def test_analysis_identity(self):
        np.testing.assert_array_equal(
            analysis(identity_system(3), [2.0, 0.0, 1.0]), [2.0, 0.0, 1.0]
        )

    def test_analysis_scaled(self):
        s = PairedSystem(np.eye(2), 3.0 * np.eye(2))
        np.testing.assert_array_equal(analysis(s, [1.0, 1.0]), [3.0, 3.0])

    def test_analysis_rotation(self):
        s = from_hilbert_vectors(rotation(45.0))
        np.testing.assert_allclose(
            analysis(s, [1.0, 0.0]), [np.sqrt(2) / 2, -np.sqrt(2) / 2], atol=1e-15
        )

    def test_synthesis_identity(self):
        np.testing.assert_array_equal(
            synthesis(identity_system(3), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]
        )

    def test_synthesis_zero(self):
        np.testing.assert_array_equal(
            synthesis(identity_system(3), np.zeros(3)), np.zeros(3)
        )

    def test_synthesis_superposition(self):
        vectors = np.array([[1.0, 1.0], [0.0, 0.0]])
        s = PairedSystem(vectors, vectors.T)
        np.testing.assert_array_equal(synthesis(s, [1.0, 1.0]), [2.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            analysis(identity_system(3), [1.0, 2.0])
        with pytest.raises(StructuralError):
            synthesis(identity_system(3), [1.0, 2.0])


finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


@settings(deadline=None, max_examples=50)
@given(
    data=st.lists(finite, min_size=12, max_size=12),
    alpha=finite,
    beta=finite,
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_linearity(data, alpha, beta, seed):
    rng = np.random.default_rng(seed)
    system = PairedSystem(rng.standard_normal((3, 4)), rng.standard_normal((4, 3)))
    x = np.array(data[:3])
    y = np.array(data[3:6])
    a = np.array(data[6:10])
    b = np.array(data[8:12])
    scale = max(1.0, (abs(alpha) + abs(beta)) * max(map(abs, data)))
    np.testing.assert_allclose(
        analysis(system, alpha * x + beta * y),
        alpha * analysis(system, x) + beta * analysis(system, y),
        atol=1e-12 * scale,
    )
    np.testing.assert_allclose(
        synthesis(system, alpha * a + beta * b),
        alpha * synthesis(system, a) + beta * synthesis(system, b),
        atol=1e-12 * scale,
    )


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_composition_matches_matrix_product(seed):
    rng = np.random.default_rng(seed)
    system = PairedSystem(rng.standard_normal((4, 6)), rng.standard_normal((6, 4)))
    x = rng.standard_normal(4)
    composed = synthesis(system, analysis(system, x))
    direct = (system.vectors @ system.functionals) @ x
    np.testing.assert_allclose(composed, direct, rtol=1e-12, atol=1e-12)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_hilbert_specialization_always_passes(seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    assert validate_pairing(from_hilbert_vectors(q)).ok
