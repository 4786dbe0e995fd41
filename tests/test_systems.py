import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebounds import (
    BiSystem,
    CoherenceProfile,
    PairedSystem,
    admissible_space,
    analysis,
    coherence_profile,
    exhaustive_verify,
    from_hilbert_vectors,
    generate,
    identity_system,
    sample_admissible,
    synthesis,
    validate_pairing,
    verify_fkdb,
    verify_fskpb,
)
from sparsebounds import admissible
from sparsebounds.dft import dft_matrix
from sparsebounds.errors import HypothesisError, StructuralError
from sparsebounds.systems import _matmul


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

    def test_each_call_compares_against_its_own_eta_hyp(self):
        mb = mercedes_benz()
        s = PairedSystem(mb, mb.T)
        strict, loose = validate_pairing(s), validate_pairing(s, 0.5)
        assert not strict.ok and loose.ok
        diag = np.abs(np.einsum("jd,dj->j", s.functionals, s.vectors))
        assert strict.diagonals.tobytes() == loose.diagonals.tobytes() == diag.tobytes()

    def test_diagonals_computed_once_per_system(self, monkeypatch):
        calls = []
        einsum = np.einsum

        def spy(subscripts, *operands, **kwargs):
            calls.append(subscripts)
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", spy)
        b = generate("dft_pair", {"d": 4}, 0)
        space = admissible_space(b)
        x = sample_admissible(space, 0)
        verify_fkdb(b, x)
        verify_fskpb(b, x, {0}, {0})
        exhaustive_verify(b, space, 3)
        validate_pairing(b.first, 0.5)
        assert calls == ["jd,dj->j", "jd,dj->j"]


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


# Operand kinds of the product rule: real dtype, complex dtype with every
# imaginary part zero (of either sign), and complex with a nonzero imaginary
# part among imaginary parts that are partly zero.
KINDS = ("real", "real-valued", "complex")


def operand(rng, shape, kind):
    real = rng.standard_normal(shape)
    if kind == "real":
        return real
    out = np.empty(shape, complex)
    out.real = real
    if kind == "real-valued":
        out.imag = np.copysign(0.0, rng.standard_normal(shape))
    else:
        out.imag = rng.standard_normal(shape) * (rng.random(shape) < 0.5)
        out.imag[0, 0] = 1.0
    return out


class TestProductRule:
    """systems._matmul: a @ b, with real-valued operands multiplied as real
    matrices."""

    @settings(deadline=None)
    @given(shape=st.tuples(*[st.integers(min_value=1, max_value=40)] * 3),
           kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_matches_matmul_within_rounding(self, shape, kinds, seed):
        rng = np.random.default_rng(seed)
        m, k, n = shape
        a, b = operand(rng, (m, k), kinds[0]), operand(rng, (k, n), kinds[1])
        got, want = _matmul(a, b), a @ b
        assert got.dtype == want.dtype and got.shape == want.shape
        bound = 4 * k * np.finfo(float).eps * np.linalg.norm(a) * np.linalg.norm(b)
        assert np.abs(got - want).max() <= bound

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 5, 2), (17, 20, 19), (64, 64, 64),
                                       (130, 97, 33)])
    def test_complex_and_real_dtype_pairs_keep_bits(self, kind, shape):
        rng = np.random.default_rng(sum(shape))
        m, k, n = shape
        a, b = operand(rng, (m, k), kind), operand(rng, (k, n), kind)
        got, want = _matmul(a, b), a @ b
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("diagonal_kind", ["real", "real-valued"])
    def test_identity_and_diagonal_operands_exact(self, kind, diagonal_kind):
        rng = np.random.default_rng(3)
        d = 37
        x = operand(rng, (d, d), kind)
        for diag in (np.ones(d), rng.standard_normal(d)):
            diagonal = np.diag(diag).astype(float if diagonal_kind == "real" else complex)
            np.testing.assert_array_equal(_matmul(diagonal, x), diag[:, None] * x)
            np.testing.assert_array_equal(_matmul(x, diagonal), x * diag[None, :])

    @pytest.mark.parametrize("d", [4, 64, 256, 512])
    def test_dft_pair_keeps_plain_matmul_bits(self, monkeypatch, d):
        """Every real-valued operand of dft_pair's mixed products is I, so
        each sum has one nonzero term and the profile and admissible stack
        equal the plain-@ expressions bit for bit."""
        b = generate("dft_pair", {"d": d})
        first, second = b.first, b.second

        def sub(s):
            g = np.abs(s.functionals @ s.vectors)
            np.fill_diagonal(g, 0.0)
            return float(g.max())

        def cross(f, w):
            return float(np.abs(f.functionals @ w.vectors).max())

        assert coherence_profile(b) == CoherenceProfile(
            sub(first), sub(second), cross(first, second), cross(second, first))
        eye = np.eye(d, dtype=complex)
        stacked = np.vstack([eye - first.vectors @ first.functionals,
                             eye - second.vectors @ second.functionals])
        stacks = []
        null_space_basis = admissible.null_space_basis

        def spy(a, tol_rank):
            stacks.append(a)
            return null_space_basis(a, tol_rank)

        monkeypatch.setattr(admissible, "null_space_basis", spy)
        basis = admissible_space(b).basis
        assert stacks[0].dtype == stacked.dtype and stacks[0].tobytes() == stacked.tobytes()
        assert basis.tobytes() == null_space_basis(stacked).tobytes()
