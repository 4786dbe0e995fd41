import tracemalloc

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
    min_sparsity_product,
    sample_admissible,
    validate_pairing,
    verify_fkdb,
    verify_fskpb,
)
from sparsebounds import admissible, systems
from sparsebounds.dft import dft_matrix
from sparsebounds.errors import HypothesisError, StructuralError
from sparsebounds.systems import _matmul
from referees import mercedes_benz, rotation


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

    @pytest.mark.parametrize("field_tag", ["quaternion", None])
    def test_identity_system_refuses_unknown_field_tag(self, field_tag):
        with pytest.raises(StructuralError, match="unknown field tag"):
            identity_system(3, field_tag)

    @pytest.mark.parametrize("field_tag", [[], {}, ["real"], 1, b"real"],
                             ids=["list", "dict", "tag-in-list", "int", "bytes"])
    def test_non_tag_field_refused(self, field_tag):
        # An unhashable value is refused as unknown, not by a TypeError.
        with pytest.raises(StructuralError, match="unknown field tag"):
            PairedSystem(np.eye(2), np.eye(2), field_tag)
        with pytest.raises(StructuralError, match="unknown field tag"):
            identity_system(2, field_tag)

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
        np.testing.assert_array_equal(analysis(s, np.array([1.0 + 0j, 0.0])), analysis(s, [1.0, 0.0]))


# One instance of each family; perturbed over every base, at magnitude 0,
# and over itself.
FAMILY_CASES = [
    ("identity_pair", {"d": 5}),
    ("dft_pair", {"d": 6}),
    ("rotated_pair", {"d": 4, "angle": 30.0}),
    ("subspace_union", {"d": 6, "split": 2}),
    ("perturbed", {"base": {"family": "dft_pair", "params": {"d": 6}}, "magnitude": 0.2}),
    ("perturbed", {"base": {"family": "subspace_union", "params": {"d": 6, "split": 2}},
                   "magnitude": 0.2}),
    # S^-1 = I: the functionals are a scaling of diag(c)^-1 F, in its layout.
    ("perturbed", {"base": {"family": "dft_pair", "params": {"d": 6}}, "magnitude": 0.0}),
    ("perturbed", {"base": {"family": "identity_pair", "params": {"d": 6}}, "magnitude": 0.2}),
    ("perturbed", {"base": {"family": "rotated_pair", "params": {"d": 6}}, "magnitude": 0.2}),
    ("perturbed", {"base": {"family": "perturbed", "params": {
        "base": {"family": "dft_pair", "params": {"d": 6}}, "magnitude": 0.2}},
        "magnitude": 0.2}),
]


def matrices(bisystem):
    return [m for s in (bisystem.first, bisystem.second) for m in (s.vectors, s.functionals)]


class TestOwnership:
    """A system's arrays are its own, read-only and C-ordered: copies of the
    arrays a caller gives, or the fresh arrays a library constructor made
    for it, adopted without a copy.  Either way no two matrices share
    memory."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_public_constructors_never_alias_caller_arrays(self, dtype):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((4, 3)).astype(dtype)
        f = rng.standard_normal((3, 4)).astype(dtype)
        q = np.asarray(np.linalg.qr(rng.standard_normal((4, 4)))[0], dtype=dtype)
        field_tag = "complex" if dtype is complex else "real"
        paired, hilbert = PairedSystem(v, f, field_tag), from_hilbert_vectors(q)
        # A transposed view of q: from_hilbert_vectors copies it C-ordered too.
        hilbert_t = from_hilbert_vectors(q.T)
        before = [m.copy() for m in (paired.vectors, paired.functionals, hilbert.vectors,
                                     hilbert.functionals, hilbert_t.vectors, hilbert_t.functionals)]
        for caller in (v, f, q):
            assert caller.flags.writeable
            caller[:] = 7.0
        after = (paired.vectors, paired.functionals, hilbert.vectors, hilbert.functionals,
                 hilbert_t.vectors, hilbert_t.functionals)
        for b, a in zip(before, after):
            assert a.tobytes() == b.tobytes()
            assert not any(np.shares_memory(a, caller) for caller in (v, f, q))
        np.testing.assert_array_equal(hilbert.functionals, before[2].conj().T)

    @pytest.mark.parametrize("family,params", FAMILY_CASES,
                             ids=[f"{f}-{i}" for i, (f, _) in enumerate(FAMILY_CASES)])
    def test_library_arrays_read_only_c_ordered_and_unshared(self, family, params):
        b = generate(family, params, seed=3)
        ms = matrices(b)
        for m in ms:
            assert not m.flags.writeable and m.flags.c_contiguous
        for i, m in enumerate(ms):
            for other in ms[i + 1:]:
                assert not np.shares_memory(m, other)

    @pytest.mark.parametrize("field_tag", ["real", "complex"])
    def test_identity_system_holds_two_arrays(self, field_tag):
        s = identity_system(4, field_tag)
        assert not np.shares_memory(s.vectors, s.functionals)
        for m in (s.vectors, s.functionals):
            assert not m.flags.writeable and m.flags.c_contiguous
            assert m.tobytes() == np.eye(4, dtype=m.dtype).tobytes()

    @pytest.mark.parametrize("base_family,params", [
        ("dft_pair", {"d": 6}), ("subspace_union", {"d": 6, "split": 2}),
        ("identity_pair", {"d": 6}), ("rotated_pair", {"d": 6})])
    def test_perturbed_shares_no_memory_with_its_base(self, base_family, params):
        base = generate(base_family, params, seed=1)
        before = [m.tobytes() for m in matrices(base)]
        perturbed = admissible._perturb(base, 0.2, 4)
        for m in matrices(perturbed):
            assert not m.flags.writeable and m.flags.c_contiguous
            assert not any(np.shares_memory(m, x) for x in matrices(base))
        assert [m.tobytes() for m in matrices(base)] == before


def array_record(kind):
    """A fresh instance of one array-holding record type, made from its own
    dft_pair d=2."""
    b = generate("dft_pair", {"d": 2}, 0)
    if kind == "PairedSystem":
        return b.first
    if kind == "BiSystem":
        return b
    if kind == "ValidationReport":
        return validate_pairing(b.first)
    space = admissible_space(b)
    return space if kind == "AdmissibleSpace" else min_sparsity_product(b, space)


@pytest.mark.parametrize("kind", ["PairedSystem", "BiSystem", "AdmissibleSpace",
                                  "ValidationReport", "TightnessReport"])
def test_array_records_compare_and_hash_by_identity(kind):
    # A generated __eq__ would compare two records' arrays as a tuple and
    # raise "truth value of an array ... is ambiguous".  Each record equals
    # itself only, not an equal-valued one made apart, and is hashable.
    one, other = array_record(kind), array_record(kind)
    assert type(one).__name__ == kind
    assert one == one and not one != one
    assert one != other and not one == other
    assert hash(one) == hash(one) != hash(other)
    assert {one: 1, other: 2}[other] == 2


def traced_peak(call) -> int:
    """The tracemalloc peak of call(), counted from zero."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d", [256, 512])
def test_cast_matrix_copied_once(d):
    # identity_system(d, "complex") makes the two complex matrices it keeps
    # (16 d^2 bytes each) in the field's dtype: no float eye, no cast copy.
    # The slack is the finiteness check's boolean mask (d^2) and 64 KiB; a
    # float eye adds 8 d^2, a copy of either matrix 16 d^2.
    identity_system(2, "complex")
    assert traced_peak(lambda: identity_system(d, "complex")) <= 2 * 16 * d * d + d * d + 2**16


@pytest.mark.parametrize("d", [256, 512])
def test_hilbert_matrices_made_once(d):
    # from_hilbert_vectors of a complex T keeps one copy of T and one of its
    # conjugate transpose (16 d^2 bytes each), and makes no third array of
    # that size.  Slack as above: the finiteness mask (d^2) and 64 KiB.
    t = dft_matrix(d)
    from_hilbert_vectors(dft_matrix(2))
    assert traced_peak(lambda: from_hilbert_vectors(t)) <= 2 * 16 * d * d + d * d + 2**16


@pytest.mark.parametrize("d", [1, 2, 512])
@pytest.mark.parametrize("field_tag", ["real", "complex"])
def test_known_identity_forms_are_the_decided_forms(d, field_tag):
    """The form an identity carries from its constructor is, field for field
    and byte for byte, the one _form decides: both matrices of an identity
    system, and the rank-0 admissible basis."""
    s = identity_system(d, field_tag)
    space = admissible_space(BiSystem(s, identity_system(d, field_tag)))
    known = [s._vectors_form, s._functionals_form, space._form]
    assert all(form.matrix is m for form, m in zip(known, (s.vectors, s.functionals, space.basis)))
    for form in known:
        decided = systems._form(form.matrix)
        for name in ("matrix", "real", "diagonal"):
            got, want = getattr(form, name), getattr(decided, name)
            assert (got.dtype, got.shape, got.strides, got.flags.writeable, got.tobytes()) \
                == (want.dtype, want.shape, want.strides, want.flags.writeable, want.tobytes())


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

    def test_overflowed_pairing_fails(self):
        # f_0(tau_0) = 1e400 overflows to inf, which is no pairing >= 1.  x =
        # e_2 is a fixed point of both systems (residuals 0), so the pairing
        # alone fails its certificate's hypothesis.
        s = PairedSystem(np.diag([1e200, 1.0]), np.diag([1e200, 1.0]))
        report = validate_pairing(s)
        assert report.diagonals.tolist() == [np.inf, 1.0]
        assert report.per_index_ok.tolist() == [False, True] and not report.ok
        b = BiSystem(s, identity_system(2))
        for cert in (verify_fkdb(b, [0.0, 1.0]), verify_fskpb(b, [0.0, 1.0], {1}, {1})):
            assert cert.fixedpoint_residual_f == cert.fixedpoint_residual_g == 0.0
            assert not cert.hypothesis_ok and not cert.satisfied

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

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            analysis(identity_system(3), [1.0, 2.0])


finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


@settings(deadline=None, max_examples=50)
@given(
    data=st.lists(finite, min_size=6, max_size=6),
    alpha=finite,
    beta=finite,
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_linearity(data, alpha, beta, seed):
    rng = np.random.default_rng(seed)
    system = PairedSystem(rng.standard_normal((3, 4)), rng.standard_normal((4, 3)))
    x = np.array(data[:3])
    y = np.array(data[3:6])
    scale = max(1.0, (abs(alpha) + abs(beta)) * max(map(abs, data)))
    np.testing.assert_allclose(
        analysis(system, alpha * x + beta * y),
        alpha * analysis(system, x) + beta * analysis(system, y),
        atol=1e-12 * scale,
    )


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_composition_matches_matrix_product(seed):
    rng = np.random.default_rng(seed)
    system = PairedSystem(rng.standard_normal((4, 6)), rng.standard_normal((6, 4)))
    x = rng.standard_normal(4)
    composed = system.vectors @ analysis(system, x)
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

    @pytest.mark.parametrize("kinds", [("complex", "real"), ("complex", "real-valued"),
                                       ("real", "complex"), ("real-valued", "complex")])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 5, 2), (17, 20, 19), (64, 64, 64),
                                       (130, 97, 33)])
    def test_mixed_products_c_ordered(self, kinds, shape):
        """Complex times real-valued, and the reverse, is returned C-ordered,
        with the values of a @ b."""
        rng = np.random.default_rng(sum(shape))
        m, k, n = shape
        a, b = operand(rng, (m, k), kinds[0]), operand(rng, (k, n), kinds[1])
        got, want = _matmul(a, b), a @ b
        assert got.flags.c_contiguous
        assert got.dtype == want.dtype and got.shape == want.shape
        bound = 4 * k * np.finfo(float).eps * np.linalg.norm(a) * np.linalg.norm(b)
        assert np.abs(got - want).max() <= bound

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
    def test_dft_pair_keeps_plain_matmul_bits(self, d):
        """Every real-valued operand of dft_pair's mixed products is I, so
        each sum has one nonzero term and the profile and the halves of the
        admissible stack, formed in place in their products, equal the
        plain-@ expressions bit for bit."""
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
        halves = np.vstack(admissible._halves(b))
        assert halves.dtype == stacked.dtype and halves.tobytes() == stacked.tobytes()
        basis = admissible_space(b).basis
        assert basis.tobytes() == admissible.null_space_basis(stacked).tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("diagonal_kind", ["real", "real-valued"])
    @pytest.mark.parametrize("entries", ["identity", "scaled", "zeros", "subnormal", "underflow"])
    @pytest.mark.parametrize("d", [1, 37])
    def test_real_diagonal_scales_with_blas_bytes(self, monkeypatch, kind, diagonal_kind, entries, d):
        """A real-valued diagonal on either side is a scaling, with the bytes
        of a @ b in every nonzero entry, subnormal ones included, and +0.0
        in every zero entry.

        BLAS leaves a zero entry the sign its kernel's order of summation
        gives: with FMA, a one term that underflows to -0.0 keeps its sign
        when every later term is -0.0 too, and its complex kernels sign some
        exact zeros likewise.  So only the zeros are compared by value.
        """
        rng = np.random.default_rng(d)
        c, x_scale = {
            "identity": (np.ones(d), 1.0),
            "scaled": (rng.standard_normal(d), 1.0),
            "zeros": (np.where(rng.random(d) < 0.5, np.copysign(0.0, rng.standard_normal(d)),
                               rng.standard_normal(d)), 1.0),
            # Products of about 1e-310, below the smallest normal number.
            "subnormal": (1e-160 * rng.standard_normal(d), 1e-150),
            # Products of about 1e-400, rounded to zeros of either sign.
            "underflow": (1e-200 * rng.standard_normal(d), 1e-200),
        }[entries]
        if entries == "zeros":
            c[0] = -0.0
        # diag(c), with zeros of either sign off the diagonal and, for the
        # real-valued kind, as every imaginary part.
        diagonal = np.copysign(0.0, rng.standard_normal((d, d)))
        np.fill_diagonal(diagonal, c)
        if diagonal_kind == "real-valued":
            diagonal = diagonal + 0j
            diagonal.imag = np.copysign(0.0, rng.standard_normal((d, d)))
        assert systems._form(diagonal).diagonal is not None

        def no_blas(*args):
            raise AssertionError("a diagonal operand reached BLAS")

        monkeypatch.setattr(systems, "_dense", no_blas)
        for a, b in ((diagonal, x_scale * operand(rng, (d, 5), kind)),
                     (x_scale * operand(rng, (5, d), kind), diagonal)):
            got, want = _matmul(a, b), a @ b
            assert got.dtype == want.dtype and got.shape == want.shape
            got, want = got.view(float), want.view(float)
            nonzero = want != 0
            assert got[nonzero].tobytes() == want[nonzero].tobytes()
            assert got[~nonzero].tobytes() == bytes(got[~nonzero].nbytes)
            tiny = np.abs(want)
            if entries == "subnormal":
                assert ((tiny > 0) & (tiny < np.finfo(float).tiny)).any()
            if entries == "underflow":
                assert not tiny.any()

    @pytest.mark.parametrize("d", [1, 6])
    def test_complex_diagonal_takes_plain_matmul(self, monkeypatch, d):
        """A diagonal with a nonzero imaginary part is no scaling: complex @
        complex stays a @ b, bit for bit."""
        rng = np.random.default_rng(d)
        diagonal = np.diag(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        x = operand(rng, (d, d), "complex")
        assert systems._form(diagonal).diagonal is None
        dense = []
        real_dense = systems._dense
        monkeypatch.setattr(systems, "_dense", lambda *args: dense.append(args) or real_dense(*args))
        for a, b in ((diagonal, x), (x, diagonal)):
            got, want = _matmul(a, b), a @ b
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert len(dense) == 2

    def test_dft_pair_forms_decided_once_per_matrix(self, monkeypatch):
        """On dft_pair only the DFT system's W G and G W reach BLAS, and no
        matrix is classified twice in the whole certificate pipeline: the
        DFT system's two matrices once each, the identity system's and the
        rank-0 basis's never, since the library built those identities
        and knows their forms."""
        d = 64
        dense, classified = [], []
        real_dense, real_form = systems._dense, systems._form

        def spy_dense(a, b, dtype):
            dense.append((a.matrix, b.matrix))
            return real_dense(a, b, dtype)

        def spy_form(m):
            classified.append(m)
            return real_form(m)

        monkeypatch.setattr(systems, "_dense", spy_dense)
        monkeypatch.setattr(systems, "_form", spy_form)
        b = generate("dft_pair", {"d": d})
        space = admissible_space(b)
        coherence_profile(b)
        w, g = b.second.vectors, b.second.functionals
        assert [(x is w, y is g) for x, y in dense] == [(True, True), (False, False)]
        assert dense[1][0] is g and dense[1][1] is w
        verify_fkdb(b, sample_admissible(space, 1))
        exhaustive_verify(b, space, 3)
        matrices = [b.first.vectors, b.first.functionals, w, g]
        assert [sum(m is x for x in classified) for m in matrices] == [0, 0, 1, 1]
        assert len(classified) == 2
        known = (b.first._vectors_form, b.first._functionals_form, space._form)
        assert all(form.diagonal is not None for form in known)

    def test_form_decided_by_every_entry(self):
        """The last row only rules forms out: a nonzero imaginary part or
        off-diagonal entry anywhere else still counts."""
        complex_first_row = np.eye(4, dtype=complex)
        complex_first_row[0, 3] = 1e-300j
        off_diagonal_first_row = np.eye(4, dtype=complex)
        off_diagonal_first_row[0, 1] = 5e-324
        forms = [systems._form(m) for m in (complex_first_row, off_diagonal_first_row,
                                            np.eye(4, dtype=complex))]
        assert [f.real is None for f in forms] == [True, False, False]
        assert [f.diagonal is None for f in forms] == [True, True, False]
        assert forms[2].diagonal.tobytes() == np.ones(4).tobytes()
