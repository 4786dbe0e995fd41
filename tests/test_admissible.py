import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparsebounds import (
    BiSystem,
    PairedSystem,
    admissible_space,
    from_hilbert_vectors,
    generate,
    identity_system,
    sample_admissible,
    validate_pairing,
)
from sparsebounds.admissible import (
    AdmissibleSpace,
    _below_cutoff,
    _halves,
    _rank,
    _samples,
    _spectral_norm,
    null_space_basis,
)
from sparsebounds.bounds import fixedpoint_residuals
from sparsebounds.coherence import coherence_profile, sub_coherence
from sparsebounds.dft import dft_matrix
from sparsebounds.errors import NoAdmissibleSignalError, ParameterError, StructuralError
from sparsebounds.systems import _apply, _matmul
from referees import corpus_bisystem, pipeline_corpus, reference_basis, reference_stream

TOL_FP = 1e-9


def plane_system(columns):
    """Orthonormal columns with adjoint functionals: TF is the projector."""
    return from_hilbert_vectors(np.asarray(columns, dtype=float))


class TestNullSpaceBasis:
    def test_cutoff_relative_to_largest_singular_value(self):
        # 1e-7 is below 1e-10 * 1e6, so it counts as zero.
        basis = null_space_basis(np.diag([1e6, 1e-7]))
        assert basis.shape == (2, 1)
        np.testing.assert_allclose(np.abs(basis[:, 0]), [0.0, 1.0])

    def test_cutoff_floored_at_one(self):
        # A matrix that is pure rounding noise has a full null space.
        assert null_space_basis(np.diag([1e-11, 1e-12])).shape == (2, 2)
        # Above the rank-0 test (Frobenius norm 2e-10 > 1e-10) the SVD runs,
        # and its cutoff 1e-10 * max(2e-10, 1) keeps only the larger value.
        basis = null_space_basis(np.diag([2e-10, 1e-11]))
        assert basis.shape == (2, 1)
        np.testing.assert_allclose(np.abs(basis[:, 0]), [0.0, 1.0])

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("shape", [(2, 2), (6, 3), (2, 5), (0, 3), (3, 0), (0, 0)])
    @pytest.mark.parametrize("tol_rank", [1e-10, 1e-2, 0.0])
    def test_under_cutoff_is_exact_identity(self, monkeypatch, dtype, shape, tol_rank):
        # ||a||_F <= tol_rank bounds every singular value by the cutoff, so
        # the basis is I, exactly, with no SVD; at tol_rank = 0 only the
        # zero matrix qualifies.
        a = np.random.default_rng(1).standard_normal(shape).astype(dtype)
        if dtype is complex:
            a *= 1j
        a *= 0.999 * tol_rank / max(np.linalg.norm(a), 1e-300)
        monkeypatch.setattr(np.linalg, "svd", None)
        basis = null_space_basis(a, tol_rank)
        assert basis.dtype == a.dtype
        assert np.array_equal(basis, np.eye(shape[1], dtype=dtype))

    @pytest.mark.parametrize("scale", [1e-200, 1e-320])
    def test_tiny_entries_are_not_zero_at_tol_rank_zero(self, scale):
        # Their squares underflow to 0 in a plain Frobenius norm.
        a = np.array([[scale, 0.0], [0.0, 0.0]])
        basis = null_space_basis(a, 0.0)
        assert basis.shape == (2, 1)
        np.testing.assert_allclose(np.abs(basis[:, 0]), [0.0, 1.0])

    def test_huge_entries_have_full_rank(self):
        # Their squares overflow to inf in a plain Frobenius norm.
        assert null_space_basis(1e200 * np.eye(3)).shape == (3, 0)


@st.composite
def straddling_matrices(draw):
    """(a, tol_rank): a seeded real or complex matrix of rank up to
    min(shape), rescaled so that ||a||_F is within a factor 2 of tol_rank,
    but not within 1e-6 of it, where rounding decides the rank."""
    rows, cols, rank = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, v = rng.standard_normal((rows, rank)), rng.standard_normal((rank, cols))
    if draw(st.booleans()):
        u = u + 1j * rng.standard_normal((rows, rank))
    a = u @ v
    tol_rank = draw(st.sampled_from([1e-12, 1e-10, 1e-6, 1e-2, 1.0, 4.0]))
    factor = draw(st.floats(0.5, 2.0).filter(lambda f: abs(f - 1.0) > 1e-6))
    return a * (factor * tol_rank / np.linalg.norm(a)), tol_rank


# Example count from the hypothesis profile (tests/conftest.py).
@given(straddling_matrices())
def test_null_space_dimension_matches_full_svd_rank(case):
    a, tol_rank = case
    rank = _rank(np.linalg.svd(a, compute_uv=False), tol_rank)
    basis = null_space_basis(a, tol_rank)
    assert basis.shape == (a.shape[1], a.shape[1] - rank)


@st.composite
def null_space_cases(draw):
    """(a, tol_rank): a seeded real or complex matrix, tall, square or wide up
    to 40 x 40, of rank up to min(shape) (0 is the zero matrix), at a scale
    that puts it under or above the cutoff."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rank = draw(st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, v = rng.standard_normal((rows, rank)), rng.standard_normal((rank, cols))
    if draw(st.booleans()):
        u = u + 1j * rng.standard_normal((rows, rank))
    scale = draw(st.sampled_from([1e-14, 1e-8, 1.0, 1e6]))
    return scale * (u @ v), draw(st.sampled_from([1e-10, 1e-6, 1e-2]))


@given(null_space_cases())
def test_null_space_basis_has_full_svd_bits(case):
    # The reduced SVD of a tall or square matrix holds all of vh, with the
    # bits of the full SVD's; under the cutoff the basis is I, exactly.
    a, tol_rank = case
    basis = null_space_basis(a, tol_rank)
    if _below_cutoff(a, tol_rank):
        expected = np.eye(a.shape[1], dtype=a.dtype)
    else:
        _, s, vh = np.linalg.svd(a, full_matrices=True)
        expected = vh[_rank(s, tol_rank):].conj().T
    assert basis.dtype == a.dtype
    assert np.array_equal(basis, expected)


def _complexified(bisystem):
    """The same bisystem over the complex field."""
    def lift(s):
        return PairedSystem(s.vectors.astype(complex), s.functionals.astype(complex), "complex")
    return BiSystem(lift(bisystem.first), lift(bisystem.second))


def factorizations(monkeypatch):
    """Names of the numpy factorizations called from here on, in order."""
    calls = []
    for name in ("qr", "svd"):
        def spy(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return calls


class TestReducedSvd:
    """admissible_space is null_space_basis of its 2d x d stack: I, with no
    factorization, for a stack under the cutoff (||stack||_F <= tol_rank):
    exactly 0 for identity_pair, rounding noise for dft_pair, rotated_pair and
    perturbed over them.  Any other stack takes one reduced SVD.  On both
    paths the basis must be bit-identical to null_space_basis of the stack."""

    @pytest.mark.parametrize("family,params,d", [
        pytest.param(family, params, d, id=f"{label}-d{d}")
        for label, family, params in [
            ("identity_pair", "identity_pair", {}),
            ("dft_pair", "dft_pair", {}),
            ("rotated_pair", "rotated_pair", {"angle": 30.0}),
            ("subspace_union", "subspace_union", {"split": 1}),
            ("perturbed-real", "perturbed",
             {"base": {"family": "subspace_union", "params": {"split": 1}}, "magnitude": 0.2}),
            ("perturbed-complex", "perturbed",
             {"base": {"family": "dft_pair", "params": {}}, "magnitude": 0.2}),
        ]
        for d in (1, 2, 5, 64, 128) if family != "rotated_pair" or d >= 2
    ])
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_basis_matches_unreduced_stack(self, monkeypatch, family, params, d,
                                           complex_field):
        params = dict(params)
        if family == "perturbed":
            params["base"] = {**params["base"], "params": {**params["base"]["params"], "d": d}}
        else:
            params["d"] = d
        b = generate(family, params, seed=7)
        if complex_field:
            b = _complexified(b)
        # The stack's products follow the library's product rule, so that the
        # complexified cases compare one computation, not two BLAS kernels.
        eye = np.eye(d)
        stacked = np.vstack([eye - _matmul(b.first.vectors, b.first.functionals),
                             eye - _matmul(b.second.vectors, b.second.functionals)])
        # subspace_union at d = 1 has split = d, so its stack is 0 as well.
        base = params.get("base", {}).get("family", family)
        under = base != "subspace_union" or d == 1
        calls = factorizations(monkeypatch)
        for tol_rank in (1e-10, 1e-6, 1e-2):
            calls.clear()
            basis = admissible_space(b, tol_rank).basis
            if under:
                assert calls == []
                assert np.array_equal(basis, np.eye(d, dtype=stacked.dtype))
            else:
                assert calls == ["svd"]
            assert np.array_equal(basis, null_space_basis(stacked, tol_rank))
            assert basis.dtype == stacked.dtype


@pytest.mark.parametrize("family,params", [
    pytest.param(family, params, id=label) for label, family, params in pipeline_corpus()])
def test_basis_matches_explicit_stack(family, params):
    """The in-place halves, their noise test and the stack made only above
    the cutoff give null_space_basis of the explicit stack, bit for bit."""
    b = corpus_bisystem(family, params)
    basis, want = admissible_space(b).basis, reference_basis(b)
    assert basis.dtype == want.dtype and basis.shape == want.shape
    assert basis.tobytes() == want.tobytes()


class TestNoiseStack:
    """admissible_space decides rank 0 on hypot(||I - TF||_F, ||I - WG||_F),
    each half formed in place in its product, and makes the stack only for
    the SVD."""

    @pytest.mark.parametrize("d", [1, 5, 64])
    @pytest.mark.parametrize("tol_rank", [1e-10, 1e-200])
    def test_underflowing_squares(self, monkeypatch, d, tol_rank):
        # I - TF = -1e-170 N: every square underflows to 0, so the norm is
        # taken scaled.  It is under 1e-10, and the basis is I with no SVD;
        # it is above 1e-200, and the SVD finds N's full rank: w = 0.
        rng = np.random.default_rng(d)
        n = rng.uniform(1.0, 2.0, (d, d))
        np.fill_diagonal(n, 0.0)
        first = PairedSystem(np.eye(d), np.eye(d) + 1e-170 * n)
        b = BiSystem(first, identity_system(d))
        assert np.abs(np.vstack(_halves(b))).max() <= 2e-170
        calls = factorizations(monkeypatch)
        basis = admissible_space(b, tol_rank).basis
        if tol_rank == 1e-10 or d == 1:
            assert calls == [] and np.array_equal(basis, np.eye(d))
        else:
            assert calls == ["svd"] and basis.shape == (d, 0)
        assert basis.tobytes() == reference_basis(b, tol_rank).tobytes()

    @pytest.mark.parametrize("tol_rank", [1e-10, -1.0, float("nan"), "1e-10"])
    def test_overflow_refused_before_tol_rank_is_read(self, tol_rank):
        first = PairedSystem([[1e200, 1], [0, 1]], [[1e200, 1e200], [0, 1]])
        for b in (BiSystem(first, identity_system(2)), BiSystem(identity_system(2), first)):
            with pytest.raises(StructuralError,
                               match="^admissible basis contains non-finite entries$"):
                admissible_space(b, tol_rank)

    @pytest.mark.parametrize("family", ["dft_pair", "subspace_union"])
    def test_bad_tol_rank_refused_on_both_paths(self, family):
        b = generate(family, {"d": 4, "split": 2} if family == "subspace_union" else {"d": 4})
        with pytest.raises(ParameterError, match="tol_rank"):
            admissible_space(b, -1.0)

    def test_halves_have_the_bits_of_the_subtraction(self):
        # 0.0 - p and 1.0 - p_jj are the bits of I - p, the sign of every
        # zero included, in real, complex and mixed bisystems.
        for b in (generate("rotated_pair", {"d": 5, "angle": 30.0}),
                  generate("perturbed", {"base": {"family": "dft_pair", "params": {"d": 6}}}),
                  BiSystem(identity_system(3), from_hilbert_vectors(dft_matrix(3)))):
            for half, s in zip(_halves(b), (b.first, b.second)):
                p = _matmul(s.vectors, s.functionals)
                want = np.eye(b.d, dtype=p.dtype) - p
                assert half.dtype == want.dtype and half.tobytes() == want.tobytes()


class TestWorkingSet:
    """Transient tracemalloc peak, in units of 16 d^2 bytes (one complex
    d x d array) at d = 128, on a bisystem whose products are not yet made.
    admissible_space keeps the two products it forms its halves in and makes
    no I and no stack for a noise stack; above the cutoff the stack is made
    once, from the halves, which the SVD does not keep alive.
    generate("perturbed") lets E go once S is formed, and each base system
    once its S T diag(c) and diag(c)^-1 F are made: over dft_pair it peaks
    at 7 (the first new system, S and S^-1, the second's vectors, its
    quotient, the product and its C-ordered transpose), over a real base
    below 4."""

    D = 128
    SLACK = 2**13  # bytes: the small arrays and scalars of the calls

    def transient(self, call):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - before

    @pytest.mark.parametrize("family,params,space_units,profile_units", [
        ("dft_pair", {"d": D}, 4.0, 1.5),
        ("perturbed", {"base": {"family": "dft_pair", "params": {"d": D}}}, 4.0, 2.0),
        ("subspace_union", {"d": D, "split": 40}, 3.0, 1.0),
    ])
    def test_peaks(self, family, params, space_units, profile_units):
        unit = 16 * self.D**2
        admissible_space(generate(family, params, 3))  # warm every code path
        b = generate(family, params, 3)
        assert self.transient(lambda: admissible_space(b)) <= space_units * unit + self.SLACK
        b = generate(family, params, 3)
        assert self.transient(lambda: coherence_profile(b)) <= profile_units * unit + self.SLACK

    @pytest.mark.parametrize("family,params,units", [
        # The identity's two matrices, the DFT matrix, and the DFT system's
        # copy of it and conjugate transpose: five arrays, each made once,
        # and a finiteness mask (1/16).  A conjugate that the system then
        # copied read 6.08.
        ("dft_pair", {"d": D}, 5.1),
        # At the last product: the first new system's two matrices, S and
        # S^-1 (1), the second's vectors, diag(c)^-1 G in the Fortran order
        # the mixed product reads, the product and its C-ordered transpose,
        # which the new system adopts.  E and the base are let go by then.
        # Holding E and the base, a C-ordered G / c and its transposed copy
        # read 11.54.
        ("perturbed", {"base": {"family": "dft_pair", "params": {"d": D}}}, 7.0),
        # Real bases peak at S diag(1), the scaling S times the base
        # identity's vectors: the base's four real matrices (2), S and S^-1
        # (1), the scaled copy (1/2), numpy's ufunc buffer of 8192 doubles
        # (1/4), and for identity_pair the four read-only diagonals of ones
        # (1/64).  subspace_union's identity is its second system: there
        # the base holds only that identity (1), next to the first new
        # system's two d x 40 matrices (5/16).  Holding E and the base read
        # 6.03, 4.41 and 5.79.
        ("perturbed", {"base": {"family": "rotated_pair", "params": {"d": D}}}, 3.75),
        ("perturbed", {"base": {"family": "subspace_union", "params": {"d": D, "split": 40}}},
         3.0625),
        ("perturbed", {"base": {"family": "identity_pair", "params": {"d": D}}}, 3.765625),
    ])
    def test_generate_peak(self, family, params, units):
        generate(family, params, 3)  # warm every code path
        assert self.transient(lambda: generate(family, params, 3)) <= units * 16 * self.D**2 + self.SLACK


class TestFixedSubspace:
    """admissible_space on pairs whose common fixed subspace is known."""

    def test_identity_full_space(self):
        space = admissible_space(BiSystem(identity_system(4), identity_system(4)))
        assert space.w == 4
        assert space.basis.shape == (4, 4)

    def test_projector_plane(self):
        plane = plane_system(np.eye(3)[:, :2])
        space = admissible_space(BiSystem(plane, plane))
        assert space.w == 2
        # Fixed space is the xy-plane: z-component vanishes.
        np.testing.assert_allclose(space.basis[2, :], 0.0, atol=1e-12)

    def test_doubling_has_no_fixed_points(self):
        eye = np.eye(2)
        doubled = PairedSystem(np.hstack([eye, eye]), np.vstack([eye, eye]))
        space = admissible_space(BiSystem(doubled, identity_system(2)))
        assert space.w == 0
        assert space.basis.shape == (2, 0)


class TestAdmissibleSpace:
    def test_both_identity(self):
        space = admissible_space(BiSystem(identity_system(3), identity_system(3)))
        assert space.w == 3

    def test_rotated_orthonormal_pair(self):
        t = np.deg2rad(45.0)
        r = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        space = admissible_space(BiSystem(identity_system(2), from_hilbert_vectors(r)))
        assert space.w == 2

    def test_huge_vectors_leave_no_fixed_point(self):
        # T = 1e200 I and F = I meet the pairing hypothesis, but
        # I - TF = (1 - 1e200) I has full rank: w = 0.
        b = BiSystem(PairedSystem(1e200 * np.eye(2), np.eye(2)), identity_system(2))
        assert admissible_space(b).w == 0

    def test_overflowing_products_refused_when_the_space_is_made(self):
        # Every input is finite, but T F overflows to inf, so the stack
        # [I - TF; I - WG] is not finite and its basis would be all NaN: it
        # is refused before the SVD, with no numpy warning (tier-1 makes a
        # RuntimeWarning an error).
        first = PairedSystem([[1e200, 1], [0, 1]], [[1e200, 1e200], [0, 1]])
        b = BiSystem(first, identity_system(2))
        with pytest.raises(StructuralError,
                           match="^admissible basis contains non-finite entries$"):
            admissible_space(b)

    def test_plane_intersection(self):
        xy = plane_system(np.eye(3)[:, [0, 1]])
        yz = plane_system(np.eye(3)[:, [1, 2]])
        space = admissible_space(BiSystem(xy, yz))
        assert space.w == 1
        b = space.basis[:, 0]
        np.testing.assert_allclose(np.abs(b), [0.0, 1.0, 0.0], atol=1e-12)

    def test_basis_satisfies_both_residuals(self):
        b = generate("subspace_union", {"d": 5, "split": 3}, seed=2)
        space = admissible_space(b)
        assert space.w == 3
        for col in space.basis.T:
            r_f, r_g = fixedpoint_residuals(b, col)
            assert r_f <= TOL_FP and r_g <= TOL_FP
        np.testing.assert_allclose(
            space.basis.conj().T @ space.basis, np.eye(space.w), atol=1e-12
        )


class TestSpaceRecord:
    def test_basis_is_a_private_read_only_copy_in_its_order(self):
        given = np.asfortranarray(np.eye(3)[:, :2])
        space = AdmissibleSpace(given)
        given[0, 0] = 5.0
        assert space.basis[0, 0] == 1.0
        assert not space.basis.flags.writeable
        assert space.basis.flags.f_contiguous and not space.basis.flags.c_contiguous
        assert AdmissibleSpace(np.eye(3)).basis.flags.c_contiguous

    @pytest.mark.parametrize("columns", [0, 1, 3])
    def test_w_is_the_column_count(self, columns):
        space = AdmissibleSpace(np.eye(3)[:, :columns])
        assert space.w == columns and type(space.w) is int

    @pytest.mark.parametrize("basis", [np.float64(1.0), np.ones((2, 2, 1))],
                             ids=["scalar", "three-axes"])
    def test_basis_not_a_matrix_refused(self, basis):
        with pytest.raises(StructuralError, match="expected a \\(d, w\\) matrix"):
            AdmissibleSpace(basis)

    def test_basis_of_no_numbers_refused(self):
        with pytest.raises(StructuralError, match="cannot parse admissible basis"):
            AdmissibleSpace([[1.0, 0.0], [1.0]])
        with pytest.raises(StructuralError, match="are not numbers"):
            AdmissibleSpace(np.array([["a"]]))

    @pytest.mark.parametrize("family,params", [
        ("identity_pair", {"d": 3}),
        ("rotated_pair", {"d": 3, "angle": 30.0}),
        ("dft_pair", {"d": 4}),
        ("subspace_union", {"d": 5, "split": 2}),
    ])
    def test_basis_applies_by_its_form(self, family, params):
        # An identity basis scales (systems._apply) with the bytes of the
        # stacked matrix-vector product; a d x w basis (w < d) runs that product.
        space = admissible_space(generate(family, params, 1))
        assert (space._form.diagonal is not None) == (family != "subspace_union")
        rng = np.random.default_rng(3)
        c = rng.standard_normal((6, space.w))
        if np.iscomplexobj(space.basis):
            c = c + 1j * rng.standard_normal(c.shape)
        got = _apply(space._form, c)
        want = (space.basis @ c[..., None])[..., 0]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestSampling:
    def test_full_space(self):
        space = admissible_space(BiSystem(identity_system(3), identity_system(3)))
        x = sample_admissible(space, 7)
        assert np.abs(x).max() > 0

    def test_deterministic(self):
        space = admissible_space(BiSystem(identity_system(4), identity_system(4)))
        np.testing.assert_array_equal(sample_admissible(space, 9), sample_admissible(space, 9))

    def test_one_dimensional(self):
        basis = np.array([[0.0], [1.0], [0.0]])
        x = sample_admissible(AdmissibleSpace(basis), 3)
        assert x[1] != 0.0
        assert x[0] == 0.0 and x[2] == 0.0

    def test_trivial_space_rejected(self):
        with pytest.raises(NoAdmissibleSignalError):
            sample_admissible(AdmissibleSpace(np.zeros((3, 0))), 0)

    @pytest.mark.parametrize("basis,message", [
        (np.diag([1.0, np.nan, 1.0]), "non-finite"),
        (np.full((3, 1), np.inf), "non-finite"),
        (np.ones(3), r"shape \(3,\), expected a \(d, w\) matrix"),
    ], ids=["nan", "inf", "one-axis"])
    def test_unfit_basis_refused(self, basis, message):
        # No NaN signal, no raw numpy error: a basis that is not a finite
        # matrix is refused when the space is made.
        with pytest.raises(StructuralError, match=message):
            sample_admissible(AdmissibleSpace(basis), 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_bad_seed_rejected(self, seed):
        space = admissible_space(BiSystem(identity_system(2), identity_system(2)))
        with pytest.raises(ParameterError, match="seed"):
            sample_admissible(space, seed)
        with pytest.raises(ParameterError, match="seed"):
            generate("subspace_union", {"d": 4, "split": 2}, seed)


# Seeds of 1 to 10 32-bit words: NumPy's SeedSequence zero-pads those of up
# to 4 words and mixes each further word in with one more round.
MIXED_WORD_COUNTS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 1, 2**96 + 5, 2**128 - 1,
                     2**128, 2**128 + 1, 2**130, 2**160 + 7, 2**300, 2**319 + 3]


class TestSeeding:
    """The signals of a sweep at a seed, drawn by _samples from one
    default_rng(seed) stream, against reference_stream; row 0 is
    sample_admissible(space, seed), and reference_stream's row 0 alone."""

    @pytest.mark.parametrize("family,params", [
        ("identity_pair", {"d": 1}),                                  # real, w = d = 1
        ("rotated_pair", {"d": 3, "angle": 30.0}),                    # real, w = d
        ("subspace_union", {"d": 6, "split": 1}),                     # real, w = 1
        ("subspace_union", {"d": 6, "split": 3}),                     # real, 1 < w < d
        ("dft_pair", {"d": 5}),                                       # complex, w = d
        ("perturbed", {"base": {"family": "dft_pair", "params": {"d": 4}}}),  # complex, w = d
        ("subspace_union", {"d": 8, "split": 3}),                     # criterion 8's 2^128 + 1 row
    ])
    def test_rows_are_reference_samples(self, family, params):
        space = admissible_space(generate(family, params, seed=2))
        for seed in MIXED_WORD_COUNTS:
            got = _samples(space, np.random.default_rng(seed), 60)
            assert got.shape == (60, space.basis.shape[0])
            for row, want in zip(got, reference_stream(space, seed, 60), strict=True):
                assert row.tobytes() == want.tobytes()
            assert sample_admissible(space, seed).tobytes() == got[0].tobytes()
            assert reference_stream(space, seed, 1)[0].tobytes() == got[0].tobytes()
            # Blocks drawn in turn from one generator join up to one draw.
            rng = np.random.default_rng(seed)
            blocks = [_samples(space, rng, k) for k in (1, 7, 52)]
            assert np.concatenate(blocks).tobytes() == got.tobytes()

    def test_complex_basis_of_one_column(self):
        space = AdmissibleSpace(np.array([[1j], [0.0], [1.0]]) / np.sqrt(2))
        for seed in (0, 7, 2**128 + 1):
            got = _samples(space, np.random.default_rng(seed), 5)
            for row, want in zip(got, reference_stream(space, seed, 5), strict=True):
                assert row.tobytes() == want.tobytes()
            assert got[0].tobytes() == reference_stream(space, seed, 1)[0].tobytes()


class TestSpectralNorm:
    """perturbed scales E to spectral norm `magnitude` with _spectral_norm,
    sqrt(lambda_max(E E^T)), not the SVD of np.linalg.norm(E, 2)."""

    @pytest.mark.parametrize("d", [1, 2, 7, 64, 256])
    @pytest.mark.parametrize("kind", ["uniform", "zero", "rank-one"])
    def test_matches_svd_norm(self, d, kind):
        rng = np.random.default_rng(d)
        e = {
            "uniform": lambda: rng.uniform(-1.0, 1.0, size=(d, d)),
            "zero": lambda: np.zeros((d, d)),
            "rank-one": lambda: np.outer(rng.uniform(-1.0, 1.0, d), rng.uniform(-1.0, 1.0, d)),
        }[kind]()
        got, want = _spectral_norm(e), np.linalg.norm(e, 2)
        if kind == "zero":
            assert got == want == 0.0
        else:
            assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("seed", [0, 9])
    @pytest.mark.parametrize("magnitude", [0.05, 0.3])
    def test_perturbed_change_of_basis_has_the_magnitude(self, seed, magnitude):
        """Replay perturbed's draws over identity_pair: its first system's
        vectors are S diag(c_1), so S is recovered, and ||S - I||_2 is the
        magnitude."""
        d = 64
        b = generate("perturbed", {"base": {"family": "identity_pair", "params": {"d": d}},
                                   "magnitude": magnitude}, seed)
        rng = np.random.default_rng(seed)
        e = rng.uniform(-1.0, 1.0, size=(d, d))
        c1 = rng.uniform(1.0, 1.0 + magnitude, size=d)
        s = b.first.vectors / c1[None, :]
        np.testing.assert_allclose(s, np.eye(d) + magnitude / np.linalg.norm(e, 2) * e,
                                   rtol=0, atol=1e-15)
        assert np.linalg.norm(s - np.eye(d), 2) == pytest.approx(magnitude, rel=1e-13)
        assert np.linalg.norm(b.first.vectors @ b.first.functionals - np.eye(d), 2) <= 1e-12


class TestFamilies:
    def test_dft_pair(self):
        b = generate("dft_pair", {"d": 4}, 0)
        p = coherence_profile(b)
        assert p.cross_f_omega == pytest.approx(0.5, abs=1e-14)
        assert p.cross_g_tau == pytest.approx(0.5, abs=1e-14)
        assert p.sub_coherence_f <= 1e-14 and p.sub_coherence_g <= 1e-14
        assert admissible_space(b).w == 4

    def test_subspace_union(self):
        b = generate("subspace_union", {"d": 3, "split": 2}, 1)
        assert admissible_space(b).w == 2
        assert validate_pairing(b.first).ok

    def test_perturbed_preserves_hypotheses(self):
        base = {"family": "identity_pair", "params": {"d": 3}, "seed": 0}
        b = generate("perturbed", {"base": base, "magnitude": 0.05}, 11)
        assert validate_pairing(b.first).ok and validate_pairing(b.second).ok
        assert sub_coherence(b.first) <= 0.05 * 2.0
        space = admissible_space(b)
        assert space.w == 3
        x = sample_admissible(space, 0)
        r_f, r_g = fixedpoint_residuals(b, x)
        assert r_f <= TOL_FP and r_g <= TOL_FP

    def test_every_family_samples_admissibly(self):
        cases = [
            ("identity_pair", {"d": 4}),
            ("dft_pair", {"d": 5}),
            ("rotated_pair", {"d": 3, "angle": 30.0}),
            ("subspace_union", {"d": 6, "split": 3}),
            ("perturbed", {"base": {"family": "dft_pair", "params": {"d": 4}}, "magnitude": 0.1}),
        ]
        for family, params in cases:
            b = generate(family, params, seed=5)
            assert validate_pairing(b.first).ok and validate_pairing(b.second).ok
            space = admissible_space(b)
            assert space.w >= 1
            for s in range(3):
                x = sample_admissible(space, s)
                r_f, r_g = fixedpoint_residuals(b, x)
                assert r_f <= TOL_FP and r_g <= TOL_FP

    def test_generation_deterministic(self):
        a = generate("subspace_union", {"d": 5, "split": 2}, 3)
        b = generate("subspace_union", {"d": 5, "split": 2}, 3)
        np.testing.assert_array_equal(a.first.vectors, b.first.vectors)

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            generate("identity_pair", {}, 0)
        with pytest.raises(ParameterError):
            generate("subspace_union", {"d": 3, "split": 9}, 0)
        with pytest.raises(ParameterError):
            generate("no_such_family", {"d": 3}, 0)
        with pytest.raises(ParameterError):
            generate("perturbed", {"magnitude": 0.1}, 0)
        with pytest.raises(ParameterError, match="perturbed base takes no key 'sed'"):
            generate("perturbed", {"base": {"family": "dft_pair", "params": {"d": 4}, "sed": 1}})
        with pytest.raises(ParameterError, match="d >= 2"):
            generate("rotated_pair", {"d": 1}, 0)

    @pytest.mark.parametrize("params", [[["d", 4]], [["d", 4], ["d", 9]], (("d", 4),), None],
                             ids=["pairs", "repeated-key", "tuple", "none"])
    def test_params_must_be_a_mapping(self, params):
        with pytest.raises(ParameterError, match="family parameters must be an object"):
            generate("dft_pair", params, 0)
        with pytest.raises(ParameterError, match="family parameters must be an object"):
            generate("perturbed", {"base": {"family": "dft_pair", "params": params}}, 0)
