import numpy as np
import pytest

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
from sparsebounds.admissible import AdmissibleSpace, null_space_basis
from sparsebounds.bounds import fixedpoint_residuals
from sparsebounds.coherence import coherence_profile, sub_coherence
from sparsebounds.errors import NoAdmissibleSignalError, ParameterError

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
        x = sample_admissible(AdmissibleSpace(basis, 1), 3)
        assert x[1] != 0.0
        assert x[0] == 0.0 and x[2] == 0.0

    def test_trivial_space_rejected(self):
        with pytest.raises(NoAdmissibleSignalError):
            sample_admissible(AdmissibleSpace(np.zeros((3, 0)), 0), 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_bad_seed_rejected(self, seed):
        space = admissible_space(BiSystem(identity_system(2), identity_system(2)))
        with pytest.raises(ParameterError, match="seed"):
            sample_admissible(space, seed)
        with pytest.raises(ParameterError, match="seed"):
            generate("subspace_union", {"d": 4, "split": 2}, seed)


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
