import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparsebounds import (
    BiSystem,
    PairedSystem,
    best_set,
    concentration_epsilon,
    identity_system,
    l0,
    verify_fskpb,
)
from sparsebounds.errors import DegenerateInputError, ParameterError
from sparsebounds.sparsity import _top_defects
from referees import support


class TestL0:
    def test_thresholded(self):
        assert l0([1.0, 0.0, 2e-13, -3.0], eta=1e-9) == 2

    def test_zero_sequence(self):
        assert l0(np.zeros(5)) == 0

    def test_exact_count(self):
        assert l0([0.5, 0.5], eta=0.0) == 2

    def test_negative_eta_rejected(self):
        with pytest.raises(ParameterError):
            l0([1.0], eta=-1.0)

    def test_scale_invariance(self):
        a = np.array([3.0, 1e-8, 0.0, -2.0])
        for c in (2.0, -0.125, 1e6):
            assert l0(c * a, eta=1e-9 * abs(c)) == l0(a, eta=1e-9)


class TestConcentration:
    def test_half_mass(self):
        assert concentration_epsilon([4.0, 2.0, 1.0, 1.0], {0}) == pytest.approx(0.5)

    def test_full_set(self):
        assert concentration_epsilon([1.0, 2.0, 3.0], {0, 1, 2}) == 0.0

    def test_empty_set(self):
        assert concentration_epsilon([1.0, 2.0], ()) == 1.0

    def test_zero_mass_rejected(self):
        with pytest.raises(DegenerateInputError):
            concentration_epsilon(np.zeros(3), {0})

    def test_out_of_range_set(self):
        with pytest.raises(ParameterError):
            concentration_epsilon([1.0, 2.0], {5})

    def test_zero_on_support(self):
        a = np.array([0.0, 3.0, -1.0, 0.0])
        assert concentration_epsilon(a, support(a, eta=0.0)) == 0.0


class TestBestSet:
    def test_largest_entry(self):
        w = best_set([4.0, 2.0, 1.0, 1.0], 1)
        assert w.set == (0,)
        assert w.epsilon == pytest.approx(0.5)

    def test_full_size(self):
        w = best_set([1.0, 5.0, 2.0], 3)
        assert w.set == (0, 1, 2)
        assert w.epsilon == 0.0

    def test_tie_break_lowest_index(self):
        w = best_set([1.0, 1.0], 1)
        assert w.set == (0,)
        assert w.epsilon == pytest.approx(0.5)

    def test_bad_size(self):
        with pytest.raises(ParameterError):
            best_set([1.0, 2.0], 3)


class TestProfile:
    """l0 of one sequence counts its support (referees.support)."""

    def test_direct(self):
        a = [1.0, 0.0, -3.0]
        assert (l0(a, eta=0.0), support(a, eta=0.0)) == (2, (0, 2))

    def test_zero_vector(self):
        assert (l0(np.zeros(4)), support(np.zeros(4))) == (0, ())

    def test_threshold(self):
        # 2e-13 falls below eta, so only the second entry is in the support.
        a = [2e-13, 1.0]
        assert (l0(a, eta=1e-9), support(a, eta=1e-9)) == (1, (1,))


# Magnitudes with ties: integers drawn from a short range repeat often.
magnitude_values = st.floats(min_value=-100, max_value=100, allow_nan=False) | st.integers(-3, 3)


@settings(deadline=None, max_examples=60)
@given(
    values=st.lists(magnitude_values, min_size=1, max_size=8),
    size=st.integers(min_value=0, max_value=8),
)
def test_best_set_minimizes_over_all_subsets(values, size):
    a = np.array(values, dtype=float)
    if np.abs(a).sum() == 0.0:
        return
    size = min(size, a.size)
    best = best_set(a, size)
    # Independent oracle: exhaustive enumeration of every subset of that size.
    for subset in itertools.combinations(range(a.size), size):
        assert best.epsilon <= concentration_epsilon(a, subset) + 1e-12
    assert best.epsilon == concentration_epsilon(a, best.set)


@pytest.mark.parametrize("n", [1, 5, 8, 9, 17, 128, 129, 300])
def test_top_defects_have_concentration_epsilon_bits(n):
    # Lengths on both sides of numpy's 8-term and 128-term summation blocks;
    # the rounded row has ties, which go to the lowest index.
    rng = np.random.default_rng(n)
    rows = np.array([rng.standard_normal(n) + 1j * rng.standard_normal(n),
                     np.round(2 * rng.standard_normal(n)) + 0j])
    rows[1, 0] = 1.0
    eps = _top_defects(np.abs(rows))
    assert eps.shape == (2, n + 1)
    for row, row_eps in zip(rows, eps):
        order = np.argsort(-np.abs(row), kind="stable")
        assert (row_eps[0], row_eps[n]) == (1.0, 0.0)
        for size in range(n + 1):
            chosen = sorted(order[:size].tolist())
            best = best_set(row, size)
            assert best.set == tuple(chosen)
            assert best.epsilon == row_eps[size] == concentration_epsilon(row, chosen)


@st.composite
def permuted_coefficients(draw):
    """(a, p, q, s, t, size): real or complex coefficients a of length n with
    tied magnitudes and at least one above ETA, two permutations p, q of
    range(n), two index sets s, t and a set size."""
    n = draw(st.integers(1, 12))
    parts = st.lists(magnitude_values, min_size=n, max_size=n)
    a = np.array(draw(parts), dtype=float)
    if draw(st.booleans()):
        a = a + 1j * np.array(draw(parts))
    assume(l0(a) > 0)
    perms, sets = st.permutations(range(n)), st.sets(st.integers(0, n - 1))
    return (a, np.array(draw(perms)), np.array(draw(perms)), draw(sets), draw(sets),
            draw(st.integers(0, n)))


def permuted_identity(p, field):
    """The identity system with its indices permuted: functional i is e_p[i],
    so its analysis of x is x[p], exactly."""
    eye = np.eye(p.size)
    return PairedSystem(eye[:, p], eye[p], field)


@given(permuted_coefficients())
def test_concentration_invariant_under_index_permutation(case):
    # Coefficients a[p] with the set mapped by the inverse permutation hold
    # the same magnitudes inside and outside the set, so every defect keeps
    # its bits.
    a, p, q, s, t, size = case
    inv_p, inv_q = np.argsort(p), np.argsort(q)
    s_p, t_q = [inv_p[i] for i in s], [inv_q[i] for i in t]
    eps, delta = concentration_epsilon(a, s), concentration_epsilon(a, t)
    assert concentration_epsilon(a[p], s_p) == eps
    assert best_set(a[p], size).epsilon == best_set(a, size).epsilon
    field = "complex" if np.iscomplexobj(a) else "real"
    identity = identity_system(a.size, field)
    cert = verify_fskpb(BiSystem(identity, identity), a, s, t)
    moved = verify_fskpb(BiSystem(permuted_identity(p, field), permuted_identity(q, field)),
                         a, s_p, t_q)
    assert (moved.epsilon, moved.delta) == (cert.epsilon, cert.delta) == (eps, delta)


@st.composite
def thresholded_sequences(draw):
    """(a, eta): a real or complex sequence, some of whose entries have
    magnitude exactly eta."""
    eta = draw(st.floats(0.0, 10.0))
    units = [1, -1, 1j, -1j] if draw(st.booleans()) else [1.0, -1.0]
    entries = draw(st.lists(st.tuples(st.one_of(st.none(), st.floats(-20.0, 20.0)),
                                      st.sampled_from(units)), max_size=12))
    a = np.array([(eta if v is None else v) * u for v, u in entries],
                 dtype=np.result_type(*units))
    return a, eta


@given(thresholded_sequences())
def test_support_size_is_l0(case):
    # Entries of magnitude exactly eta are outside the support: "strictly above".
    a, eta = case
    assert l0(a, eta) == len(support(a, eta))


def test_top_defects_zero_mass_rejected():
    with pytest.raises(DegenerateInputError):
        _top_defects(np.array([[1.0, 0.0], [0.0, 0.0]]))
