import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebounds import best_set, concentration_epsilon, l0, l1, support
from sparsebounds.errors import DegenerateInputError, ParameterError
from sparsebounds.sparsity import _top_defects


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
    """l0, support and l1 of one sequence."""

    def test_direct(self):
        a = [1.0, 0.0, -3.0]
        assert (l0(a, eta=0.0), support(a, eta=0.0), l1(a)) == (2, (0, 2), 4.0)

    def test_zero_vector(self):
        assert (support(np.zeros(4)), l1(np.zeros(4))) == ((), 0.0)

    def test_threshold(self):
        # 2e-13 falls below eta, so only the second entry is in the support.
        a = [2e-13, 1.0]
        assert (l0(a, eta=1e-9), support(a, eta=1e-9)) == (1, (1,))
        assert l1(a) == pytest.approx(1.0)


@settings(deadline=None, max_examples=60)
@given(
    values=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
    size=st.integers(min_value=0, max_value=8),
)
def test_best_set_minimizes_over_all_subsets(values, size):
    a = np.array(values)
    if np.abs(a).sum() == 0.0:
        return
    size = min(size, a.size)
    best = best_set(a, size)
    # Independent oracle: exhaustive enumeration of every subset of that size.
    for subset in itertools.combinations(range(a.size), size):
        assert best.epsilon <= concentration_epsilon(a, subset) + 1e-12
    assert best.epsilon == pytest.approx(concentration_epsilon(a, best.set))


@pytest.mark.parametrize("n", [1, 5, 8, 9, 17, 128, 129, 300])
def test_top_defects_have_concentration_epsilon_bits(n):
    # Lengths on both sides of numpy's 8-term and 128-term summation blocks;
    # the rounded row has ties, which go to the lowest index.
    rng = np.random.default_rng(n)
    rows = np.array([rng.standard_normal(n) + 1j * rng.standard_normal(n),
                     np.round(2 * rng.standard_normal(n)) + 0j])
    rows[1, 0] = 1.0
    rank, eps = _top_defects(np.abs(rows), range(n + 1))
    for row, row_rank, row_eps in zip(rows, rank, eps):
        order = np.argsort(-np.abs(row), kind="stable")
        for size in range(n + 1):
            chosen = sorted(order[:size].tolist())
            assert np.flatnonzero(row_rank < size).tolist() == chosen
            assert row_eps[size] == concentration_epsilon(row, chosen)


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
    a, eta = case
    chosen = support(a, eta)
    assert len(chosen) == l0(a, eta)
    assert all(abs(a[i]) > eta for i in chosen)


def test_top_defects_zero_mass_rejected():
    with pytest.raises(DegenerateInputError):
        _top_defects(np.array([[1.0, 0.0], [0.0, 0.0]]), [1])
