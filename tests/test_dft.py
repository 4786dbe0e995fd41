import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebounds.dft import dft_matrix, forward
from sparsebounds.errors import ParameterError


def naive_dft(h):
    """Independent O(d^2) accumulation, written directly from the sum."""
    d = len(h)
    out = np.zeros(d, dtype=complex)
    for j in range(d):
        for k in range(d):
            out[j] += h[k] * np.exp(-2j * np.pi * j * k / d)
    return out / np.sqrt(d)


def test_spike_is_flat():
    out = forward([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(np.abs(out), 0.5, atol=1e-14)


def test_comb_stays_comb():
    out = forward([1.0, 0.0, 1.0, 0.0])
    np.testing.assert_allclose(np.abs(out), [1.0, 0.0, 1.0, 0.0], atol=1e-14)


def test_zero_input():
    np.testing.assert_array_equal(forward(np.zeros(5)), np.zeros(5))


def test_matches_naive_sum():
    rng = np.random.default_rng(0)
    h = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    np.testing.assert_allclose(forward(h), naive_dft(h), atol=1e-12)


def test_bad_plan():
    with pytest.raises(ParameterError):
        forward([])


def test_columns_unit_norm():
    w = dft_matrix(6)
    np.testing.assert_allclose(np.linalg.norm(w, axis=0), 1.0, atol=1e-14)


@settings(deadline=None, max_examples=40)
@given(
    d=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_unitarity_and_round_trip(d, seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    out = forward(h)
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(h), abs=1e-12)
    np.testing.assert_allclose(np.fft.ifft(out, norm="ortho"), h, atol=1e-12)
