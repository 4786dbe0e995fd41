"""Every array taken from outside is a regular nesting of finite numbers:
signals, sequences and system matrices with a NaN or infinite entry, a
string, an object or ragged rows are refused with StructuralError where they
enter, by one rule (config._valid_array), instead of passing or failing a
threshold silently or escaping as a raw numpy error."""

import math

import numpy as np
import pytest

from sparsebounds import (
    PairedSystem,
    analysis,
    best_set,
    concentration_epsilon,
    ds_product,
    forward,
    generate,
    l0,
    l1,
    per_index_slack,
    support,
    synthesis,
    verify_fkdb,
    verify_fskpb,
)
from sparsebounds.bounds import fixedpoint_residuals
from sparsebounds.config import _valid_array
from sparsebounds.errors import StructuralError

DFT4 = generate("dft_pair", {"d": 4})

ENTRY_POINTS = {
    "analysis": lambda x: analysis(DFT4.second, x),
    "synthesis": lambda x: synthesis(DFT4.second, x),
    "verify_fkdb": lambda x: verify_fkdb(DFT4, x),
    "verify_fskpb": lambda x: verify_fskpb(DFT4, x, {0}, {1}),
    "fixedpoint_residuals": lambda x: fixedpoint_residuals(DFT4, x),
    "per_index_slack": lambda x: per_index_slack(DFT4, x),
    "l0": lambda x: l0(x),
    "support": lambda x: support(x),
    "l1": lambda x: l1(x),
    "concentration_epsilon": lambda x: concentration_epsilon(x, {0}),
    "best_set": lambda x: best_set(x, 1),
    "ds_product": lambda x: ds_product(x),
    "forward": lambda x: forward(x),
    "PairedSystem": lambda x: PairedSystem([x], [x]),
}

NON_FINITE = {
    "nan": [math.nan, 1.0, 0.0, 0.0],
    "inf": [math.inf, 1.0, 0.0, 0.0],
    "-inf": [1.0, 0.0, 0.0, -math.inf],
    "complex-nan": [complex(0.0, math.nan), 1.0, 0.0, 0.0],
}

NOT_NUMBERS = {
    "strings": ["a", "b"],
    "none": [None, 1.0],
    "ragged": [[1], [1, 2]],
}


@pytest.mark.parametrize("x", [*NON_FINITE.values(), *NOT_NUMBERS.values()],
                         ids=[*NON_FINITE, *NOT_NUMBERS])
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_non_finite_array_rejected(call, x):
    with pytest.raises(StructuralError):
        call(x)


@pytest.mark.parametrize("x", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
def test_not_numbers_cannot_be_parsed(x):
    with pytest.raises(StructuralError, match="cannot parse sequence"):
        _valid_array("sequence", x)


def test_real_dtype_keeps_imaginary_parts():
    assert _valid_array("a", [1 + 0j, 2], np.float64).dtype == np.float64
    with pytest.raises(StructuralError, match="complex entries"):
        _valid_array("a", [1 + 1j, 2], np.float64)


def test_nan_signal_is_not_reported_as_zero():
    # NaN fails the > eta mask; the signal was called zero after thresholding.
    with pytest.raises(StructuralError, match="signal contains non-finite entries"):
        verify_fkdb(DFT4, [math.nan, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("a", [[0.0, 1.5, -2.0], np.arange(6).reshape(2, 3), 3, []])
def test_finite_array_passes_unchanged(a):
    assert np.array_equal(_valid_array("sequence", a), np.asarray(a))
