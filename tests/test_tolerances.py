"""Every tolerance is a finite number >= 0: the library refuses any other
value at each entry point that takes one, as the CLI does."""

import math

import numpy as np
import pytest

from sparsebounds import (
    admissible_space,
    ds_product,
    exhaustive_verify,
    from_hilbert_vectors,
    generate,
    l0,
    min_sparsity_product,
    sample_admissible,
    support,
    validate_pairing,
    verify_fkdb,
    verify_fskpb,
)
from sparsebounds.admissible import null_space_basis
from sparsebounds.config import _valid_tolerance
from sparsebounds.errors import ParameterError

DFT4 = generate("dft_pair", {"d": 4})
SPACE = admissible_space(DFT4)
X = sample_admissible(SPACE, 0)
UNION = generate("subspace_union", {"d": 4, "split": 1})

ENTRY_POINTS = {
    "l0-eta": lambda t: l0(X, eta=t),
    "support-eta": lambda t: support(X, eta=t),
    "ds_product-eta": lambda t: ds_product(X, eta=t),
    "verify_fkdb-eta": lambda t: verify_fkdb(DFT4, X, eta=t),
    "verify_fkdb-tol_fp": lambda t: verify_fkdb(DFT4, X, tol_fp=t),
    "verify_fkdb-tol_cert": lambda t: verify_fkdb(DFT4, X, tol_cert=t),
    "verify_fkdb-eta_hyp": lambda t: verify_fkdb(DFT4, X, eta_hyp=t),
    "verify_fskpb-tol_cert": lambda t: verify_fskpb(DFT4, X, {0}, {1}, tol_cert=t),
    "exhaustive_verify-eta": lambda t: exhaustive_verify(DFT4, SPACE, 5, eta=t),
    "exhaustive_verify-tol_fp": lambda t: exhaustive_verify(DFT4, SPACE, 5, tol_fp=t),
    "exhaustive_verify-tol_cert": lambda t: exhaustive_verify(DFT4, SPACE, 5, tol_cert=t),
    "null_space_basis-tol_rank": lambda t: null_space_basis(np.eye(3)[:2], t),
    "admissible_space-tol_rank": lambda t: admissible_space(UNION, tol_rank=t),
    "min_sparsity_product-eta": lambda t: min_sparsity_product(DFT4, SPACE, eta=t),
    "min_sparsity_product-tol_rank": lambda t: min_sparsity_product(DFT4, SPACE, tol_rank=t),
    "validate_pairing-eta_hyp": lambda t: validate_pairing(DFT4.first, t),
    "from_hilbert_vectors-eta_hyp": lambda t: from_hilbert_vectors(np.eye(2), t),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -1e-3], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_invalid_tolerance_rejected(call, value):
    with pytest.raises(ParameterError, match="must be a finite number >= 0"):
        call(value)


@pytest.mark.parametrize("value", [0, 0.0, 1e-300, np.float64(0.5), 7])
def test_valid_tolerance_passes_unchanged(value):
    assert _valid_tolerance("eta", value) is value


@pytest.mark.parametrize("value", ["1e-9", None, 1j, [1e-9]])
def test_non_number_rejected(value):
    with pytest.raises(ParameterError):
        _valid_tolerance("eta", value)
