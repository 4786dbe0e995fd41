"""Every real number taken from outside is an int, a float or a NumPy real
(never a bool or a string), finite and inside its domain: a tolerance is
>= 0, a concentration defect is in [0, 1], a rotation angle is any finite
number and a perturbation magnitude is in [0, 1).  The library refuses any
other value at each entry point that takes one, as the CLI does."""

import math

import numpy as np
import pytest

from sparsebounds import (
    admissible_space,
    coherence_profile,
    ds_product,
    eb_bound,
    exhaustive_verify,
    fskpb_rhs,
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
from sparsebounds.config import _valid_real
from sparsebounds.errors import ParameterError

DFT4 = generate("dft_pair", {"d": 4})
SPACE = admissible_space(DFT4)
X = sample_admissible(SPACE, 0)
UNION = generate("subspace_union", {"d": 4, "split": 1})
PROFILE = coherence_profile(DFT4)

ENTRY_POINTS = {
    "l0-eta": lambda t: l0(X, eta=t),
    "support-eta": lambda t: support(X, eta=t),
    "ds_product-eta": lambda t: ds_product(X, eta=t),
    "verify_fkdb-eta": lambda t: verify_fkdb(DFT4, X, eta=t),
    "verify_fkdb-tol_fp": lambda t: verify_fkdb(DFT4, X, tol_fp=t),
    "verify_fkdb-tol_cert": lambda t: verify_fkdb(DFT4, X, tol_cert=t),
    "verify_fskpb-tol_cert": lambda t: verify_fskpb(DFT4, X, {0}, {1}, tol_cert=t),
    "exhaustive_verify-eta": lambda t: exhaustive_verify(DFT4, SPACE, 5, eta=t),
    "exhaustive_verify-tol_fp": lambda t: exhaustive_verify(DFT4, SPACE, 5, tol_fp=t),
    "exhaustive_verify-tol_cert": lambda t: exhaustive_verify(DFT4, SPACE, 5, tol_cert=t),
    "null_space_basis-tol_rank": lambda t: null_space_basis(np.eye(3)[:2], t),
    "admissible_space-tol_rank": lambda t: admissible_space(UNION, tol_rank=t),
    "min_sparsity_product-eta": lambda t: min_sparsity_product(DFT4, SPACE, eta=t),
    "min_sparsity_product-tol_rank": lambda t: min_sparsity_product(DFT4, SPACE, tol_rank=t),
    "validate_pairing-eta_hyp": lambda t: validate_pairing(DFT4.first, t),
    "eb_bound-mu": lambda t: eb_bound(t),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -1e-3, True, np.bool_(True)],
                         ids=["nan", "inf", "negative", "bool", "numpy-bool"])
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_invalid_tolerance_rejected(call, value):
    with pytest.raises(ParameterError, match="must be a finite number >= 0"):
        call(value)


def perturbed(magnitude):
    return generate("perturbed", {"base": {"family": "dft_pair", "params": {"d": 3}},
                                  "magnitude": magnitude})


# Real numbers whose domain is not a tolerance's, each with values outside it.
DOMAINS = {
    "fskpb_rhs-eps": (lambda v: fskpb_rhs(2, 2, v, 0.0, PROFILE), [math.nan, -5.0, 7.0, True]),
    "fskpb_rhs-delta": (lambda v: fskpb_rhs(2, 2, 0.0, v, PROFILE), [math.nan, -5.0, 7.0, True]),
    "rotated_pair-angle": (lambda v: generate("rotated_pair", {"d": 3, "angle": v}),
                           ["30", True, math.nan, math.inf, 10**400]),
    "perturbed-magnitude": (perturbed, ["0.1", True, 1.0, -0.1]),
}


@pytest.mark.parametrize("call,value", [
    pytest.param(call, value, id=f"{name}-{value!r:.20}")
    for name, (call, values) in DOMAINS.items() for value in values])
def test_real_outside_domain_rejected(call, value):
    with pytest.raises(ParameterError, match="must be a finite number|must be in"):
        call(value)


@pytest.mark.parametrize("call,value,expected", [
    (lambda v: fskpb_rhs(2, 2, v, 1, PROFILE), 1, 0.0),
    (lambda v: generate("rotated_pair", {"d": 2, "angle": v}).second.vectors[0, 0], -60,
     0.5),
    (lambda v: validate_pairing(perturbed(v).second).ok, 0, True),
], ids=["defects-at-one", "integer-angle", "zero-magnitude"])
def test_real_domain_edges_accepted(call, value, expected):
    assert call(value) == pytest.approx(expected)


@pytest.mark.parametrize("value", [0, 0.0, 1e-300, np.float64(0.5), 7])
def test_valid_tolerance_passes_unchanged(value):
    assert _valid_real("eta", value) is value


@pytest.mark.parametrize("value", ["1e-9", None, 1j, [1e-9]])
def test_non_number_rejected(value):
    with pytest.raises(ParameterError):
        _valid_real("eta", value)
