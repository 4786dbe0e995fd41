"""Every integer taken from outside is an int, a NumPy integer or an integral
float, at least the entry point's least value: the library refuses any other
value at each entry point that takes one, and never truncates it."""

import math

import numpy as np
import pytest

from sparsebounds import (
    admissible_space,
    best_set,
    concentration_epsilon,
    dft_matrix,
    exhaustive_verify,
    generate,
    identity_system,
    min_sparsity_product,
    sample_admissible,
    verify_fskpb,
)
from sparsebounds import oracle
from sparsebounds.config import _number, _valid_integer
from sparsebounds.errors import GuardExceededError, ParameterError, StructuralError
from sparsebounds.serialization import signal_from_dict, system_from_dict

DFT4 = generate("dft_pair", {"d": 4})
SPACE = admissible_space(DFT4)
X = sample_admissible(SPACE, 0)

ENTRY_POINTS = {
    "generate-d": lambda v: generate("dft_pair", {"d": v}),
    "generate-split": lambda v: generate("subspace_union", {"d": 4, "split": v}),
    "generate-seed": lambda v: generate("identity_pair", {"d": 2}, v),
    "generate-base-seed": lambda v: generate(
        "perturbed", {"base": {"family": "dft_pair", "params": {"d": 2}, "seed": v}}),
    "sample_admissible-seed": lambda v: sample_admissible(SPACE, v),
    "exhaustive_verify-trials": lambda v: exhaustive_verify(DFT4, SPACE, v),
    "exhaustive_verify-seed": lambda v: exhaustive_verify(DFT4, SPACE, 3, seed=v),
    "exhaustive_verify-concentrated_subsample":
        lambda v: exhaustive_verify(DFT4, SPACE, 3, concentrated_subsample=v),
    "min_sparsity_product-guard": lambda v: min_sparsity_product(DFT4, SPACE, guard=v),
    "verify_fskpb-set_m": lambda v: verify_fskpb(DFT4, X, [v], [0]),
    "verify_fskpb-set_n": lambda v: verify_fskpb(DFT4, X, [0], [1, v]),
    "concentration_epsilon-index": lambda v: concentration_epsilon(X, {v}),
    "best_set-size": lambda v: best_set(X, v),
    "dft_matrix-d": lambda v: dft_matrix(v),
    "identity_system-d": lambda v: identity_system(v),
}

INVALID = [math.nan, math.inf, 2.5, np.float32(2.5), "3", True, None, -1]
INVALID_IDS = ["nan", "inf", "fractional", "float32-fractional", "string", "bool", "none",
               "negative"]


@pytest.mark.parametrize("value", INVALID, ids=INVALID_IDS)
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_invalid_integer_rejected(call, value):
    with pytest.raises(ParameterError, match="must be an integer >= "):
        call(value)


@pytest.mark.parametrize("value", INVALID, ids=INVALID_IDS)
@pytest.mark.parametrize("load", [
    lambda v: system_from_dict({"field": "real", "d": v, "n": 1, "vectors": [[1.0]],
                                "functionals": [[1.0]]}),
    lambda v: signal_from_dict({"coordinates": [1.0, 0.0, 0.0], "d": v}),
], ids=["system-d", "signal-d"])
def test_invalid_document_integer_is_structural(load, value):
    # A file's integers follow the same rule but are a structural error.
    with pytest.raises(StructuralError, match="must be an integer >= 0"):
        load(value)


@pytest.mark.parametrize("value", [4, 4.0, np.int64(4), np.float32(4.0), np.uint8(4)])
def test_valid_integer_is_an_int(value):
    got = _valid_integer("d", value, 1)
    assert got == 4 and type(got) is int


@pytest.mark.parametrize("value", [np.bool_(True), 1j, [4], "4", b"4", 4.5, -math.inf])
def test_non_integer_rejected(value):
    with pytest.raises(ParameterError):
        _valid_integer("d", value, 0)


@pytest.mark.parametrize("text", ["4", "4.0", "4e0", "0.4E+1", "40e-1", " 4 "])
def test_flag_text_integer_is_an_int(text):
    # Command-line text is read as a JSON number, then by the integer rule.
    got = _number("--d", text, _valid_integer, 1)
    assert got == 4 and type(got) is int


@pytest.mark.parametrize("text", ["1_0", "\u0664", "1\u0664", "0x4", "+4", "007", ".5", "4.",
                                  "nan", "NaN", "Infinity", "true", '"4"', "[4]", "4.5",
                                  "-1", "1e999", "", "4 4"])
def test_flag_text_not_an_integer_rejected(text):
    with pytest.raises(ParameterError, match="--seed must be an integer >= 0"):
        _number("--seed", text, _valid_integer, 0)


def test_below_least_rejected():
    assert _valid_integer("trials", 1, 1) == 1
    with pytest.raises(ParameterError, match="trials must be an integer >= 1, got 0"):
        _valid_integer("trials", 0, 1)


def test_integral_float_seed_keeps_int_bits():
    want = sample_admissible(SPACE, 4)
    for seed in (4.0, np.int64(4), np.float64(4.0)):
        assert sample_admissible(SPACE, seed).tobytes() == want.tobytes()


def test_integral_float_family_parameters_keep_int_bits():
    base = {"family": "subspace_union", "params": {"d": 5, "split": 2}}
    for family, params, floats in [
        ("subspace_union", {"d": 5, "split": 2}, {"d": 5.0, "split": 2.0}),
        ("perturbed", {"base": {**base, "seed": 3}}, {"base": {**base, "seed": 3.0}}),
    ]:
        want, got = generate(family, params, 4), generate(family, floats, 4.0)
        for a, b in ((want.first, got.first), (want.second, got.second)):
            assert a.vectors.tobytes() == b.vectors.tobytes()
            assert a.functionals.tobytes() == b.functionals.tobytes()


def test_integral_float_sweep_equals_int_sweep():
    # tol_fp = 0 fails every trial with a nonzero residual, so failing_trials
    # is not empty, and its trial indices stay ints.
    b = generate("dft_pair", {"d": 8})
    space = admissible_space(b)
    want = exhaustive_verify(b, space, 4, seed=3, tol_fp=0.0)
    got = exhaustive_verify(b, space, trials=4.0, seed=3.0, tol_fp=0.0)
    assert got == want
    assert got.failing_trials
    assert all(type(t) is int for t in got.failing_trials)
    assert type(got.trials) is int
    assert exhaustive_verify(b, space, 4, seed=np.int64(3), tol_fp=0.0) == want


def test_integral_float_sizes_equal_int_sizes():
    assert best_set(X, 2.0) == best_set(X, 2)
    assert concentration_epsilon(X, [1.0, np.int64(2)]) == concentration_epsilon(X, [1, 2])
    assert verify_fskpb(DFT4, X, [0.0], [1.0]) == verify_fskpb(DFT4, X, [0], [1])
    assert dft_matrix(4.0).tobytes() == dft_matrix(4).tobytes()
    assert identity_system(np.int64(3)).vectors.tobytes() == identity_system(3).vectors.tobytes()


@pytest.mark.parametrize("guard", [math.nan, None, 2.5])
def test_invalid_guard_refused_before_search(monkeypatch, guard):
    def project(*args):
        raise AssertionError("searched with an invalid guard")

    monkeypatch.setattr(oracle, "_project", project)
    with pytest.raises(ParameterError, match="guard"):
        min_sparsity_product(DFT4, SPACE, guard=guard)


def test_integer_guard_below_search_space_exceeded():
    # Any integer guard >= 0 is valid; one below n + m = 8 is a verdict, not an error.
    for guard in (0, 7):
        with pytest.raises(GuardExceededError):
            min_sparsity_product(DFT4, SPACE, guard=guard)
    report = min_sparsity_product(DFT4, SPACE, guard=8.0)
    assert report.guard == 8 and type(report.guard) is int
