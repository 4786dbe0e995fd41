"""Tests of the benchmark itself, at smoke size; kept out of the program's
test suite (pytest collects only `tests/` by default).

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import sparsebounds as sb  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# (operations that fail on the rescaling fault, operations) per smoke round.
KNOWN_FAILED = {"oracle_search": (0, 9), "certify_batch": (1, 7),
                "certify_large": (0, 4), "cli": (1, 10)}


def run(*args, root=HERE):
    return subprocess.run([sys.executable, str(root / "run.py"), *args], capture_output=True,
                          text=True, timeout=170)


def smoke(workload, trace, seed=3):
    proc = run("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
               "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = smoke(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    failed, per_round = KNOWN_FAILED[workload]
    assert result["attempted"] % per_round == 0
    assert result["failed"] * per_round == failed * result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_exactly(workload):
    first, second = smoke(workload, trace=1), smoke(workload, trace=1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name, m in first["metrics"].items():
        if m["unit"] in ("count", "bytes", "ratio"):
            assert m["value"] == second["metrics"][name]["value"], name
    if workload == "oracle_search":
        assert first["metrics"]["oracle.svd_per_pattern"]["value"] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("--workload", "oracle_search", "--seed", "1", "--seconds", "1",
               root=tmp_path / "bench")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_search_check_rejects_a_wrong_minimum():
    b = sb.generate("dft_pair", {"d": 4})
    report = sb.min_sparsity_product(b, sb.admissible_space(b))
    assert workloads._check_search(report, ref.dft_pair(4), 4) == []
    assert workloads._check_search(report, ref.dft_pair(4), 3)
    shifted = type(report)(**{**report.__dict__, "best_lhs": 5})
    assert workloads._check_search(shifted, ref.dft_pair(4), None)


def test_reference_sees_the_rescaled_instance_as_valid():
    for c in (1.0, 1e4, 1e10):
        inst = ref.rescaled_dft_pair(4, c)
        assert inst.diagonals_ok()
        basis = inst.admissible_basis()
        assert basis.shape[1] == 4
        expected = ref.exhaustive_expectation(inst, basis, 5, 0, 2)
        assert expected["satisfied"] == 5
        assert expected["concentrated_satisfied"] == expected["concentrated_checked"]


def test_tracer_restores_every_binding():
    import sparsebounds.cli  # noqa: F401

    before = (sb.min_sparsity_product, sb.oracle.null_space_basis, sb.bounds.coherence_profile)
    tracer = Tracer()
    tracer.install()
    try:
        b = sb.generate("dft_pair", {"d": 3})
        sb.min_sparsity_product(b, sb.admissible_space(b))
    finally:
        tracer.uninstall()
    assert (sb.min_sparsity_product, sb.oracle.null_space_basis,
            sb.bounds.coherence_profile) == before
    assert tracer.calls("oracle.min_sparsity_product") == 1
    assert tracer.calls_under("admissible.null_space_basis", "oracle.min_sparsity_product") > 0
    total = sum(s[3] - s[2] for s in tracer.spans if s[1] == -1)
    assert abs(sum(s[4] for s in tracer.spans) - total) < 1e-6
