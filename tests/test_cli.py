import json

import numpy as np
import pytest

from sparsebounds import generate, identity_system
from sparsebounds.cli import main
from sparsebounds.serialization import (
    bisystem_to_dict,
    canonical_json,
    signal_to_dict,
    system_to_dict,
)
from sparsebounds.systems import PairedSystem


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def mercedes_benz_file(tmp_path):
    angles = np.deg2rad([90.0, 210.0, 330.0])
    mb = np.sqrt(2.0 / 3.0) * np.vstack([np.cos(angles), np.sin(angles)])
    path = tmp_path / "mb.json"
    path.write_text(canonical_json(system_to_dict(PairedSystem(mb, mb.T))))
    return str(path)


class TestValidate:
    def test_identity_passes(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        path.write_text(canonical_json(system_to_dict(identity_system(3))))
        code, doc = run(capsys, "validate", str(path))
        assert code == 0
        assert doc["ok"] is True
        assert doc["manifest"]["command"] == "validate"

    def test_mercedes_benz_fails(self, tmp_path, capsys):
        code, doc = run(capsys, "validate", mercedes_benz_file(tmp_path))
        assert code == 2
        assert doc["ok"] is False
        assert doc["diagonals"] == pytest.approx([2.0 / 3.0] * 3)

    def test_truncated_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"field": "real", "d": 2')
        code = main(["validate", str(path)])
        assert code == 1

    def test_non_object_json(self, tmp_path, capsys):
        path = tmp_path / "five.json"
        path.write_text("5")
        assert main(["validate", str(path)]) == 1
        assert "must be a JSON object" in capsys.readouterr().err


class TestCoherence:
    def test_bisystem_profile(self, tmp_path, capsys):
        b = generate("dft_pair", {"d": 4}, 0)
        path = tmp_path / "b.json"
        path.write_text(canonical_json(bisystem_to_dict(b)))
        code, doc = run(capsys, "coherence", str(path))
        assert code == 0
        assert doc["cross_f_omega"] == pytest.approx(0.5)

    def test_single_system(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        path.write_text(canonical_json(system_to_dict(identity_system(2))))
        code, doc = run(capsys, "coherence", str(path))
        assert code == 0
        assert doc["sub_coherence"] == 0.0
        assert set(doc) == {"sub_coherence", "gram_diagonal", "manifest"}

    def test_non_object_json(self, tmp_path, capsys):
        path = tmp_path / "five.json"
        path.write_text("5")
        assert main(["coherence", str(path)]) == 1
        assert "must hold a JSON object" in capsys.readouterr().err

    def test_bisystem_without_json_suffix(self, tmp_path, capsys):
        b = generate("dft_pair", {"d": 4}, 0)
        path = tmp_path / "bis.txt"
        path.write_text(canonical_json(bisystem_to_dict(b)))
        code, doc = run(capsys, "coherence", str(path))
        assert code == 0
        assert doc["cross_f_omega"] == pytest.approx(0.5)


SYSTEM_1X1 = {"field": "real", "d": 1, "n": 1, "vectors": [[1.0]], "functionals": [[1.0]]}
CSV_MANIFEST = {"field": "real", "d": 1, "n": 1, "vectors_csv": "v.csv"}


def descriptor(family, params, **extra):
    return json.dumps({"family": family, "params": params, **extra})


@pytest.mark.parametrize("files,argv", [
    ({"desc.json": "5"}, ["verify", "--descriptor", "desc.json", "--sample", "1"]),
    ({"desc.json": descriptor("dft_pair", {"d": 4}, seed="x")},
     ["verify", "--descriptor", "desc.json", "--sample", "1"]),
    ({"desc.json": descriptor("dft_pair", [1, 2])},
     ["verify", "--descriptor", "desc.json", "--sample", "1"]),
    ({"desc.json": descriptor("rotated_pair", {"d": 2, "angle": "x"})},
     ["verify", "--descriptor", "desc.json", "--sample", "1"]),
    ({"desc.json": descriptor("perturbed", {"base": {"family": "dft_pair", "params": {"d": 3}},
                                            "magnitude": "big"})},
     ["verify", "--descriptor", "desc.json", "--sample", "1"]),
    ({"desc.json": descriptor("perturbed", {"base": {"family": "subspace_union",
                                                     "params": {"d": 3}, "seed": "x"}})},
     ["verify", "--descriptor", "desc.json", "--sample", "1"]),
    ({"desc.json": descriptor("subspace_union", {"d": 4, "split": "x"})},
     ["search", "--descriptor", "desc.json"]),
    ({"sys.json": json.dumps({**SYSTEM_1X1, "d": "x"})}, ["validate", "sys.json"]),
    ({"sys.json": json.dumps(CSV_MANIFEST), "v.csv": "1\n"}, ["validate", "sys.json"]),
    ({"sys.json": json.dumps({**CSV_MANIFEST, "functionals_csv": "missing.csv"}),
      "v.csv": "1\n"}, ["coherence", "sys.json"]),
    ({"sig.json": json.dumps({"coordinates": [1, 0, 0, 0], "d": "x"})},
     ["verify", "--family", "dft_pair", "--d", "4", "--signal", "sig.json"]),
    ({"bin.json": b"\xff\xfe"}, ["validate", "bin.json"]),
    ({"sys.json": json.dumps({**CSV_MANIFEST, "functionals_csv": "v.csv"}), "v.csv": b"\xff\n"},
     ["validate", "sys.json"]),
    ({"bis.json": canonical_json(bisystem_to_dict(generate("rotated_pair", {"d": 2}))),
      "sig.json": canonical_json(signal_to_dict(np.array([1.0, 1j])))},
     ["verify", "--bisystem", "bis.json", "--signal", "sig.json"]),
    ({}, ["verify", "--family", "dft_pair", "--d", "4", "--sample", "-1"]),
    ({}, ["sample", "--family", "subspace_union", "--d", "4", "--split", "2", "--seed", "-3"]),
    ({"desc.json": descriptor("perturbed", {"base": {"family": "dft_pair",
                                                     "params": {"d": 3}, "seed": -2}})},
     ["verify", "--descriptor", "desc.json", "--sample", "1"]),
], ids=["descriptor-not-object", "descriptor-seed", "descriptor-params-list", "angle",
        "magnitude", "base-seed", "split", "system-d", "csv-manifest-no-functionals",
        "csv-missing-file", "signal-d", "json-not-utf8", "csv-not-utf8",
        "complex-signal-real-system", "negative-sample-seed", "negative-seed",
        "negative-base-seed"])
def test_malformed_input_exits_1(tmp_path, monkeypatch, capsys, files, argv):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        path = tmp_path / name
        path.write_bytes(content) if isinstance(content, bytes) else path.write_text(content)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "dft_pair", "--d", "4", "--sample", "1", "--tol-fp", "nan"],
    ["verify", "--family", "dft_pair", "--d", "4", "--sample", "1", "--tol-cert", "nan"],
    ["verify", "--family", "dft_pair", "--d", "4", "--sample", "1", "--eta", "nan"],
    ["verify", "--family", "dft_pair", "--d", "4", "--sample", "1", "--eta", "-1e-9"],
    ["search", "--family", "dft_pair", "--d", "4", "--tol-rank", "-1"],
    ["search", "--family", "dft_pair", "--d", "4", "--tol-rank", "inf"],
    ["search", "--family", "dft_pair", "--d", "4", "--tol-fp", "1e-9"],
    ["search", "--family", "dft_pair", "--d", "4", "--tol-cert", "1e-9"],
    ["sample", "--family", "dft_pair", "--d", "4", "--tol-rank", "x"],
    ["validate", "sys.json", "--eta-hyp", "nan"],
    ["verify", "--family", "dft_pair", "--d", "x"],
    ["verify", "--family", "dft_pair", "--d", "4", "--unknown"],
    [],
], ids=["tol-fp-nan", "tol-cert-nan", "eta-nan", "eta-negative", "tol-rank-negative",
        "tol-rank-inf", "search-tol-fp", "search-tol-cert", "tol-rank-text", "eta-hyp-nan",
        "d-not-int", "unknown-flag", "no-command"])
def test_usage_error_exits_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_seed_environment_not_integer_exits_1(monkeypatch, capsys):
    monkeypatch.setenv("SPARSEBOUNDS_SEED", "x")
    assert main(["sample", "--family", "dft_pair", "--d", "4"]) == 1
    assert capsys.readouterr().err.startswith("error: $SPARSEBOUNDS_SEED")


def test_tolerance_flags_accept_zero(capsys):
    code, doc = run(capsys, "verify", "--family", "dft_pair", "--d", "4", "--sample", "1",
                    "--tol-fp", "0", "--tol-cert", "0.0", "--eta", "0")
    assert code in (0, 2)
    assert doc["manifest"]["parameters"]["tol_fp"] == 0.0 == doc["eta"]


class TestVerify:
    def test_family_sample(self, capsys):
        code, doc = run(capsys, "verify", "--family", "dft_pair", "--d", "4",
                        "--sample", "42")
        assert code == 0
        assert doc["hypothesis_ok"] and doc["satisfied"]

    def test_concentrated_sets(self, capsys):
        code, doc = run(capsys, "verify", "--family", "dft_pair", "--d", "4",
                        "--sample", "42", "--set-m", "0", "--set-n", "0,1")
        assert code in (0, 2)
        assert doc["epsilon"] is not None and doc["delta"] is not None
        assert doc["lhs"] == 2.0

    def test_zero_signal(self, tmp_path, capsys):
        sig = tmp_path / "zero.json"
        sig.write_text(canonical_json(signal_to_dict(np.zeros(4))))
        code = main(["verify", "--family", "dft_pair", "--d", "4",
                     "--signal", str(sig)])
        assert code == 1

    def test_explicit_signal(self, tmp_path, capsys):
        sig = tmp_path / "comb.json"
        sig.write_text(canonical_json(signal_to_dict(
            np.array([1.0 + 0j, 0.0, 1.0, 0.0]))))
        code, doc = run(capsys, "verify", "--family", "dft_pair", "--d", "4",
                        "--signal", str(sig))
        assert code == 0
        assert doc["lhs"] == 4.0


class TestSearch:
    def test_dft_pair(self, capsys):
        code, doc = run(capsys, "search", "--family", "dft_pair", "--d", "4")
        assert code == 0
        assert doc["best_lhs"] == 4
        assert abs(doc["gap"]) <= 1e-9

    def test_identity_pair(self, capsys):
        code, doc = run(capsys, "search", "--family", "identity_pair", "--d", "2")
        assert code == 0
        assert doc["best_lhs"] == 1

    def test_guard_exceeded(self, capsys):
        code = main(["search", "--family", "dft_pair", "--d", "15"])
        assert code == 4


class TestGenerate:
    def test_rotated_pair(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, _ = run(capsys, "generate", "--family", "rotated_pair", "--d", "2",
                      "--angle", "45", "--seed", "0", "--out", str(out))
        assert code == 0
        doc = json.loads((out / "bisystem.json").read_text())
        entries = np.abs(np.array(doc["second"]["vectors"]))
        assert entries.max() == pytest.approx(np.sqrt(2) / 2)

    def test_byte_identical_regeneration(self, tmp_path, capsys):
        args = ["generate", "--family", "subspace_union", "--d", "5",
                "--split", "2", "--seed", "9"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert (out1 / "bisystem.json").read_bytes() == (out2 / "bisystem.json").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

    def test_unknown_family(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "--family", "nonsense", "--out", "/tmp/x"])

    def test_perturbed_without_base(self, tmp_path):
        code = main(["generate", "--family", "perturbed", "--d", "3",
                     "--out", str(tmp_path / "p")])
        assert code == 1


class TestSample:
    def test_deterministic(self, capsys):
        code, doc1 = run(capsys, "sample", "--family", "dft_pair", "--d", "4",
                         "--sample", "3")
        assert code == 0
        _, doc2 = run(capsys, "sample", "--family", "dft_pair", "--d", "4",
                      "--sample", "3")
        assert doc1["coordinates"] == doc2["coordinates"]

    def test_no_admissible_signal(self, tmp_path, capsys):
        eye = np.eye(2)
        doubled = PairedSystem(np.hstack([eye, eye]), np.vstack([eye, eye]))
        b = {"first": system_to_dict(doubled), "second": system_to_dict(identity_system(2))}
        path = tmp_path / "b.json"
        path.write_text(canonical_json(b))
        code = main(["sample", "--bisystem", str(path), "--sample", "0"])
        assert code == 3


class TestReproducibility:
    def test_verify_rerun_byte_identical(self, capsys):
        args = ["verify", "--family", "rotated_pair", "--d", "2", "--angle", "45",
                "--sample", "7"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_table_format(self, capsys):
        code = main(["search", "--family", "identity_pair", "--d", "2",
                     "--format", "table"])
        out = capsys.readouterr().out
        assert code == 0
        assert "best_lhs" in out
