import json

import numpy as np
import pytest

from sparsebounds import coherence, generate, identity_system
from sparsebounds.cli import main
from sparsebounds.coherence import sub_coherence
from sparsebounds.serialization import (
    bisystem_to_dict,
    canonical_json,
    signal_to_dict,
    system_to_dict,
)
from sparsebounds.systems import PairedSystem, validate_pairing
from referees import mercedes_benz


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def overflowed_pairing():
    """A system whose pairing f_0(tau_0) = 1e400 overflows to inf."""
    return PairedSystem([[1e200, 1], [0, 1]], [[1e200, 1e200], [0, 1]])


def mercedes_benz_file(tmp_path):
    mb = mercedes_benz()
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

    def test_overflowed_pairing_fails(self, tmp_path, capsys):
        # f_0(tau_0) = 1e400 overflows to inf, which is no pairing >= 1.
        path = tmp_path / "overflow.json"
        path.write_text(canonical_json(system_to_dict(overflowed_pairing())))
        code, doc = run(capsys, "validate", str(path))
        assert code == 2
        assert doc["ok"] is False and doc["per_index_ok"] == [False, True]

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
    def test_overflowed_pairing_prints_no_warning(self, tmp_path, capsys):
        # The gram diagonal and T F overflow, yet every value kept is finite
        # or fails a hypothesis: no numpy warning on stderr (pytest makes one
        # an error), and each document as before.
        system = overflowed_pairing()
        paths = [tmp_path / name for name in ("system.json", "bisystem.json", "x.json")]
        paths[0].write_text(canonical_json(system_to_dict(system)))
        paths[1].write_text(canonical_json(
            {"first": system_to_dict(system), "second": system_to_dict(identity_system(2))}))
        paths[2].write_text(canonical_json(signal_to_dict(np.array([1.0, 0.0]))))
        codes, docs = [], []
        for argv in (["coherence", paths[0]], ["coherence", paths[1]],
                     ["verify", "--bisystem", paths[1], "--signal", paths[2]]):
            codes.append(main(list(map(str, argv))))
            captured = capsys.readouterr()
            assert captured.err == ""
            docs.append(json.loads(captured.out))
        assert codes == [0, 0, 2]
        assert (docs[0]["sub_coherence"], docs[0]["gram_diagonal"]) == (2e200, [np.inf, 1.0])
        assert {k: v for k, v in docs[1].items() if k != "manifest"} == {
            "cross_f_omega": 1e200, "cross_g_tau": 1e200,
            "sub_coherence_f": 2e200, "sub_coherence_g": 0.0}
        assert docs[2]["coherences"] == {k: v for k, v in docs[1].items() if k != "manifest"}
        assert docs[2]["residuals"] == {"f": np.inf, "g": 0.0}
        assert docs[2]["hypothesis_ok"] is False and docs[2]["satisfied"] is False

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

    def test_single_system_gram_computed_once(self, tmp_path, capsys, monkeypatch):
        # sub_coherence comes from one d x d product, the gram; gram_diagonal
        # is validate's diagonals, bit for bit.
        system = generate("dft_pair", {"d": 5}, 0).second
        want = {"sub_coherence": sub_coherence(system),
                "gram_diagonal": validate_pairing(system).diagonals.tolist()}
        path = tmp_path / "system.json"
        path.write_text(canonical_json(system_to_dict(system)))
        calls = []
        matmul = coherence._matmul

        def spy(a, b):
            calls.append((a, b))
            return matmul(a, b)

        monkeypatch.setattr(coherence, "_matmul", spy)
        code, doc = run(capsys, "coherence", str(path))
        assert code == 0
        assert len(calls) == 1
        assert {key: doc[key] for key in want} == want

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
    ({"desc.json": descriptor("subspace_union", {"d": 4.9, "split": 2.5})},
     ["sample", "--descriptor", "desc.json"]),
    ({"desc.json": descriptor("subspace_union", {"d": 4, "split": 2.5})},
     ["sample", "--descriptor", "desc.json"]),
    ({"desc.json": descriptor("subspace_union", {"d": 4, "split": 2}, seed=1.7)},
     ["sample", "--descriptor", "desc.json"]),
    ({"desc.json": descriptor("perturbed", {"base": {"family": "dft_pair",
                                                     "params": {"d": 3}, "seed": 0.5}})},
     ["verify", "--descriptor", "desc.json", "--sample", "1"]),
    ({"sys.json": json.dumps({"field": "real", "d": 2.5, "n": 2, "vectors": [[1, 0], [0, 1]],
                              "functionals": [[1, 0], [0, 1]]})}, ["validate", "sys.json"]),
    ({"sig.json": json.dumps({"coordinates": [1, 0, 0, 0], "d": 4.5})},
     ["verify", "--family", "dft_pair", "--d", "4", "--signal", "sig.json"]),
    ({"taken": "x"}, ["generate", "--family", "dft_pair", "--d", "2", "--out", "taken"]),
    ({}, ["verify", "--family", "dft_pair", "--d", "4", "--sample", "1",
          "--out", "missing_dir/x.json"]),
    ({"sig.json": json.dumps({"field": "nonsense", "coordinates": [1, 0, 0, 0]})},
     ["verify", "--family", "dft_pair", "--d", "4", "--signal", "sig.json"]),
    ({}, ["generate", "--out", "out"]),
], ids=["descriptor-not-object", "descriptor-seed", "descriptor-params-list", "angle",
        "magnitude", "base-seed", "split", "system-d", "csv-manifest-no-functionals",
        "csv-missing-file", "signal-d", "json-not-utf8", "csv-not-utf8",
        "complex-signal-real-system", "negative-sample-seed", "negative-seed",
        "negative-base-seed", "fractional-d", "fractional-split", "fractional-seed",
        "fractional-base-seed", "fractional-system-d", "fractional-signal-d",
        "generate-out-is-file", "out-parent-missing", "signal-field-tag",
        "generate-no-source"])
def test_malformed_input_exits_1(tmp_path, monkeypatch, capsys, files, argv):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        path = tmp_path / name
        path.write_bytes(content) if isinstance(content, bytes) else path.write_text(content)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("doc,message", [
    ({"family": "dft_pair", "params": {"d": 4}, "sead": 3}, "descriptor file takes no key 'sead'"),
    ({"family": "perturbed", "params": {"base": {"family": "dft_pair", "params": {"d": 4},
                                                 "sed": 3}}},
     "perturbed base takes no key 'sed'"),
], ids=["file", "perturbed-base"])
def test_descriptor_unknown_key_is_named(tmp_path, monkeypatch, capsys, doc, message):
    """A descriptor takes only family, params and seed, at both levels: a
    misspelled seed is refused, not read as the default seed."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "desc.json").write_text(json.dumps(doc))
    assert main(["verify", "--descriptor", "desc.json", "--sample", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}; it takes family, params, seed\n"


@pytest.mark.parametrize("command,sources", [
    ("verify", "--bisystem, --descriptor, or --family"),
    ("search", "--bisystem, --descriptor, or --family"),
    ("sample", "--bisystem, --descriptor, or --family"),
    ("generate", "--descriptor or --family"),
])
def test_missing_source_names_the_command_flags(tmp_path, monkeypatch, capsys, command,
                                                sources):
    monkeypatch.chdir(tmp_path)
    argv = [command, "--out", "out"] if command == "generate" else [command]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: provide {sources}\n"


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
    ["search", "--family", "dft_pair", "--d", "4", "--guard", "-5"],
    ["search", "--family", "dft_pair", "--d", "4", "--guard", "1"],
    ["search", "--family", "dft_pair", "--d", "4", "--guard", "8.5"],
    ["search", "--family", "dft_pair", "--d", "4", "--guard", "++8"],
    ["generate", "--bisystem", "bis.json", "--out", "out"],
    ["generate", "--bisystem", "bis.json", "--family", "identity_pair", "--d", "2",
     "--out", "out"],
], ids=["tol-fp-nan", "tol-cert-nan", "eta-nan", "eta-negative", "tol-rank-negative",
        "tol-rank-inf", "search-tol-fp", "search-tol-cert", "tol-rank-text", "eta-hyp-nan",
        "d-not-int", "unknown-flag", "no-command", "guard-negative", "guard-one",
        "guard-not-int", "guard-double-sign", "generate-bisystem",
        "generate-bisystem-and-family"])
def test_usage_error_exits_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


BISYSTEM_1X1 = {"first": SYSTEM_1X1, "second": SYSTEM_1X1}


@pytest.mark.parametrize("files,argv,manifest", [
    ({"sys.json": json.dumps(SYSTEM_1X1)}, ["validate", "sys.json", "--eta-hyp", "0.25"],
     {"command": "validate", "inputs": {"system": "sys.json"},
      "parameters": {"eta_hyp": 0.25}}),
    ({"sys.json": json.dumps(SYSTEM_1X1)}, ["coherence", "sys.json"],
     {"command": "coherence", "inputs": {"input": "sys.json"}, "parameters": {}}),
    ({"desc.json": descriptor("dft_pair", {"d": 4}, seed=2)},
     ["verify", "--descriptor", "desc.json", "--sample", "3", "--set-m", "1,0", "--set-n", "2",
      "--tol-fp", "1e-8"],
     {"command": "verify",
      "inputs": {"descriptor": {"family": "dft_pair", "params": {"d": 4}, "seed": 2},
                 "sample_seed": 3},
      "parameters": {"eta": 1e-9, "tol_fp": 1e-8, "tol_cert": 1e-9, "tol_rank": 1e-10,
                     "set_m": [0, 1], "set_n": [2]}}),
    ({}, ["search", "--family", "identity_pair", "--d", "2", "--guard", "6", "--eta", "1e-8"],
     {"command": "search",
      "inputs": {"descriptor": {"family": "identity_pair", "params": {"d": 2}, "seed": 0}},
      "parameters": {"eta": 1e-8, "guard": 6, "tol_rank": 1e-10}}),
    ({}, ["generate", "--family", "rotated_pair", "--d", "2", "--seed", "5", "--out", "g"],
     {"command": "generate",
      "inputs": {"descriptor": {"family": "rotated_pair", "params": {"d": 2}, "seed": 5}},
      "parameters": {}}),
    ({"bis.json": json.dumps(BISYSTEM_1X1)},
     ["sample", "--bisystem", "bis.json", "--sample", "4", "--tol-rank", "1e-11"],
     {"command": "sample", "inputs": {"bisystem": "bis.json"},
      "parameters": {"sample_seed": 4, "tol_rank": 1e-11}}),
    ({"sig.json": '{"coordinates": [1, 0, 1, 0]}'},
     ["verify", "--family", "dft_pair", "--d", "4", "--signal", "sig.json"],
     {"command": "verify",
      "inputs": {"descriptor": {"family": "dft_pair", "params": {"d": 4}, "seed": 0},
                 "signal": "sig.json"},
      "parameters": {"eta": 1e-9, "tol_fp": 1e-9, "tol_cert": 1e-9, "tol_rank": 1e-10}}),
], ids=["validate", "coherence", "verify", "search", "generate", "sample", "verify-signal"])
def test_manifest_pinned(tmp_path, monkeypatch, capsys, files, argv, manifest):
    """The whole manifest of each command: every tolerance flag it takes, its
    explicit parameters, its inputs, and the version."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SPARSEBOUNDS_SEED", raising=False)
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    code, doc = run(capsys, *argv)
    assert code in (0, 2)
    assert doc["manifest"] == {**manifest, "version": "0.1.0"}
    if argv[0] == "generate":
        assert json.loads((tmp_path / "g" / "manifest.json").read_text()) == doc["manifest"]


@pytest.mark.parametrize("files,argv", [
    ({"sig.json": '{"coordinates": [NaN, 1, 0, 0]}'},
     ["verify", "--family", "dft_pair", "--d", "4", "--signal", "sig.json"]),
    ({"sig.json": '{"coordinates": [Infinity, 1, 0, 0]}'},
     ["verify", "--family", "dft_pair", "--d", "4", "--signal", "sig.json"]),
    ({"sig.json": '{"coordinates": [1, 0, -Infinity, 0]}'},
     ["verify", "--family", "dft_pair", "--d", "4", "--signal", "sig.json",
      "--set-m", "0", "--set-n", "1"]),
    ({"desc.json": descriptor("dft_pair", {"d": "4"})},
     ["verify", "--descriptor", "desc.json", "--sample", "1"]),
    ({"desc.json": descriptor("dft_pair", {"d": True})},
     ["verify", "--descriptor", "desc.json", "--sample", "1"]),
    ({"desc.json": descriptor("dft_pair", {"d": 4}, seed="3")},
     ["verify", "--descriptor", "desc.json", "--sample", "1"]),
    ({"sys.json": json.dumps({**SYSTEM_1X1, "d": "1"})}, ["validate", "sys.json"]),
    ({}, ["verify", "--family", "dft_pair", "--d", "4", "--angle", "30", "--sample", "1"]),
    ({}, ["verify", "--family", "dft_pair", "--d", "4", "--base", "dft_pair", "--sample", "1"]),
    ({}, ["sample", "--family", "perturbed", "--base", "dft_pair", "--d", "4", "--split", "2"]),
    ({"desc.json": descriptor("rotated_pair", {"d": 3, "angel": 30})},
     ["sample", "--descriptor", "desc.json"]),
    ({"desc.json": descriptor("no_such_family", {"d": 3})},
     ["sample", "--descriptor", "desc.json"]),
    ({"desc.json": descriptor("rotated_pair", {"d": 3, "angle": "30"})},
     ["verify", "--descriptor", "desc.json", "--sample", "1"]),
    ({"desc.json": descriptor("rotated_pair", {"d": 3, "angle": True})},
     ["verify", "--descriptor", "desc.json", "--sample", "1"]),
    ({"desc.json": descriptor("perturbed", {"base": {"family": "dft_pair", "params": {"d": 3}},
                                            "magnitude": "0.1"})},
     ["sample", "--descriptor", "desc.json"]),
    ({}, ["verify", "--family", "rotated_pair", "--d", "3", "--angle", "nan", "--sample", "1"]),
    ({}, ["verify", "--family", "dft_pair", "--d", "4", "--sample", "1", "--set-m", "a,b",
          "--set-n", "0"]),
    ({}, ["verify", "--family", "dft_pair", "--d", "4", "--sample", "42", "--set-m", "0"]),
    ({}, ["verify", "--family", "dft_pair", "--d", "4", "--sample", "42", "--set-n", "0"]),
    ({"bis.json": json.dumps(BISYSTEM_1X1)},
     ["verify", "--bisystem", "bis.json", "--family", "identity_pair", "--d", "9", "--angle", "3",
      "--sample", "1"]),
    ({"bis.json": json.dumps(BISYSTEM_1X1)}, ["sample", "--bisystem", "bis.json", "--seed", "2"]),
    ({"bis.json": json.dumps(BISYSTEM_1X1), "desc.json": descriptor("dft_pair", {"d": 4})},
     ["search", "--bisystem", "bis.json", "--descriptor", "desc.json"]),
    ({"sig.json": json.dumps({"coordinates": [1, 0, 0, 0]})},
     ["verify", "--family", "dft_pair", "--d", "4", "--signal", "sig.json", "--sample", "5"]),
    ({"desc.json": descriptor("dft_pair", {"d": 4})},
     ["verify", "--descriptor", "desc.json", "--family", "dft_pair", "--sample", "1"]),
    ({"desc.json": descriptor("dft_pair", {"d": 4})},
     ["sample", "--descriptor", "desc.json", "--d", "8"]),
    ({"desc.json": descriptor("dft_pair", {"d": 4})},
     ["generate", "--descriptor", "desc.json", "--seed", "3", "--out", "g"]),
    ({"desc.json": descriptor("perturbed", {"base": {"family": "dft_pair", "params": {"d": 3}}})},
     ["sample", "--descriptor", "desc.json", "--magnitude", "0.1"]),
    ({"sig.json": json.dumps({"coordinates": [1, 0, 1, 0]})},
     ["verify", "--family", "dft_pair", "--d", "4", "--signal", "sig.json", "--tol-rank", "0.5"]),
    ({"sys.json": json.dumps({**CSV_MANIFEST, "functionals_csv": "f.csv"}),
      "v.csv": "1_0\n", "f.csv": "\u0664\n"}, ["validate", "sys.json"]),
    ({"deep.json": "[" * 10000 + "]" * 10000}, ["coherence", "deep.json"]),
    ({"desc.json": descriptor("dft_pair", [["d", 4]], seed=0)},
     ["sample", "--descriptor", "desc.json"]),
], ids=["signal-nan", "signal-infinity", "concentrated-signal-infinity", "descriptor-d-string",
        "descriptor-d-bool", "descriptor-seed-string", "system-d-string", "unused-angle",
        "base-without-perturbed", "unused-base-split", "misspelled-parameter",
        "unknown-family", "descriptor-angle-string", "descriptor-angle-bool",
        "descriptor-magnitude-string", "angle-nan", "set-m-not-integers",
        "set-m-without-set-n", "set-n-without-set-m",
        "bisystem-with-family-flags", "bisystem-with-seed", "bisystem-with-descriptor",
        "signal-with-sample", "descriptor-with-family", "descriptor-with-d",
        "descriptor-with-seed", "descriptor-with-magnitude", "signal-with-tol-rank",
        "csv-entries-outside-number-grammar", "json-nested-too-deep", "descriptor-params-array"])
def test_refused_input_exits_1_with_no_output(tmp_path, monkeypatch, capsys, files, argv):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


# Each numeric flag (and set index) with an argv that reads it at V, and the
# two texts of one integral value it accepts.
NUMERIC_FLAGS = {
    "d": (["sample", "--family", "identity_pair", "--d", "V", "--sample", "1"], "4"),
    "split": (["sample", "--family", "subspace_union", "--d", "5", "--split", "V",
               "--sample", "1"], "4"),
    "seed": (["sample", "--family", "subspace_union", "--d", "5", "--split", "2", "--seed", "V",
              "--sample", "1"], "4"),
    "sample": (["sample", "--family", "dft_pair", "--d", "4", "--sample", "V"], "4"),
    "angle": (["verify", "--family", "rotated_pair", "--d", "2", "--angle", "V",
               "--sample", "1"], "4"),
    "magnitude": (["sample", "--family", "perturbed", "--base", "dft_pair", "--d", "3",
                   "--magnitude", "V"], "0"),
    "guard": (["search", "--family", "identity_pair", "--d", "2", "--guard", "V"], "4"),
    "eta": (["verify", "--family", "dft_pair", "--d", "4", "--signal", "comb.json",
             "--eta", "V"], "4"),
    "eta-hyp": (["validate", "sys.json", "--eta-hyp", "V"], "4"),
    "tol-fp": (["verify", "--family", "dft_pair", "--d", "4", "--sample", "1",
                "--tol-fp", "V"], "4"),
    "tol-cert": (["verify", "--family", "dft_pair", "--d", "4", "--sample", "1",
                  "--tol-cert", "V"], "4"),
    "tol-rank": (["sample", "--family", "dft_pair", "--d", "4", "--sample", "1",
                  "--tol-rank", "V"], "4"),
    "set-index": (["verify", "--family", "dft_pair", "--d", "4", "--sample", "1",
                   "--set-m", "0,V", "--set-n", "V"], "3"),
    "$SPARSEBOUNDS_SEED": (["sample", "--family", "dft_pair", "--d", "4"], "4"),
}

# Text that is no JSON number, or one no rule of the flag's kind accepts.
NOT_NUMBERS = ["1_0", "\u0664", "0x4", "+4", "007", ".5", "4.", "nan", "Infinity", "true"]


def run_flag(tmp_path, monkeypatch, flag, text):
    """Exit code of the flag's argv with its value at text;
    usage errors exit through SystemExit, the others return."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sys.json").write_text(json.dumps(SYSTEM_1X1))
    (tmp_path / "comb.json").write_text(json.dumps({"coordinates": [8, 0, 8, 0]}))
    argv, _ = NUMERIC_FLAGS[flag]
    monkeypatch.delenv("SPARSEBOUNDS_SEED", raising=False)
    if flag.startswith("$"):
        monkeypatch.setenv(flag[1:], text)
    try:
        code = main([a.replace("V", text) for a in argv])
    except SystemExit as exc:
        code = exc.code
    return code


@pytest.mark.parametrize("flag", NUMERIC_FLAGS)
def test_integral_float_flag_text_means_the_integer(tmp_path, monkeypatch, capsys, flag):
    """4 and 4.0 are one value, as in a descriptor file: same stdout, bytes and all."""
    value = NUMERIC_FLAGS[flag][1]
    outputs = []
    for text in (value, value + ".0"):
        code = run_flag(tmp_path, monkeypatch, flag, text)
        captured = capsys.readouterr()
        assert code in (0, 2), captured.err
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("text", NOT_NUMBERS)
@pytest.mark.parametrize("flag", NUMERIC_FLAGS)
def test_flag_text_not_a_json_number_exits_1(tmp_path, monkeypatch, capsys, flag, text):
    assert run_flag(tmp_path, monkeypatch, flag, text) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_real_flags_recorded_as_floats(capsys):
    """Integral text on a real flag is recorded as the float it means."""
    assert main(["verify", "--family", "rotated_pair", "--d", "2", "--angle", "30",
                 "--sample", "1", "--eta", "0"]) in (0, 2)
    out = capsys.readouterr().out
    assert '"angle": 30.0' in out and '"eta": 0.0' in out


def test_certified_set_recorded_deduplicated(capsys):
    """The manifest records the set the certificate used: sorted, distinct ints."""
    code, doc = run(capsys, "verify", "--family", "dft_pair", "--d", "4", "--sample", "1",
                    "--set-m", "0,0", "--set-n", "1.0,1")
    assert code in (0, 2)
    assert doc["lhs"] == 1.0
    assert doc["manifest"]["parameters"]["set_m"] == [0]
    assert doc["manifest"]["parameters"]["set_n"] == [1]


def test_integral_floats_accepted(tmp_path, capsys):
    """Descriptor numbers with no fractional part count as the integers they equal."""
    docs = []
    for d, split, seed in ((4, 2, 3), (4.0, 2.0, 3.0)):
        path = tmp_path / f"desc-{d}.json"
        path.write_text(descriptor("subspace_union", {"d": d, "split": split}, seed=seed))
        code, doc = run(capsys, "sample", "--descriptor", str(path), "--sample", "5")
        assert code == 0
        docs.append(doc["coordinates"])
    assert docs[0] == docs[1]


def test_guard_two_accepted(capsys):
    """The least n + m of a bisystem is 2, so --guard 2 is a valid flag value."""
    assert main(["search", "--family", "identity_pair", "--d", "1", "--guard", "2"]) == 0
    capsys.readouterr()


def test_seed_environment_not_integer_exits_1(monkeypatch, capsys):
    monkeypatch.setenv("SPARSEBOUNDS_SEED", "x")
    assert main(["sample", "--family", "dft_pair", "--d", "4"]) == 1
    assert capsys.readouterr().err.startswith("error: $SPARSEBOUNDS_SEED")


def test_tolerance_flags_accept_zero(capsys):
    code, doc = run(capsys, "verify", "--family", "dft_pair", "--d", "4", "--sample", "1",
                    "--tol-fp", "0", "--tol-cert", "0.0", "--eta", "0")
    assert code in (0, 2)
    assert doc["manifest"]["parameters"]["tol_fp"] == 0.0 == doc["eta"]


# README's "Certificate JSON fields".
CERTIFICATE_KEYS = {"lhs", "rhs", "numerator_f", "numerator_g", "coherences", "residuals",
                    "epsilon", "delta", "hypothesis_ok", "satisfied", "vacuous", "eta",
                    "tol_fp", "tol_cert"}


@pytest.mark.parametrize("sets", [(), ("--set-m", "0", "--set-n", "0,1")],
                         ids=["flat", "concentrated"])
def test_certificate_document_schema(capsys, sets):
    code, doc = run(capsys, "verify", "--family", "dft_pair", "--d", "4", "--sample", "42",
                    *sets)
    assert code == 0
    assert set(doc) == CERTIFICATE_KEYS | {"signal", "manifest"}
    assert set(doc["coherences"]) == {"sub_coherence_f", "sub_coherence_g",
                                      "cross_f_omega", "cross_g_tau"}
    assert set(doc["residuals"]) == {"f", "g"}
    defects = [doc["epsilon"], doc["delta"]]
    assert defects == [None, None] if not sets else None not in defects


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

    def test_empty_set(self, capsys):
        # An empty M holds none of the mass: epsilon = 1 and o_m = 0.
        code, doc = run(capsys, "verify", "--family", "dft_pair", "--d", "4",
                        "--sample", "42", "--set-m", "", "--set-n", "0")
        assert code == 0
        assert doc["epsilon"] == 1.0 and doc["lhs"] == 0.0
        assert doc["manifest"]["parameters"]["set_m"] == []

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

    @pytest.mark.parametrize("argv", [["verify", "--sample", "1"], ["search"]])
    def test_huge_vectors_refused_with_one_line(self, tmp_path, capsys, argv):
        # I - TF = (1 - 1e200) I: its Frobenius norm's squares overflow.
        huge = PairedSystem(1e200 * np.eye(2), np.eye(2))
        b = {"first": system_to_dict(huge), "second": system_to_dict(identity_system(2))}
        path = tmp_path / "big.json"
        path.write_text(canonical_json(b))
        assert main([argv[0], "--bisystem", str(path), *argv[1:]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: admissible subspace is trivial (w = 0)\n"

    def test_overflowing_products_exit_1_with_no_output(self, tmp_path, capsys):
        # T F overflows, so the stack is refused before its SVD: one stderr
        # line, and no numpy warning above it.
        b = {"first": system_to_dict(overflowed_pairing()),
             "second": system_to_dict(identity_system(2))}
        path = tmp_path / "overflow.json"
        path.write_text(canonical_json(b))
        assert main(["verify", "--bisystem", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: admissible basis contains non-finite entries\n"


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
