import json

import numpy as np
import pytest

from sparsebounds import generate, identity_system
from sparsebounds.errors import StructuralError
from sparsebounds.serialization import (
    _parse_entry,
    bisystem_from_dict,
    bisystem_to_dict,
    canonical_json,
    load_json,
    load_system,
    signal_from_dict,
    signal_to_dict,
    system_from_dict,
    system_to_dict,
)


class TestSystemRoundTrip:
    def test_real(self):
        s = generate("subspace_union", {"d": 4, "split": 2}, 0).first
        back = system_from_dict(system_to_dict(s))
        np.testing.assert_array_equal(back.vectors, s.vectors)
        np.testing.assert_array_equal(back.functionals, s.functionals)
        assert back.field == "real"

    def test_complex(self):
        s = generate("dft_pair", {"d": 3}, 0).second
        back = system_from_dict(system_to_dict(s))
        np.testing.assert_array_equal(back.vectors, s.vectors)
        assert back.field == "complex"

    def test_bisystem(self):
        b = generate("rotated_pair", {"d": 2, "angle": 30.0}, 0)
        back = bisystem_from_dict(bisystem_to_dict(b))
        np.testing.assert_array_equal(back.second.vectors, b.second.vectors)

    def test_missing_keys(self):
        with pytest.raises(StructuralError):
            system_from_dict({"field": "real", "d": 2})

    def test_shape_mismatch_rejected(self):
        doc = system_to_dict(identity_system(3))
        doc["d"] = 2
        with pytest.raises(StructuralError):
            system_from_dict(doc)

    def test_bad_field_tag(self):
        doc = system_to_dict(identity_system(2))
        doc["field"] = "quaternion"
        with pytest.raises(StructuralError):
            system_from_dict(doc)


class TestSignalRoundTrip:
    def test_real(self):
        x = np.array([1.0, -2.5, 0.0])
        np.testing.assert_array_equal(signal_from_dict(signal_to_dict(x)), x)

    def test_complex(self):
        x = np.array([1 + 2j, 0.0, -1j])
        np.testing.assert_array_equal(signal_from_dict(signal_to_dict(x)), x)

    def test_complex_negative_zero_bits(self):
        x = np.array([complex(-0.0, 1.0), complex(2.0, -0.0), complex(-0.0, -0.0)])
        back = signal_from_dict(json.loads(canonical_json(signal_to_dict(x))))
        assert back.dtype == x.dtype and back.tobytes() == x.tobytes()

    def test_length_mismatch(self):
        with pytest.raises(StructuralError):
            signal_from_dict({"field": "real", "d": 5, "coordinates": [1.0, 2.0]})


SYSTEM_3X3 = system_to_dict(identity_system(3))


@pytest.mark.parametrize("load,doc,match", [
    (system_from_dict, 5, "must be a JSON object"),
    (bisystem_from_dict, {"first": SYSTEM_3X3}, "needs 'first' and 'second'"),
    (signal_from_dict, {"field": "real", "d": 3}, "needs 'coordinates'"),
    (system_from_dict, {**SYSTEM_3X3, "vectors": [["a", 0, 0], [0, 1, 0], [0, 0, 1]]},
     "cannot parse vectors"),
    (system_from_dict, {**SYSTEM_3X3, "field": "complex"}, r"must be \[re, im\] pairs"),
], ids=["system-not-object", "bisystem-without-second", "signal-without-coordinates",
        "unparseable-matrix", "complex-entries-not-pairs"])
def test_malformed_document_refused(load, doc, match):
    with pytest.raises(StructuralError, match=match):
        load(doc)


def test_missing_json_file_refused(tmp_path):
    with pytest.raises(StructuralError, match="cannot read"):
        load_json(tmp_path / "missing.json")


class TestCsvLoader:
    def test_real_csv(self, tmp_path):
        np_eye = np.eye(2)
        (tmp_path / "vectors.csv").write_text("1.0,0.0\n0.0,1.0\n")
        (tmp_path / "functionals.csv").write_text("1.0,0.0\n0.0,1.0\n")
        manifest = {
            "field": "real", "d": 2, "n": 2,
            "vectors_csv": "vectors.csv", "functionals_csv": "functionals.csv",
        }
        path = tmp_path / "system.json"
        path.write_text(canonical_json(manifest))
        s = load_system(path)
        np.testing.assert_array_equal(s.vectors, np_eye)

    def test_complex_csv(self, tmp_path):
        (tmp_path / "v.csv").write_text("1j,0\n0,1\n")
        (tmp_path / "f.csv").write_text("-1j,0\n0,1\n")
        manifest = {
            "field": "complex", "d": 2, "n": 2,
            "vectors_csv": "v.csv", "functionals_csv": "f.csv",
        }
        path = tmp_path / "m.json"
        path.write_text(canonical_json(manifest))
        s = load_system(path)
        assert s.vectors[0, 0] == 1j

    @pytest.mark.parametrize("text,value", [
        ("1+2j", 1 + 2j), ("1-2j", 1 - 2j), ("-2j", -2j), ("2.5e-3+1E2j", 0.0025 + 100j),
        ("1e-3-2e-5j", 0.001 - 2e-5j), ("4", 4), ("-0.5", -0.5), ("1+0j", 1),
    ])
    def test_complex_csv_entry(self, text, value):
        assert _parse_entry(text, "complex") == [value.real, value.imag]

    @pytest.mark.parametrize("text", ["1_0+2j", "1+2_0j", "1+\u0664j", "j", "1+j", "1++2j",
                                      "nan+1j", "1+infj", "(1+2j)", "1+2"])
    def test_complex_csv_entry_outside_number_grammar(self, text):
        with pytest.raises(StructuralError, match="cannot parse CSV entry"):
            _parse_entry(text, "complex")

    def test_csv_shape_mismatch(self, tmp_path):
        (tmp_path / "v.csv").write_text("1.0,0.0\n")
        (tmp_path / "f.csv").write_text("1.0,0.0\n0.0,1.0\n")
        manifest = {
            "field": "real", "d": 2, "n": 2,
            "vectors_csv": "v.csv", "functionals_csv": "f.csv",
        }
        path = tmp_path / "m.json"
        path.write_text(canonical_json(manifest))
        with pytest.raises(StructuralError):
            load_system(path)


    @pytest.mark.parametrize("row,match", [
        ("1.0,x", "cannot parse CSV entry"),
        ("1.0,1+2j", "complex entry '1\\+2j' in a real-field matrix"),
        # Entries are number text, read as a flag's: each of these is refused.
        ("1_0,0.0", "cannot parse CSV entry '1_0'"),
        ("\u0664,0.0", "cannot parse CSV entry '\u0664'"),
        ("+4,0.0", "cannot parse CSV entry '\\+4'"),
        ("nan,0.0", "cannot parse CSV entry 'nan'"),
        ("1.0,", "cannot parse CSV entry ''"),
    ], ids=["unparseable-entry", "complex-entry-real-field", "underscore", "arabic-indic-digit",
            "leading-plus", "nan", "empty"])
    def test_bad_csv_entry(self, tmp_path, row, match):
        (tmp_path / "v.csv").write_text(f"{row}\n0.0,1.0\n")
        (tmp_path / "f.csv").write_text("1.0,0.0\n0.0,1.0\n")
        manifest = {
            "field": "real", "d": 2, "n": 2,
            "vectors_csv": "v.csv", "functionals_csv": "f.csv",
        }
        path = tmp_path / "m.json"
        path.write_text(canonical_json(manifest))
        with pytest.raises(StructuralError, match=match):
            load_system(path)


def test_canonical_json_is_deterministic():
    doc = {"b": 1.5, "a": {"z": [1, 2], "y": None}}
    assert canonical_json(doc) == canonical_json(dict(reversed(list(doc.items()))))
