import json

import numpy as np
import pytest

from sparsebounds import generate, identity_system
from sparsebounds.errors import StructuralError
from sparsebounds.serialization import (
    bisystem_from_dict,
    bisystem_to_dict,
    canonical_json,
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


def test_canonical_json_is_deterministic():
    doc = {"b": 1.5, "a": {"z": [1, 2], "y": None}}
    assert canonical_json(doc) == canonical_json(dict(reversed(list(doc.items()))))
