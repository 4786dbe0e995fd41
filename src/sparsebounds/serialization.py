"""JSON/CSV schemas for systems, signals, and reports.

System JSON:
  { "field": "real"|"complex", "d": int, "n": int,
    "vectors": d x n nested lists, "functionals": n x d nested lists }
Complex entries are stored as [re, im] pairs.

BiSystem JSON: { "first": <system>, "second": <system> }.
Signal JSON:   { "field": ..., "d": int, "coordinates": [...] }.

CSV alternative: a manifest JSON
  { "field": ..., "d": ..., "n": ..., "vectors_csv": path, "functionals_csv": path }
with each CSV holding one matrix row per line; complex entries use Python
literals such as 1+2j.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import StructuralError
from .systems import COMPLEX, REAL, BiSystem, PairedSystem


def _encode_matrix(a: np.ndarray, field_tag: str) -> list:
    if field_tag == COMPLEX:
        return [[[float(v.real), float(v.imag)] for v in row] for row in a]
    return [[float(v) for v in row] for row in a]


def _decode_matrix(rows, field_tag: str, shape, name: str) -> np.ndarray:
    try:
        if field_tag == COMPLEX:
            a = np.array(
                [[complex(v[0], v[1]) for v in row] for row in rows],
                dtype=np.complex128,
            )
        else:
            a = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError, IndexError) as exc:
        raise StructuralError(f"cannot parse {name}: {exc}")
    if a.shape != shape:
        raise StructuralError(f"{name} has shape {a.shape}, expected {shape}")
    return a


def system_to_dict(system: PairedSystem) -> dict:
    return {
        "field": system.field,
        "d": system.d,
        "n": system.n,
        "vectors": _encode_matrix(system.vectors, system.field),
        "functionals": _encode_matrix(system.functionals, system.field),
    }


def system_from_dict(data: dict) -> PairedSystem:
    if not isinstance(data, dict):
        raise StructuralError("system document must be a JSON object")
    missing = {"field", "d", "n", "vectors", "functionals"} - set(data)
    if missing:
        raise StructuralError(f"system document missing keys: {sorted(missing)}")
    field_tag = data["field"]
    if field_tag not in (REAL, COMPLEX):
        raise StructuralError(f"unknown field tag {field_tag!r}")
    d, n = _int_field(data, "d"), _int_field(data, "n")
    vectors = _decode_matrix(data["vectors"], field_tag, (d, n), "vectors")
    functionals = _decode_matrix(data["functionals"], field_tag, (n, d), "functionals")
    return PairedSystem(vectors, functionals, field_tag)


def bisystem_to_dict(bisystem: BiSystem) -> dict:
    return {
        "first": system_to_dict(bisystem.first),
        "second": system_to_dict(bisystem.second),
    }


def bisystem_from_dict(data: dict) -> BiSystem:
    if not isinstance(data, dict) or "first" not in data or "second" not in data:
        raise StructuralError("bisystem document needs 'first' and 'second' systems")
    return BiSystem(system_from_dict(data["first"]), system_from_dict(data["second"]))


def signal_to_dict(x: np.ndarray) -> dict:
    x = np.asarray(x).ravel()
    if np.iscomplexobj(x):
        coords = [[float(v.real), float(v.imag)] for v in x]
        field_tag = COMPLEX
    else:
        coords = [float(v) for v in x]
        field_tag = REAL
    return {"field": field_tag, "d": int(x.size), "coordinates": coords}


def signal_from_dict(data: dict) -> np.ndarray:
    if not isinstance(data, dict) or "coordinates" not in data:
        raise StructuralError("signal document needs 'coordinates'")
    field_tag = data.get("field", REAL)
    coords = data["coordinates"]
    try:
        if field_tag == COMPLEX:
            x = np.array([complex(v[0], v[1]) for v in coords], dtype=np.complex128)
        else:
            x = np.array(coords, dtype=np.float64)
    except (TypeError, ValueError, IndexError) as exc:
        raise StructuralError(f"cannot parse signal coordinates: {exc}")
    if "d" in data and x.size != _int_field(data, "d"):
        raise StructuralError(f"signal length {x.size} does not match d={data['d']}")
    return x


def _int_field(data: dict, key: str) -> int:
    try:
        return int(data[key])
    except (TypeError, ValueError):
        raise StructuralError(f"{key!r} must be an integer, got {data[key]!r}")


def _read_csv_matrix(path: Path, field_tag: str) -> list:
    try:
        with open(path, newline="") as fh:
            return [[_parse_entry(v, field_tag) for v in row] for row in csv.reader(fh) if row]
    except (OSError, UnicodeDecodeError) as exc:
        raise StructuralError(f"cannot read {path}: {exc}")


def _parse_entry(text: str, field_tag: str):
    try:
        value = complex(text.strip())
    except ValueError as exc:
        raise StructuralError(f"cannot parse CSV entry {text!r}: {exc}")
    if field_tag == REAL:
        if value.imag != 0.0:
            raise StructuralError(f"complex entry {text!r} in a real-field matrix")
        return value.real
    return [value.real, value.imag]


def load_system(path) -> PairedSystem:
    """Load a system from JSON, or from a CSV manifest naming two matrices."""
    return _system_from_document(load_json(path), Path(path).parent)


def _system_from_document(data, base: Path) -> PairedSystem:
    """System from a parsed system document or CSV manifest; the manifest's
    matrix paths are relative to base."""
    if not isinstance(data, dict):
        raise StructuralError("system document must be a JSON object")
    if "vectors_csv" in data:
        if not all(isinstance(data.get(k), str) for k in ("vectors_csv", "functionals_csv")):
            raise StructuralError("CSV manifest needs 'vectors_csv' and 'functionals_csv' file names")
        field_tag = data.get("field", REAL)
        data = dict(data)
        data["vectors"] = _read_csv_matrix(base / data["vectors_csv"], field_tag)
        data["functionals"] = _read_csv_matrix(base / data["functionals_csv"], field_tag)
    return system_from_dict(data)


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise StructuralError(f"cannot read {path}: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StructuralError(f"invalid JSON in {path}: {exc}")


def canonical_json(document) -> str:
    """Deterministic JSON rendering used for all emitted reports."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"
