"""JSON/CSV schemas for systems, signals, and reports.

System JSON:
  { "field": "real"|"complex", "d": int, "n": int,
    "vectors": d x n nested lists, "functionals": n x d nested lists }
Complex entries are stored as [re, im] pairs.

BiSystem JSON: { "first": <system>, "second": <system> }.
Signal JSON:   { "field": ..., "d": int, "coordinates": [...] }.

CSV alternative: a manifest JSON
  { "field": ..., "d": ..., "n": ..., "vectors_csv": path, "functionals_csv": path }
with each CSV holding one matrix row per line.  Each entry is number text,
read as a flag's is; a complex entry joins two, such as 1+2j.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

from .config import _number, _valid_array, _valid_integer, _valid_real
from .errors import ParameterError, StructuralError
from .systems import COMPLEX, REAL, BiSystem, PairedSystem, _dtype


def _encode(a) -> list:
    """Nested lists of floats of any rank; complex entries become [re, im] pairs."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        a = np.stack([a.real, a.imag], axis=-1)
    return a.astype(np.float64).tolist()


def _decode(values, field_tag: str, name: str) -> np.ndarray:
    """Inverse of _encode: complex fields read trailing [re, im] pairs bit for bit."""
    _dtype(field_tag)
    a = _valid_array(name, values, np.float64)
    if field_tag != COMPLEX:
        return a
    if a.shape[-1:] != (2,):
        raise StructuralError(f"cannot parse {name}: complex entries must be [re, im] pairs")
    return np.ascontiguousarray(a).view(np.complex128)[..., 0]


def system_to_dict(system: PairedSystem) -> dict:
    return {
        "field": system.field,
        "d": system.d,
        "n": system.n,
        "vectors": _encode(system.vectors),
        "functionals": _encode(system.functionals),
    }


def system_from_dict(data: dict) -> PairedSystem:
    if not isinstance(data, dict):
        raise StructuralError("system document must be a JSON object")
    missing = {"field", "d", "n", "vectors", "functionals"} - set(data)
    if missing:
        raise StructuralError(f"system document missing keys: {sorted(missing)}")
    field_tag = data["field"]
    d, n = _int_field(data, "d"), _int_field(data, "n")
    matrices = []
    for key, shape in (("vectors", (d, n)), ("functionals", (n, d))):
        a = _decode(data[key], field_tag, key)
        if a.shape != shape:
            raise StructuralError(f"{key} has shape {a.shape}, expected {shape}")
        matrices.append(a)
    return PairedSystem(*matrices, field_tag)


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
    return {"field": COMPLEX if np.iscomplexobj(x) else REAL, "d": int(x.size),
            "coordinates": _encode(x)}


def signal_from_dict(data: dict) -> np.ndarray:
    if not isinstance(data, dict) or "coordinates" not in data:
        raise StructuralError("signal document needs 'coordinates'")
    x = _decode(data["coordinates"], data.get("field", REAL), "signal coordinates")
    if "d" in data and x.size != _int_field(data, "d"):
        raise StructuralError(f"signal length {x.size} does not match d={data['d']}")
    return x


def _int_field(data: dict, key: str) -> int:
    """data[key] as an int, by the library's rule (config._valid_integer)."""
    try:
        return _valid_integer(repr(key), data[key], 0)
    except ParameterError as exc:
        raise StructuralError(str(exc)) from None


def _read_csv_matrix(path: Path, field_tag: str) -> list:
    try:
        with open(path, newline="") as fh:
            return [[_parse_entry(v, field_tag) for v in row] for row in csv.reader(fh) if row]
    except (OSError, UnicodeDecodeError) as exc:
        raise StructuralError(f"cannot read {path}: {exc}")


# An entry ending in j: [real](+|-)imaginary j, the imaginary part taken from
# its sign on; a sign after e or E belongs to an exponent.
_COMPLEX_ENTRY = re.compile(r"(.*?)([+-]?(?:[eE][+-]?|[^+\-eE])*)j")


def _parse_entry(text: str, field_tag: str):
    """A CSV entry: a real number, or a complex one such as 1+2j, 2.5e-3-1j
    or -2j; each part is number text, read by config._number as a flag's is."""
    parts = _COMPLEX_ENTRY.fullmatch(text.strip())
    real, imag = (parts[1] or "0", parts[2].removeprefix("+")) if parts else (text, "0")
    try:
        value = complex(_number("real part", real, _valid_real, -math.inf),
                        _number("imaginary part", imag, _valid_real, -math.inf))
    except ParameterError as exc:
        raise StructuralError(f"cannot parse CSV entry {text!r}: {exc}") from None
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
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:  # nested too deep
        raise StructuralError(f"invalid JSON in {path}: {exc}")


def canonical_json(document) -> str:
    """Deterministic JSON rendering used for all emitted reports."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"
