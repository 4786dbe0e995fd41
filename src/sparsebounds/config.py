"""Default numerical tolerances.

Every tolerance is a plain module constant and every public function that
uses one takes it as a keyword argument, so nothing is hard-coded into the
math itself.  Each kind of outside value has one rule: _valid_real,
_valid_integer and _valid_array (a regular nesting of numbers, all
finite); number text (a flag's, a CSV entry's) is read by _number.
"""

import json
import math

import numpy as np

from .errors import ParameterError, StructuralError

# Absolute zero threshold for l0 counts.
ETA = 1e-9

# Slack for the |f_j(tau_j)| >= 1 and unit-norm hypothesis checks.
ETA_HYP = 1e-9

# Max-norm residual allowed for the fixed-point hypothesis x = T F x.
TOL_FP = 1e-9

# Slack in the certificate comparison lhs >= rhs - TOL_CERT.
TOL_CERT = 1e-9

# Relative singular-value cutoff for numerical null spaces.
TOL_RANK = 1e-10

# Default cap on n + m for exhaustive support-pattern search.
GUARD = 24


def _valid_real(name: str, value, low: float = 0.0, high: float = math.inf):
    """value itself when it is an int, a float or a NumPy real number (never
    a bool or a string) that is finite and in [low, high]; the default
    domain is that of every tolerance.  A NaN, infinite or out-of-domain one
    would turn every comparison against it into a wrong verdict."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        ok = real and math.isfinite(value) and low <= value <= high
    except OverflowError:  # an int beyond every float
        ok = False
    if not ok:
        domain = (f" in [{low:g}, {high:g}]" if high < math.inf
                  else f" >= {low:g}" if low > -math.inf else "")
        raise ParameterError(f"{name} must be a finite number{domain}, got {value!r}")
    return value


def _valid_integer(name: str, value, least: int) -> int:
    """value as an int when it is an int, a NumPy integer or an integral float
    (4.0 means 4) >= least; never a bool or a string, never truncated."""
    if isinstance(value, (float, np.floating)) and math.isfinite(value) and value == int(value):
        value = int(value)
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _number(name: str, text: str, rule, *domain):
    """text (a flag's or a CSV entry's) read as a JSON number, as in a
    descriptor file, then decided by rule: an int by _valid_integer (4.0 is
    4), a float by _valid_real (30 is 30.0); the rule refuses other text
    (1_0, +4, nan)."""
    try:
        value = json.loads(text)
    except (ValueError, RecursionError):
        value = text
    value = rule(name, value, *domain)
    return float(value) if rule is _valid_real else value


def _valid_array(name: str, a, dtype=None, copy: bool = False) -> np.ndarray:
    """a as an array of dtype (numpy's own when None) when it is a regular
    nesting of numbers, all finite: a NaN or infinite entry would pass or
    fail every threshold against it silently.  A real dtype never drops a
    nonzero imaginary part.  With copy and a dtype, the result is a new
    C-ordered array made by one copy, the cast included."""
    try:
        a = np.asarray(a)
    except ValueError as exc:  # ragged nesting
        raise StructuralError(f"cannot parse {name}: {exc}") from None
    if a.dtype.kind not in "biufc":  # strings, objects
        raise StructuralError(f"cannot parse {name}: entries of type {a.dtype} are not numbers")
    if dtype is not None:
        if np.iscomplexobj(a) and np.dtype(dtype).kind != "c":
            if np.any(a.imag != 0):
                raise StructuralError(f"{name} has complex entries but the field is real")
            a = a.real
        a = a.astype(dtype, order="C" if copy else "K", copy=copy)
    if not np.all(np.isfinite(a)):
        raise StructuralError(f"{name} contains non-finite entries")
    return a

