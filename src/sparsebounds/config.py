"""Default numerical tolerances.

Every tolerance is a plain module constant and every public function that
uses one takes it as a keyword argument, so nothing is hard-coded into the
math itself.  Each kind of outside value has one rule: _valid_tolerance,
_valid_integer and _valid_array.
"""

import math

import numpy as np

from .errors import ParameterError, StructuralError

# Absolute zero threshold for l0 counts and support extraction.
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


def _valid_tolerance(name: str, value):
    """value itself when it is a finite number >= 0, the domain of every
    tolerance; a NaN, infinite or negative one would turn every comparison
    against it into a wrong verdict."""
    try:
        ok = math.isfinite(value) and value >= 0
    except TypeError:
        ok = False
    if not ok:
        raise ParameterError(f"{name} must be a finite number >= 0, got {value!r}")
    return value


def _valid_integer(name: str, value, least: int) -> int:
    """value as an int when it is an int, a NumPy integer or an integral float
    (4.0 means 4) >= least; never a bool or a string, never truncated."""
    if isinstance(value, (float, np.floating)) and math.isfinite(value) and value == int(value):
        value = int(value)
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _valid_array(name: str, a) -> np.ndarray:
    """a as an array when every entry is finite; a NaN or infinite entry
    would pass or fail every threshold against it silently."""
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise StructuralError(f"{name} contains non-finite entries")
    return a
