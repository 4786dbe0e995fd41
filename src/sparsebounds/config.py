"""Default numerical tolerances.

Every tolerance is a plain module constant and every public function that
uses one takes it as a keyword argument, so nothing is hard-coded into the
math itself.  _valid_tolerance is the one rule for the values they accept.
"""

import math

from .errors import ParameterError

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
