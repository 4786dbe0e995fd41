"""Exception hierarchy with stable CLI exit codes."""


class SparseBoundsError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class StructuralError(SparseBoundsError):
    """Shape mismatch, malformed input file, or inconsistent dimensions."""


class ParameterError(SparseBoundsError):
    """Invalid parameter value (unknown family, bad trial count, ...)."""


class DegenerateInputError(SparseBoundsError):
    """Input is degenerate for the requested quantity (zero signal, zero mass)."""


class HypothesisError(SparseBoundsError):
    """A theorem hypothesis is violated (diagonal pairing below one, non-unit column)."""

    exit_code = 2


class NoAdmissibleSignalError(SparseBoundsError):
    """The admissible subspace is trivial; no signal can be sampled."""

    exit_code = 3


class GuardExceededError(SparseBoundsError):
    """Exhaustive search size exceeds the configured guard."""

    exit_code = 4
