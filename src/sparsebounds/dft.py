"""Unitary discrete Fourier transform.

`forward` is numpy's FFT with orthonormal ("ortho") scaling.
`dft_matrix` builds the same transform as a matrix; the symmetric 1/sqrt(d)
normalization keeps its columns unit vectors, so they can feed the
Hilbert-specialization constructor unchanged.
"""

from __future__ import annotations

import numpy as np

from .config import _valid_array, _valid_integer
from .errors import ParameterError


def dft_matrix(d: int) -> np.ndarray:
    """Unitary DFT matrix, entry (j, k) = exp(-2 pi i j k / d) / sqrt(d).

    The exponential has period d in j k, so the entry is the (j k mod d)-th
    of the d scaled roots of unity: each root is evaluated once, at an
    argument below 2 pi, and the matrix is exactly symmetric.
    """
    d = _valid_integer("d", d, 1)
    k = np.arange(d)
    roots = np.exp(-2j * np.pi * k / d) / np.sqrt(d)
    return roots[np.outer(k, k) % d]


def forward(h) -> np.ndarray:
    """Unitary DFT of h: sum_k h_k exp(-2 pi i j k / d) / sqrt(d)."""
    h = _valid_array("sequence", h, np.complex128).ravel()
    if h.size == 0:
        raise ParameterError("transform length must be positive, got 0")
    return np.fft.fft(h, norm="ortho")
