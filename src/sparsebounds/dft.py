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
    """Unitary DFT matrix, entry (j, k) = exp(-2 pi i j k / d) / sqrt(d)."""
    d = _valid_integer("d", d, 1)
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(-2j * np.pi * j * k / d) / np.sqrt(d)


def forward(h) -> np.ndarray:
    """Unitary DFT of h: sum_k h_k exp(-2 pi i j k / d) / sqrt(d)."""
    h = _valid_array("sequence", h, np.complex128).ravel()
    if h.size == 0:
        raise ParameterError("transform length must be positive, got 0")
    return np.fft.fft(h, norm="ortho")
