"""Symmetric Toeplitz matrices with FFT matrix-vector products.

A symmetric Toeplitz matrix is determined by its first column; embedding
that column into a circulant of length >= 2M (next power of two, zero
padded) diagonalizes the product by FFT, giving O(M log M) matvecs.  The
embedded spectrum is computed once, at construction, and every product
multiplies it into rfft(v) in place, spectrum first, at any length.
"""

from __future__ import annotations

import numpy as np


class SymToeplitz:
    """Symmetric Toeplitz matrix stored as its first column."""

    def __init__(self, first_col):
        col = np.asarray(first_col, dtype=float)
        if col.ndim != 1 or col.size == 0:
            raise ValueError("first column must be a nonempty 1-D array")
        self.first_col = col
        M = self.M = col.size
        L = self._embed_len = 1 << (2 * M - 1).bit_length()
        c = np.concatenate((col, np.zeros(L - 2 * M + 1), col[:0:-1]))  # circulant embedding
        self.spectrum = np.fft.rfft(c)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.M,):
            raise ValueError(f"length mismatch: matrix is {self.M}, vector is {v.shape}")
        freq = np.fft.rfft(v, n=self._embed_len)
        np.multiply(self.spectrum, freq, out=freq)
        return np.fft.irfft(freq, n=self._embed_len)[:self.M]
