"""Symmetric Toeplitz matrices with FFT matrix-vector products.

A symmetric Toeplitz matrix is determined by its first column; embedding
that column into a circulant of length >= 2M (next power of two, zero
padded) diagonalizes the product by FFT, giving O(M log M) matvecs.  The
embedded spectrum is computed once and cached on the instance.
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
        self.M = col.size
        self._embed_len = 1 << (2 * self.M - 1).bit_length()
        self._spectrum = None

    @property
    def spectrum(self) -> np.ndarray:
        """rfft of the circulant embedding (computed on first use)."""
        if self._spectrum is None:
            L, M = self._embed_len, self.M
            c = np.zeros(L)
            c[:M] = self.first_col
            c[L - M + 1:] = self.first_col[1:][::-1]
            self._spectrum = np.fft.rfft(c)
        return self._spectrum

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.M,):
            raise ValueError(f"length mismatch: matrix is {self.M}, vector is {v.shape}")
        L = self._embed_len
        out = np.fft.irfft(self.spectrum * np.fft.rfft(v, n=L), n=L)
        return out[:self.M]
