"""Symmetric Toeplitz matrices with FFT matrix-vector products.

A symmetric Toeplitz matrix is determined by its first column; embedding
that column into a circulant of length >= 2M (next power of two, zero
padded) diagonalizes the product by FFT, giving O(M log M) matvecs.  The
embedded spectrum is computed once, at construction, and every product
multiplies it into rfft(v) in place, spectrum first, at any length.

From L = 4096 on (L the embedding length), construction allocates 4L floats
and frees them untouched: freeing a mapped block raises glibc's mmap threshold
to its size (the trim threshold to twice), so later products' FFT buffers come
from the heap; smaller blocks are not mapped.  Without it (glibc 2.36, 2-vCPU
x86-64) a product at M = 16383 took 320 page faults and ran 1.7-1.9x slower.
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
        if L >= 4096:  # 4L floats reach glibc's default 128 KiB mmap threshold
            np.empty(4 * L)  # freed untouched: raises the threshold (module docstring)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.M,):
            raise ValueError(f"length mismatch: matrix is {self.M}, vector is {v.shape}")
        freq = np.fft.rfft(v, n=self._embed_len)
        np.multiply(self.spectrum, freq, out=freq)
        return np.fft.irfft(freq, n=self._embed_len)[:self.M]
