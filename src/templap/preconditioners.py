"""Two preconditioners exploiting the structure of the stiffness matrix.

Banded route: truncate H to a (2k+1)-band matrix and add the diagonal
compensation O chosen so the band matrix G keeps the row sums of H
(G e = H e).  G inherits the M-matrix property, so its Cholesky factor
exists and is itself banded (no fill outside the band); applying the
preconditioner is two banded triangular solves, O(k M).

Circulant route: replace the diagonal by its mean to get a genuine
Toeplitz matrix G, then take the closest circulant in Frobenius norm,
whose first column is c_k = ((M-k) t_k + k t_{M-k}) / M.  The circulant is
diagonalized by the FFT; application is O(M log M).  At composite M, apply
divides by the spectrum in length-M transforms.  At a prime M, pocketfft
(numpy's FFT) has no factor to split: it does the length-M transform as a
direct O(M^2) sum or, for large M such as 2^13 - 1 = 8191, by Bluestein's
algorithm.  So at prime M > 100 the inverse circulant's first column is
formed once at build, and apply is its symmetric Toeplitz product through
the power-of-two embedding of toeplitz.py.  Timed per apply (numpy 2.4, one
thread, 2-vCPU x86-64), that took 0.4-0.7 of the division's time at primes
101-263 and 0.1-0.15 at 8191; below 100 the two were within noise.
Composite M keep the division and its rounding, so their tabulated errors
and iteration counts: it was as fast or faster at 255 = 3*5*17, 256, 1024
and 4095, and the embedding saved at most 30% at 511 = 7*73 and
2047 = 23*89.

The circulant route needs numpy only.  The banded route is the package's
only user of ``scipy.linalg``: it imports it when a preconditioner is
built, for ``cholesky_banded`` and LAPACK's banded triangular solve
``pbtrs``, so importing this module does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import OperatorMatrix, offdiag_row_sums
from .toeplitz import SymToeplitz


@dataclass(frozen=True)
class CirculantPrecond:
    """Circulant operator stored by first column and (real) FFT spectrum."""

    first_col: np.ndarray
    spectrum: np.ndarray  # rfft of first_col (real), validated positive
    inverse: SymToeplitz | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        inverse = None
        if embeds_inverse(self.M):
            inverse = SymToeplitz(np.fft.irfft(1.0 / self.spectrum, n=self.M))
        object.__setattr__(self, "inverse", inverse)  # C^{-1}, from M alone

    @property
    def M(self) -> int:
        return self.first_col.size

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Solve C x = v.

        At prime M > 100 (``inverse`` set), x is the product of the
        symmetric Toeplitz matrix C^{-1} with v, through a power-of-two FFT
        of length >= 2M.  At every other M, x is found by pointwise division
        in Fourier space with length-M transforms.
        """
        if self.inverse is not None:
            return self.inverse.matvec(v)
        freq = np.fft.rfft(v)
        freq /= self.spectrum
        return np.fft.irfft(freq, n=self.M)


def embeds_inverse(M: int) -> bool:
    """True when M is a prime above 100, where apply multiplies by C^{-1}."""
    return M > 100 and all(M % p for p in range(2, math.isqrt(M) + 1))


def tchan_column(toeplitz_first_col: np.ndarray) -> np.ndarray:
    """First column of the closest circulant to a symmetric Toeplitz matrix.

    c_k = ((M - k) t_k + k t_{M-k}) / M, with t the Toeplitz first column.
    """
    t = np.asarray(toeplitz_first_col, dtype=float)
    M = t.size
    k = np.arange(M)
    return ((M - k) * t + k * t[(M - k) % M]) / M


def build_tchan_precond(op: OperatorMatrix) -> CirculantPrecond:
    """Circulant preconditioner from the averaged-diagonal Toeplitz surrogate."""
    g = op.toeplitz_col.copy()
    g[0] = float(op.diag.mean())
    c = tchan_column(g)
    # c is a palindrome bit for bit, so the imaginary part is rounding only.
    spectrum = np.fft.rfft(c).real
    if np.any(spectrum <= 0.0):
        bad = int(np.argmin(spectrum))
        raise ValueError(
            f"circulant eigenvalue {spectrum[bad]:.3e} at index {bad} is not "
            "positive; the preconditioner is not s.p.d. for these parameters"
        )
    c.flags.writeable = False
    spectrum.flags.writeable = False
    return CirculantPrecond(first_col=c, spectrum=spectrum)


class BandedCholPrecond:
    """Cholesky factor of the diagonally compensated band extraction."""

    def __init__(self, bandwidth: int, lower_factor: np.ndarray, compensation: np.ndarray):
        from scipy.linalg import get_lapack_funcs

        self.bandwidth = bandwidth
        self.lower_factor = lower_factor      # scipy lower-banded storage of L, G = L L^T
        self.compensation = compensation      # diagonal of O
        if not (np.all(np.isfinite(lower_factor)) and np.all(lower_factor[0] > 0.0)):
            raise ValueError("banded Cholesky factor is not finite with a positive diagonal")
        (self._pbtrs,) = get_lapack_funcs(("pbtrs",), (lower_factor,))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Solve G x = v with two banded triangular solves (LAPACK pbtrs).

        No finiteness scan: the constructor checked the factor, and
        pcg_solve rejects a non-finite right-hand side.  v is not modified.
        """
        M = self.lower_factor.shape[1]
        if np.shape(v)[:1] != (M,):
            raise ValueError(f"right-hand side has shape {np.shape(v)}, expected ({M},)")
        x, info = self._pbtrs(self.lower_factor, v, lower=True)
        if info != 0:
            raise ValueError(f"banded triangular solve failed: LAPACK pbtrs info = {info}")
        return x


def build_band_compensated_ichol(op: OperatorMatrix, k: int = 10) -> BandedCholPrecond:
    """Banded preconditioner: band_k(H) plus diagonal compensation, factorized.

    The compensation adds, to each diagonal entry, the (negative) sum of
    that row's off-band entries, so G e = H e exactly.  Because the sparsity
    is a full band, the zero-fill incomplete Cholesky coincides with the
    exact banded Cholesky; a failed factorization (non-positive pivot)
    signals that the operator lost its M-matrix structure.
    """
    M = op.M
    if not 1 <= k < M:
        raise ValueError(f"bandwidth must satisfy 1 <= k < M, got k = {k}, M = {M}")
    t = op.toeplitz_col
    in_band = t.copy()
    in_band[k + 1:] = 0.0
    compensation = offdiag_row_sums(t) - offdiag_row_sums(in_band)
    band = np.zeros((k + 1, M))
    band[0] = op.diag + compensation
    for j in range(1, k + 1):
        band[j, :M - j] = t[j]
    from scipy.linalg import cholesky_banded

    try:
        factor = cholesky_banded(band, lower=True)
    except np.linalg.LinAlgError as exc:  # the class scipy.linalg raises
        raise ValueError(
            "banded Cholesky hit a non-positive pivot; the compensated band "
            "matrix is not positive definite (broken assembly invariants?)"
        ) from exc
    return BandedCholPrecond(bandwidth=k, lower_factor=factor, compensation=compensation)
