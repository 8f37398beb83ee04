"""Two preconditioners exploiting the structure of the stiffness matrix.

Banded route: truncate H to a (2k+1)-band matrix and add the diagonal
compensation O chosen so the band matrix G keeps the row sums of H
(G e = H e).  G inherits the M-matrix property, so its Cholesky factor
G = U^T U exists and is banded too (no fill outside the band); applying the
preconditioner is a banded solve with U^T and one with U, O(k M).

Circulant route: replace the diagonal by its mean to get a genuine
Toeplitz matrix G, then take the closest circulant in Frobenius norm,
whose first column is c_k = ((M-k) t_k + k t_{M-k}) / M.  The circulant is
diagonalized by the FFT, so its inverse's first column is formed once at
build, and apply is that symmetric Toeplitz product through toeplitz.py's
power-of-two embedding, O(M log M).

The circulant route needs numpy only, and so does the banded route where
numpy ships its own OpenBLAS (ILP64, symbols prefixed ``scipy_``): it calls
that library's LAPACK ``dpbtrf`` and ``dpbtrs`` through ctypes, with G and U
in upper band storage (OpenBLAS solves L^T x = y twice as slowly as U^T x = y).
Elsewhere it falls back to ``scipy.linalg``'s ``cholesky_banded`` and ``pbtrs``,
imported when a preconditioner is built, so importing this module loads no scipy.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

from .assembly import OperatorMatrix, offdiag_row_sums
from .solvers import _numpy_openblas
from .toeplitz import SymToeplitz


@dataclass(frozen=True)
class CirculantPrecond:
    """Circulant operator stored by first column and (real) FFT spectrum."""

    first_col: np.ndarray
    spectrum: np.ndarray  # rfft of first_col (real), validated positive
    inverse: SymToeplitz = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # C^{-1} is a symmetric circulant, so a symmetric Toeplitz matrix.
        inverse = SymToeplitz(np.fft.irfft(1.0 / self.spectrum, n=self.M))
        object.__setattr__(self, "inverse", inverse)

    @property
    def M(self) -> int:
        return self.first_col.size

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Solve C x = v as the product C^{-1} v, a power-of-two FFT of length >= 2M."""
        return self.inverse.matvec(v)


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


_INT = ctypes.POINTER(ctypes.c_int64)  # an ILP64 LAPACK integer, by reference


def _openblas_lapack(name: str, *argtypes):
    """LAPACK routine ``name`` of numpy's bundled OpenBLAS, or None.

    Fortran takes every argument by reference, then the length of each
    character argument by value (``size_t``).
    """
    routine = getattr(_numpy_openblas(), f"scipy_{name}_64_", None)
    if routine is not None:
        routine.argtypes, routine.restype = [*argtypes, ctypes.c_size_t], None
    return routine


def _refs(*ints: int):
    return [ctypes.byref(ctypes.c_int64(n)) for n in ints]


class BandedCholPrecond:
    """Cholesky factor of the diagonally compensated band extraction."""

    def __init__(self, bandwidth: int, upper_factor: np.ndarray, compensation: np.ndarray):
        self.bandwidth = bandwidth
        self.upper_factor = upper_factor      # LAPACK upper band storage of U, G = U^T U
        self.compensation = compensation      # diagonal of O
        if not (np.all(np.isfinite(upper_factor)) and np.all(upper_factor[-1] > 0.0)):
            raise ValueError("banded Cholesky factor is not finite with a positive diagonal")
        pbtrs = _openblas_lapack("dpbtrs", ctypes.c_char_p, _INT, _INT, _INT,
                                 ctypes.c_void_p, _INT, ctypes.c_void_p, _INT, _INT)
        if pbtrs is None:
            from scipy.linalg import get_lapack_funcs

            (scipy_pbtrs,) = get_lapack_funcs(("pbtrs",), (upper_factor,))
            self._solve = lambda v: scipy_pbtrs(upper_factor, v, lower=False)
            return
        ab = np.asfortranarray(upper_factor, dtype=float)
        n, kd, ldab = _refs(ab.shape[1], ab.shape[0] - 1, ab.shape[0])

        def solve(v):
            # A copy in Fortran order: one column per right-hand side.
            x = np.array(v, dtype=float, order="F")
            (nrhs,) = _refs(x.size // ab.shape[1])
            info = ctypes.c_int64()
            pbtrs(b"U", n, kd, nrhs, ab.ctypes.data, ldab, x.ctypes.data, n,
                  ctypes.byref(info), 1)
            return x, info.value

        self._solve = solve

    lower_factor = property(lambda self: self.upper_factor)  # former name; perfbench reads it

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Solve G x = v with two banded triangular solves (LAPACK pbtrs).

        No finiteness scan: the constructor checked the factor, and
        pcg_solve rejects a non-finite right-hand side.  v is not modified.
        """
        M = self.upper_factor.shape[1]
        if np.shape(v)[:1] != (M,):
            raise ValueError(f"right-hand side has shape {np.shape(v)}, expected ({M},)")
        x, info = self._solve(v)
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
    band = np.empty((k + 1, M), order="F")  # LAPACK upper band storage of G
    band[:k] = t[k:0:-1, None]  # row k - j: superdiagonal j, from column j on
    band[:k, :k][np.tri(k, dtype=bool)[::-1]] = 0.0  # the corner r + c < k holds no entry
    band[k] = op.diag + compensation
    pbtrf = _openblas_lapack("dpbtrf", ctypes.c_char_p, _INT, _INT, ctypes.c_void_p, _INT, _INT)
    if pbtrf is None:
        from scipy.linalg import cholesky_banded

        try:
            band = cholesky_banded(band, lower=False)
            info = 0
        except np.linalg.LinAlgError:  # the class scipy.linalg raises
            info = 1
    else:
        info = ctypes.c_int64()
        pbtrf(b"U", *_refs(M, k), band.ctypes.data, *_refs(k + 1), ctypes.byref(info), 1)
        info = info.value
    if info != 0:
        raise ValueError("banded Cholesky hit a non-positive pivot; the compensated band "
                         "matrix is not positive definite (broken assembly invariants?)")
    return BandedCholPrecond(bandwidth=k, upper_factor=band, compensation=compensation)
