"""Assembly of the stiffness matrix and load vector.

The matrix splits as H = D + T with D diagonal and T symmetric Toeplitz
(entries constant along each diagonal), so the whole operator is stored in
2M floats.  Off-diagonal entries at lag m are

    -(pair weight at lag m) e^{-lam m h} / m^s        (m >= 2)
    -(singular-cell + adjacent-cell weight)           (m = 1),

all strictly negative.  The diagonal is defined through the row-sum
identity: row sums of H minus the exact kernel tails equal the boundary
interpolation weights, which makes H a strictly diagonally dominant
M-matrix (hence symmetric positive definite).

Assembly is deterministic: every entry comes from a per-entry formula or
from reductions that run in a fixed order (the diagonal's prefix sums), so
concurrent callers sharing the results see identical values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .coefficients import (
    boundary_left_profile,
    coeff_near_diag,
    pair_sum_profile,
    singular_cell_weight,
)
from .core import Grid, SchemeParams
from .quadrature import (PANEL_POINTS, geometric_breakpoints, panel_quadrature_points,
                         row_block_quadrature)
from .tails import tail_profile
from .toeplitz import SymToeplitz

DENSE_CAP = 4096
DUMP_MAGIC = b"TFLAP001"


@dataclass(frozen=True)
class OperatorMatrix:
    """Stiffness matrix in diagonal + symmetric-Toeplitz form.

    ``toeplitz_col[m]`` is the entry at lag m >= 1 (slot 0 is unused and
    zero); ``diag`` holds the diagonal.  ``tails_left``/``tails_right``
    cache the kernel tail integrals per row, in the same units as the
    operator (i.e. scaled by the normalization constant).
    """

    diag: np.ndarray
    toeplitz_col: np.ndarray
    tails_left: np.ndarray
    tails_right: np.ndarray
    params: SchemeParams
    grid: Grid

    @property
    def M(self) -> int:
        return self.diag.size

    @cached_property
    def offdiag_toeplitz(self) -> SymToeplitz:
        col = self.toeplitz_col.copy()
        col[0] = 0.0
        return SymToeplitz(col)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.offdiag_toeplitz.matvec(v)
        out += self.diag * np.asarray(v, dtype=float)
        return out


def offdiag_row_sums(toeplitz_col: np.ndarray) -> np.ndarray:
    """Row sums of the off-diagonal part of the symmetric Toeplitz matrix.

    Row i (0-based) has i entries to its left and M-1-i to its right, so each
    sum is two lookups in the prefix sums of the lags.
    """
    S = np.concatenate([[0.0], np.cumsum(toeplitz_col[1:])])
    left = np.arange(toeplitz_col.size)
    return S[left] + S[left[::-1]]


@dataclass(frozen=True)
class BoundarySpec:
    """Exterior data: g on R minus (a, b), endpoint values, and support.

    ``support`` = (lo, hi) declares a bounded interval outside which g
    vanishes, enabling finite quadrature of the exterior loads; it must be
    given whenever ``exterior_g`` is.  ``u_a``/``u_b`` are the one-sided
    limits consumed by the boundary lift.
    """

    exterior_g: Callable[[np.ndarray], np.ndarray] | None = None
    u_a: float = 0.0
    u_b: float = 0.0
    support: tuple[float, float] | None = None

    def __post_init__(self):
        if self.exterior_g is not None:
            if self.support is None:
                raise ValueError(
                    "exterior data without a declared bounded support cannot be "
                    "integrated; declare support=(lo, hi)"
                )
            lo, hi = self.support
            probe = np.array([lo - 1.0, lo - 7.3, hi + 1.0, hi + 7.3])
            vals = np.asarray(self.exterior_g(probe), dtype=float)
            if np.any(np.abs(vals) > 0.0):
                raise ValueError("exterior_g does not vanish outside the declared support")


def assemble_offdiagonal(params: SchemeParams, grid: Grid) -> np.ndarray:
    """First column of the Toeplitz off-diagonal part (lags 1..M-1)."""
    M, h, lam = grid.M, grid.h, params.lam
    t = np.zeros(M)
    t[1] = -coeff_near_diag(params, grid)
    m = np.arange(2, M)
    t[2:] = -pair_sum_profile(m, params, grid) * np.exp(-lam * m * h) / m.astype(float) ** params.s
    return params.cbeta * t


def _boundary_lift_weights(params: SchemeParams, grid: Grid):
    """Damped boundary weights per row: (left endpoint, right endpoint).

    Row i carries boundary_left(i) e^{-lam i h}/i^s toward u(a) (rows
    i >= 2) and the mirrored weight toward u(b) (rows i <= M-1); rows 1 and
    M use the singular-cell weight for their adjacent endpoint instead.
    """
    M, h, lam, s = grid.M, grid.h, params.lam, params.s
    left = np.zeros(M)
    ii = np.arange(2, M + 1)
    left[1:] = boundary_left_profile(ii, params, grid) \
        * np.exp(-lam * ii * h) / ii.astype(float) ** s
    right = left[::-1].copy()
    w_sing = singular_cell_weight(params, grid)
    left[0] = w_sing
    right[M - 1] = w_sing
    return left, right


def assemble_diagonal(params: SchemeParams, grid: Grid, toeplitz_col: np.ndarray,
                      tails_left: np.ndarray, tails_right: np.ndarray) -> np.ndarray:
    """Diagonal from the row-sum identity.

    h_{i,i} = tails(i) - (off-diagonal row sum) + (boundary lift weights),
    with all inputs in operator units (scaled by the normalization constant).
    """
    left, right = _boundary_lift_weights(params, grid)
    return (tails_left + tails_right - offdiag_row_sums(toeplitz_col)
            + params.cbeta * (left + right))


def assemble_operator(params: SchemeParams, grid: Grid) -> OperatorMatrix:
    """Build the full operator: off-diagonal column, tails, diagonal."""
    t = assemble_offdiagonal(params, grid)
    x = grid.interior
    B1 = params.cbeta * tail_profile(x - grid.a, params)
    B2 = B1[::-1]  # b - x_i = x_{M+1-i} - a on the uniform grid
    diag = assemble_diagonal(params, grid, t, B1, B2)
    for arr in (t, B1, B2, diag):
        arr.flags.writeable = False
    return OperatorMatrix(diag=diag, toeplitz_col=t, tails_left=B1, tails_right=B2,
                          params=params, grid=grid)


def _exterior_load_profile(boundary: BoundarySpec, params: SchemeParams, grid: Grid,
                           side: str) -> np.ndarray:
    """Kernel-weighted integral of g over one exterior piece, for every row.

    Panels are graded geometrically away from the adjacent endpoint with
    first width h, so the kernel (whose distance never drops below h) is
    fully resolved; the integrand is evaluated on a (rows x points) grid,
    one block of rows at a time in ``row_block_quadrature``'s buffers.
    Returns the unscaled integrals; zero data short-circuits.
    """
    M = grid.M
    if boundary.exterior_g is None:
        return np.zeros(M)
    lo, hi = boundary.support
    a, b, lam, beta = grid.a, grid.b, params.lam, params.beta
    extent = (a - lo) if side == "left" else (hi - b)
    if extent <= 0.0:
        return np.zeros(M)
    breaks = geometric_breakpoints(0.0, extent, first_width=grid.h)
    pts, wts = panel_quadrature_points(breaks[:-1], breaks[1:], PANEL_POINTS)
    y = (a - pts) if side == "left" else (b + pts)
    g = np.asarray(boundary.exterior_g(y), dtype=float)
    x = grid.interior

    def kernel(rows, kern, dist):
        xr = x[rows, None]
        if side == "left":
            np.subtract(xr, y[None, :], out=dist)
        else:
            np.subtract(y[None, :], xr, out=dist)
        # e^{-lam d} d^{-1-beta} as exp(-lam d - (1+beta) ln d), in place.
        np.log(dist, out=kern)
        kern *= -(1.0 + beta)
        kern -= np.multiply(dist, lam, out=dist)
        np.exp(kern, out=kern)

    return row_block_quadrature(kernel, (M,), g * wts)


def assemble_rhs(f_values: np.ndarray, boundary: BoundarySpec, params: SchemeParams,
                 grid: Grid) -> np.ndarray:
    """Load vector: physical source plus scaled exterior loads and lifts.

    f_values is the caller-supplied right-hand side at the interior nodes
    and is never scaled; exterior loads and the endpoint lift terms carry
    the same normalization as the operator.  Raises ValueError when the
    result has non-finite entries.
    """
    f_values = np.asarray(f_values, dtype=float)
    if f_values.shape != (grid.M,):
        raise ValueError(f"expected {grid.M} source values, got {f_values.shape}")
    F = f_values.copy()
    if boundary.exterior_g is not None:
        F += params.cbeta * (_exterior_load_profile(boundary, params, grid, "left")
                             + _exterior_load_profile(boundary, params, grid, "right"))
    if boundary.u_a != 0.0 or boundary.u_b != 0.0:
        left, right = _boundary_lift_weights(params, grid)
        F += params.cbeta * (boundary.u_a * left + boundary.u_b * right)
    if not np.all(np.isfinite(F)):
        raise ValueError("load vector has non-finite entries")
    return F


def materialize_dense(op: OperatorMatrix) -> np.ndarray:
    """Dense symmetric matrix from the compact storage, for M <= DENSE_CAP."""
    M = op.M
    if M > DENSE_CAP:
        raise ValueError(f"refusing to materialize {M}x{M} dense matrix (cap {DENSE_CAP})")
    idx = np.abs(np.arange(M)[:, None] - np.arange(M)[None, :])
    dense = op.toeplitz_col[idx]
    np.fill_diagonal(dense, op.diag)
    return dense


def write_system_dump(path, op: OperatorMatrix, F: np.ndarray) -> None:
    """Binary dump of (diag, toeplitz_col, F): magic header + little-endian f64."""
    F = np.asarray(F, dtype=float)
    if F.shape != (op.M,):
        raise ValueError("load vector length does not match the operator")
    with open(path, "wb") as fh:
        fh.write(DUMP_MAGIC)
        for arr in (op.diag, op.toeplitz_col, F):
            fh.write(np.asarray(arr, dtype="<f8").tobytes())


def read_system_dump(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of write_system_dump; returns (diag, toeplitz_col, F)."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != DUMP_MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {DUMP_MAGIC!r}")
        payload = fh.read()
    n = len(payload) // 8
    if n % 3 != 0 or len(payload) != 8 * n:
        raise ValueError("dump payload is not three equal float64 blocks")
    M = n // 3
    flat = np.frombuffer(payload, dtype="<f8")
    return flat[:M].copy(), flat[M:2 * M].copy(), flat[2 * M:].copy()
