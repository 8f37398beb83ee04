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

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .coefficients import (
    boundary_left_profile,
    coeff_near_diag,
    pair_sum_profile,
    singular_cell_weight,
)
from .core import Grid, SchemeParams
from .quadrature import PANEL_POINTS, geometric_breakpoints, panel_quadrature_points
from .tails import tail_profile
from .toeplitz import SymToeplitz

DENSE_CAP = 4096
# The exterior loads' interpolant: Chebyshev nodes per dyadic band of
# distance, and rows per block of its Cauchy matrix.  A block of 512 x 24 is
# 96 KiB, under glibc's 128 KiB mmap threshold, so blocks come from the heap
# and a level takes no page faults.
LOAD_NODES = 24
LOAD_ROWS = 512
# Chebyshev points of the first kind on [-1, 1] and their barycentric
# weights, from the math module: numpy's vectorized sin and cos would map in
# code that no other part of a study runs (about 0.2 MB of resident memory).
_THETA = [(k + 0.5) * math.pi / LOAD_NODES for k in range(LOAD_NODES)]
CHEBYSHEV_NODES = np.array([math.cos(t) for t in _THETA])
CHEBYSHEV_WEIGHTS = np.array([(-1.0) ** k * math.sin(t) for k, t in enumerate(_THETA)])


@dataclass(frozen=True)
class OperatorMatrix:
    """Stiffness matrix in diagonal + symmetric-Toeplitz form.

    ``toeplitz_col[m]`` is the entry at lag m >= 1 (slot 0 must be zero);
    ``diag`` holds the diagonal.  ``tails`` holds each row's kernel
    tail integrals over both exterior half-lines, in the same units as the
    operator (i.e. scaled by the normalization constant).
    """

    diag: np.ndarray
    toeplitz_col: np.ndarray
    tails: np.ndarray
    params: SchemeParams
    grid: Grid

    @property
    def M(self) -> int:
        return self.diag.size

    @cached_property
    def offdiag_toeplitz(self) -> SymToeplitz:
        if self.toeplitz_col[0] != 0.0:
            raise ValueError(f"toeplitz_col[0] = {self.toeplitz_col[0]}: lag 0 belongs in diag")
        return SymToeplitz(self.toeplitz_col)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.offdiag_toeplitz.matvec(v) + self.diag * np.asarray(v, dtype=float)


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
                      tails: np.ndarray) -> np.ndarray:
    """Diagonal from the row-sum identity.

    h_{i,i} = tails(i) - (off-diagonal row sum) + (boundary lift weights),
    with all inputs in operator units (scaled by the normalization constant).
    """
    left, right = _boundary_lift_weights(params, grid)
    return (tails - offdiag_row_sums(toeplitz_col)
            + params.cbeta * (left + right))


@lru_cache(maxsize=1)
def level_tails(params: SchemeParams, grid: Grid) -> np.ndarray:
    """Unscaled tails T(x_i - a) of a level, read-only; the latest level's is kept.

    The problem-1 and problem-2 sources and the diagonal share it, and take
    the right-hand tails as these reversed: b - x_i = x_{M+1-i} - a on the
    uniform grid.
    """
    T = tail_profile(grid.interior - grid.a, params)
    T.flags.writeable = False
    return T


def assemble_operator(params: SchemeParams, grid: Grid) -> OperatorMatrix:
    """Build the full operator; raises ValueError unless its diagonal is positive and no lag is."""
    t = assemble_offdiagonal(params, grid)
    B1 = params.cbeta * level_tails(params, grid)
    tails = B1 + B1[::-1]
    diag = assemble_diagonal(params, grid, t, tails)
    if not np.all(diag > 0.0):
        i = int(np.argmin(diag > 0.0))  # the first row that is not positive, NaN included
        raise ValueError(f"row {i} has diagonal {diag[i]:.3g}, not positive: beta below about "
                         "1e-15 with (s, s1) = (0, 0), or entries that underflow (lam*h large, or "
                         f"beta near the smallest float); here (s, s1) = {(params.s, params.s1)}")
    if np.any(t > 0.0):
        m = int(np.argmax(t > 0.0))  # the first positive lag; lags that underflow to 0 stay
        raise ValueError(f"lag {m} is {t[m]:.3g}, positive: the pair weights cancel at beta within "
                         "about 1e-12 of 1 with (s, s1) = (1, 1) (use beta = 1.0), or below about "
                         "1e-13 with (0, 0)")
    for arr in (t, tails, diag):
        arr.flags.writeable = False
    return OperatorMatrix(diag=diag, toeplitz_col=t, tails=tails, params=params, grid=grid)


def _exterior_loads(boundary: BoundarySpec, params: SchemeParams, grid: Grid):
    """Kernel-weighted integrals of g over the two exterior pieces, for every row.

    Returns the unscaled (left, right) loads; zero data short-circuits.  Both
    are functions of one distance: row i sits at d_i = x_i - a from the left
    piece and at b - x_i = d_{M+1-i} from the right one (the reversal
    ``level_tails`` uses), so one kernel grid over distances, with a weight
    vector per piece, gives both, the right one read reversed.  A piece's
    points p >= 0 run away from its endpoint on panels graded geometrically
    with first width min(h, 1/lam), which resolves both the kernel's power
    (whose distance never drops below h) and its damping; g is called once,
    on both pieces' points.  With e^{-lam p} folded into the weights, a
    piece's load is e^{-lam d} F(d), where

        F(d) = sum_p w(p) g(p) e^{-lam p} (d + p)^{-1-beta}

    does not depend on lam other than through its weights.  F is analytic in
    d off (-inf, 0], so the first LOAD_NODES rows are summed directly, and
    above them F is sampled at LOAD_NODES Chebyshev points on each dyadic
    band [D, 2D] of distance (the last one cut at d_M) and interpolated
    barycentrically (Berrut and Trefethen, SIAM Review 46, 2004); a row on
    a node takes the node's value.  Each band's Bernstein ellipse has
    rho >= 3 + sqrt(8), so the interpolation error, of order
    rho^-LOAD_NODES, lies below the sums' rounding.  The kernel runs on at
    most LOAD_NODES (1 + ceil(log2(M / LOAD_NODES))) distances instead of
    2 M, in one grid whose product with a piece's weights gives its sums.
    From M = LOAD_NODES on the grid has whole groups of 4 rows, so OpenBLAS's
    dgemv, which orders the last ``rows % 4`` of a product apart, sums every
    row alike.
    Against mpmath closed forms of problem 2's pieces, over beta in
    0.05..1.95, lam in 0..300 and M in 16..4096, every row reads within
    3.1e-14 relative.  The per-row direct sums this replaces read up to
    3.0e-14, and 1.2e-13 at M = 16 and lam = 300, where a first panel of
    width h under-resolved e^{-lam p}.
    """
    M = grid.M
    if boundary.exterior_g is None:
        return np.zeros(M), np.zeros(M)
    a, b, h, lam, beta = grid.a, grid.b, grid.h, params.lam, params.beta
    lo, hi = boundary.support
    first_width = min(h, 1.0 / lam) if lam > 0.0 else h
    edges = [geometric_breakpoints(0.0, extent, first_width) for extent in (a - lo, hi - b)]
    p, w = panel_quadrature_points(np.concatenate([e[:-1] for e in edges]),
                                   np.concatenate([e[1:] for e in edges]), PANEL_POINTS)
    if p.size == 0:
        return np.zeros(M), np.zeros(M)
    left = (edges[0].size - 1) * PANEL_POINTS  # the left piece's points come first
    w *= np.asarray(boundary.exterior_g(np.concatenate((a - p[:left], b + p[left:]))),
                    dtype=float) * np.exp(-lam * p)
    weights = np.zeros((2, p.size))
    weights[0, :left] = w[:left]
    weights[1, left:] = w[left:]

    d = grid.interior - a
    n = min(LOAD_NODES, M)
    bounds = [d[n - 1]]  # the dyadic bands' ends
    while bounds[-1] < d[-1]:
        bounds.append(min(2.0 * bounds[-1], d[-1]))
    u, v = np.array(bounds[:-1])[:, None], np.array(bounds[1:])[:, None]
    nodes = (u + v) / 2.0 + (v - u) / 2.0 * CHEBYSHEV_NODES  # one band per row
    samples = np.concatenate((d[:n], nodes.ravel()))

    # (d + p)^{-1-beta} as exp(-(1+beta) ln(d + p)), in place.
    K = np.add.outer(samples, p)
    np.log(K, out=K)
    K *= -(1.0 + beta)
    np.exp(K, out=K)
    F = np.array([K @ w for w in weights])
    loads = np.empty((2, M))
    loads[:, :n] = F[:, :n]
    values = F[:, n:].reshape(2, -1, LOAD_NODES)
    weighted = np.empty((3, *values.shape[1:]))
    np.multiply(values, CHEBYSHEV_WEIGHTS, out=weighted[:2])
    weighted[2] = CHEBYSHEV_WEIGHTS
    ends = np.searchsorted(d, bounds, side="right")
    with np.errstate(divide="ignore", invalid="ignore"):  # a row on a node divides by zero
        for k, band in enumerate(nodes):
            for start in range(ends[k], ends[k + 1], LOAD_ROWS):
                rows = slice(start, min(start + LOAD_ROWS, ends[k + 1]))
                C = np.subtract.outer(band, d[rows])
                sums = weighted[:, k] @ np.reciprocal(C, out=C)
                np.divide(sums[:2], sums[2], out=loads[:, rows])
    # A row on a node takes the node's value.
    at = np.searchsorted(d, samples[n:]).clip(max=M - 1)
    on = np.flatnonzero(d[at] == samples[n:])
    loads[:, at[on]] = F[:, n + on]
    # e^{-lam d}, with the rounding error of lam d (from a long double product
    # where the platform has one) taken back out: at lam d in the hundreds
    # that rounding alone moves the damping by up to 2.8e-14.
    lam_d = lam * d
    excess = (np.longdouble(lam) * d - lam_d).astype(float)
    loads *= np.exp(-lam_d) * (1.0 - excess)
    return loads[0], loads[1, ::-1]


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
        left, right = _exterior_loads(boundary, params, grid)
        F += params.cbeta * (left + right)
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
