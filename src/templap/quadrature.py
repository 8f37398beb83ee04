"""Gauss-Jacobi quadrature via the Golub-Welsch algorithm, plus panel helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import gamma_fn

# Point counts.  The smooth exponential-kernel integrals reach machine
# precision well below 64 points.  Geometrically graded panels get
# PANEL_POINTS Gauss-Legendre points each: every panel [lo, hi] in distance
# from the kernel's singularity has hi <= 2 lo, so the Bernstein ellipse has
# rho >= 3 + 2 sqrt(2) and the error is O(rho^(-2n)), 3e-25 at n = 16.  Against
# 64 points, over beta in 0.05..1.95, lam in 0..300 and M in 16..1024, problem
# 2's left exterior load reads 2.4e-15 relative at 12 points, 3.1e-15 at 16
# and 1.8e-15 at 32: rounding, not truncation.  The right one reads up to
# 1.5e-14 at 16 points and 2.2e-14 at 32, because g(b + p) = 2(b + p) - 2
# keeps only the bits of p that b + p keeps.
GAUSS_JACOBI_POINTS = 64
PANEL_POINTS = 16

# Bytes per grid buffer of ``row_block_quadrature``: 512 rows of 64 points.
# The buffers are allocated once per sweep, not once per block, so they need
# not stay under glibc's 128 KiB mmap threshold; on a 2-vCPU x86-64 host a
# J = 14 problem-1 source sweep ran 15-20% faster in blocks of 512 rows than
# of 128.
BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights on [-1, 1] for the weight (1-x)^alpha_w (1+x)^beta_w."""

    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=256)
def jacobi_gauss_rule(n: int, alpha_w: float, beta_w: float) -> QuadratureRule:
    """n-point Gauss rule for the Jacobi weight (1-x)^alpha_w (1+x)^beta_w.

    Golub-Welsch: the three-term recurrence coefficients of the monic Jacobi
    polynomials form a symmetric tridiagonal matrix whose eigenvalues are the
    nodes; weights come from the first eigenvector components scaled by the
    zeroth moment.  Nodes are ascending and strictly inside (-1, 1); an
    n-point rule integrates polynomials of degree 2n-1 exactly against the
    weight.  Rules are cached and read-only.

    Requires n >= 1 and alpha_w, beta_w > -1.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got n = {n}")
    a, b = float(alpha_w), float(beta_w)
    if a <= -1.0 or b <= -1.0:
        raise ValueError(f"Jacobi exponents must exceed -1, got ({a}, {b})")
    ab = a + b
    mu0 = 2.0 ** (ab + 1.0) * gamma_fn(a + 1.0) * gamma_fn(b + 1.0) / gamma_fn(ab + 2.0)
    i = np.arange(n, dtype=float)
    denom = (2.0 * i + ab) * (2.0 * i + ab + 2.0)
    denom[0] = 1.0  # i = 0 handled explicitly below
    diag = (b * b - a * a) / denom
    diag[0] = (b - a) / (ab + 2.0)
    # The general off-diagonal term is 0/0 at j = 1 when a + b = -1, so the
    # j = 1 term is written with its factor 1 + a + b cancelled.
    j = np.arange(2, n, dtype=float)
    sj = 2.0 * j + ab
    off = np.sqrt(np.concatenate((
        [4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + ab) ** 2 * (3.0 + ab))],
        4.0 * j * (j + a) * (j + b) * (j + ab) / (sj * sj * (sj * sj - 1.0)))))[: n - 1]
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    weights = mu0 * vecs[0, :] ** 2
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights)


def row_block_quadrature(integrand, shape: tuple[int, ...], weights: np.ndarray) -> np.ndarray:
    """Row sums against ``weights`` of a grid of integrand values, in row blocks.

    The grid has shape ``shape + (points,)``: ``shape`` is (rows,), or
    (grids, rows) for several grids over the same rows.  ``integrand(sl,
    out, scratch)`` writes the grid rows in slice ``sl`` into ``out``, of
    shape ``shape[:-1] + (rows in sl, points)``; ``scratch`` is one more
    (rows in sl, points) array for its temporaries.  Both are views of
    buffers of BLOCK_BYTES per grid, allocated once per call and reused for
    every block, so only one block's grids exist at a time.  ``weights`` is
    one vector of ``points`` weights, or a (columns, points) array of
    several; returns the sums, of shape ``shape`` or ``(columns,) + shape``.
    Callers are the problem-1 source (two grids, one weight vector) and the
    exterior loads (one kernel grid, a weight vector per exterior piece).

    Every block's product with a weight vector runs over whole groups of 4
    rows (the last block is padded with zero rows, whose sums are dropped).
    OpenBLAS's dgemv sums every full group of 4 rows alike but the last
    ``n % 4`` rows of a product in another order, so without padding a
    row's sum would depend on where the sweep ends.  With it, a row's sum
    depends only on its own grid values, whatever the block size.
    """
    *lead, rows = shape
    columns = np.atleast_2d(weights)
    points = columns.shape[-1]
    whole = max(4, (rows + 3) // 4 * 4)  # rows rounded up to whole groups of 4, at least one
    block = min(max(4, BLOCK_BYTES // (8 * points) // 4 * 4), whole)
    buffers = np.empty((math.prod(lead) + 1, block, points))
    out, scratch = buffers[:-1].reshape(*lead, block, points), buffers[-1]
    sums = np.empty((len(columns), *lead, whole))
    for lo in range(0, rows, block):
        n = min(block, rows - lo)
        padded = (n + 3) // 4 * 4
        integrand(slice(lo, lo + n), out[..., :n, :], scratch[:n])
        out[..., n:padded, :] = 0.0
        for w, s in zip(columns, sums):
            np.matmul(out[..., :padded, :], w, out=s[..., lo:lo + padded])
    return sums[..., :rows] if weights.ndim > 1 else sums[0, ..., :rows]


def gauss_legendre_rule(n: int) -> QuadratureRule:
    return jacobi_gauss_rule(n, 0.0, 0.0)


def geometric_breakpoints(start: float, stop: float, first_width: float) -> np.ndarray:
    """Panel edges from start to stop > start, each width double the last.

    Used to resolve kernels that vary fastest near ``start``.
    """
    edges = [start]
    width = first_width
    while edges[-1] < stop:
        edges.append(min(stop, edges[-1] + width))
        width *= 2.0
    return np.array(edges)


def panel_quadrature_points(lo: np.ndarray, hi: np.ndarray, n: int):
    """Concatenated Gauss-Legendre points/weights, n per panel [lo_k, hi_k]."""
    rule = gauss_legendre_rule(n)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = (hi + lo) / 2.0
    rad = (hi - lo) / 2.0
    pts = (mid[:, None] + rad[:, None] * rule.nodes[None, :]).ravel()
    wts = (rad[:, None] * rule.weights[None, :]).ravel()
    return pts, wts
