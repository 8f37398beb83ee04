"""Gauss-Jacobi quadrature via the Golub-Welsch algorithm, plus panel helpers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import gamma_fn

# Point counts.  The smooth exponential-kernel integrals reach machine
# precision well below 64 points.  Geometrically graded panels get
# PANEL_POINTS Gauss-Legendre points each.
GAUSS_JACOBI_POINTS = 64
PANEL_POINTS = 32

# Rows per block of ``row_block_quadrature``.  128 rows of 64 points is
# 64 KB, below glibc's default 128 KiB mmap threshold, so a block's grid is
# reused heap memory rather than fresh pages faulted in on every call.  It
# must stay a multiple of 4 rows: with numpy's bundled OpenBLAS dgemv, blocks
# of 64, 128, 256 and 1024 rows matched the one-shot product bit for bit for
# M from 7 to 32767, and blocks of 257 rows did not.
ROW_BLOCK = 128


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


def row_block_quadrature(integrand, rows: int, weights: np.ndarray) -> np.ndarray:
    """``integrand(slice(0, rows)) @ weights``, evaluated ROW_BLOCK rows at a time.

    ``integrand(sl)`` returns the (rows in sl) x (points) grid of integrand
    values for the rows in the slice; only one block's grid exists at a time.
    """
    out = np.empty(rows)
    for lo in range(0, rows, ROW_BLOCK):
        sl = slice(lo, min(lo + ROW_BLOCK, rows))
        out[sl] = integrand(sl) @ weights
    return out


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
