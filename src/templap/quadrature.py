"""Gauss rules for the weight (1+x)^b by Golub-Welsch, plus panel helpers.

b = 0 (Gauss-Legendre) serves the graded panels, b = 1 - beta the reference
operator's near field.  At 64 points and b = -0.95 the weights are within
3.4e-13 of mpmath; ``scipy.special.roots_jacobi`` is 2.0e-10 off.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

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


@lru_cache(maxsize=256)
def jacobi_gauss_rule(n: int, b: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule (nodes, weights) on [-1, 1] for the weight (1+x)^b.

    Golub-Welsch: the three-term recurrence coefficients of the monic Jacobi
    polynomials P^(0, b) form a symmetric tridiagonal matrix whose eigenvalues
    are the nodes; weights are the squared first eigenvector components times
    the zeroth moment 2^(b+1) / (b+1).  Nodes are ascending and strictly
    inside (-1, 1); an n-point rule integrates polynomials of degree 2n-1
    exactly against the weight.  b = 0 is Gauss-Legendre.  Rules are cached
    and read-only.

    Requires n >= 1 and b > -1.
    """
    if n < 1 or not b > -1.0:
        raise ValueError(f"need n >= 1 and b > -1, got n = {n}, b = {b}")
    j = np.arange(1, n, dtype=float)
    s = 2.0 * j + b
    diag = np.concatenate(([b / (b + 2.0)], b * b / (s * (s + 2.0))))
    # One off-diagonal formula for every j >= 1: each factor is positive
    # because b > -1, and s - 1 and s + 1 are formed from b directly so that
    # the factor 1 + b at j = 1 keeps its bits as b approaches -1.
    off = np.sqrt(4.0 * j * j * (j + b) * (j + b)
                  / (s * s * (2.0 * j - 1.0 + b) * (2.0 * j + 1.0 + b)))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    weights = 2.0 ** (b + 1.0) / (b + 1.0) * vecs[0, :] ** 2
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


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
    nodes, weights = jacobi_gauss_rule(n, 0.0)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = (hi + lo) / 2.0
    rad = (hi - lo) / 2.0
    pts = (mid[:, None] + rad[:, None] * nodes[None, :]).ravel()
    wts = (rad[:, None] * weights[None, :]).ravel()
    return pts, wts
