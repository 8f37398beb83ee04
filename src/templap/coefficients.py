"""Closed-form interpolation weights of the finite-difference discretization.

Linear interpolation of the kernel-smoothed differences on each cell
produces, for every row, four families of positive weights: the lag-m pair
sums (off-diagonal entries), the adjacent-cell weight (first off-diagonal
together with the singular-cell contribution), and the two boundary weights
that multiply the prescribed endpoint values.  All have closed forms built
from the prefactor

    C = h^{-beta} / ((beta - s)(1 - beta + s)),

which has a pole at beta = 1; that case uses separate logarithmic forms.
Evaluations are arranged around expm1/log1p so that the second differences
of m^{1-beta+s} do not cancel for large lags.

``coeff_quadrature_oracle`` evaluates the single-cell defining integrals by
Gauss quadrature; it exists only as an independent cross-check of the
closed forms.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Grid, SchemeParams
from .quadrature import gauss_legendre_rule

ORACLE_POINTS = 64


def _prefactor(params: SchemeParams, h: float) -> float:
    beta, s = params.beta, params.s
    return h ** (-beta) / ((beta - s) * (1.0 - beta + s))


def pair_sum_profile(m, params: SchemeParams, grid: Grid) -> np.ndarray:
    """Combined weight of hat functions at lag m >= 2 (vectorized over m).

    For beta != 1 this is C * (2 m^p - (m-1)^p - (m+1)^p) with p = 1-beta+s;
    the beta = 1 forms replace the powers by m log m terms.  The result is
    positive and is later multiplied by e^{-lam m h} / m^s to form the
    negated off-diagonal entries.
    """
    m = np.asarray(m, dtype=float)
    h = grid.h
    u = 1.0 / m
    if params.is_log_case:
        if params.s == 0:
            return -np.log1p(-u * u) / h
        return (m * np.log1p(-u * u) + (np.log1p(u) - np.log1p(-u))) / h
    p = 1.0 - params.beta + params.s
    bracket = -(m ** p) * (np.expm1(p * np.log1p(u)) + np.expm1(p * np.log1p(-u)))
    return _prefactor(params, h) * bracket


def coeff_near_diag(params: SchemeParams, grid: Grid) -> float:
    """Magnitude of the first off-diagonal entry (lag 1, unnormalized).

    Sum of the singular-cell weight h^{-beta}/(s1+1-beta) and the adjacent
    cell weight, both damped by e^{-lam h}.
    """
    h = grid.h
    beta, s, s1 = params.beta, params.s, params.s1
    if params.is_log_case:
        adj = (1.0 - math.log(2.0)) / h if s == 0 else (2.0 * math.log(2.0) - 1.0) / h
    else:
        adj = _prefactor(params, h) * (2.0 - beta + s - 2.0 ** (1.0 - beta + s))
    return (h ** (-beta) / (s1 + 1.0 - beta) + adj) * math.exp(-params.lam * h)


def boundary_left_profile(i, params: SchemeParams, grid: Grid) -> np.ndarray:
    """Weight multiplying the left endpoint value in row i (vectorized, i >= 2).

    By symmetry the weight of the right endpoint value in row i is this
    weight at M + 1 - i.
    """
    i = np.asarray(i, dtype=float)
    h = grid.h
    u = 1.0 / i
    if params.is_log_case:
        if params.s == 0:
            return (-np.log1p(-u) - u) / h
        return ((1.0 - i) * (-np.log1p(-u)) + 1.0) / h
    p = 1.0 - params.beta + params.s
    bracket = -(i ** p) * (np.expm1(p * np.log1p(-u)) + p * u)
    return _prefactor(params, h) * bracket


def singular_cell_weight(params: SchemeParams, grid: Grid) -> float:
    """Weight h^{-beta} e^{-lam h} / (s1 + 1 - beta) of the symmetric singular cell."""
    return grid.h ** (-params.beta) / (params.s1 + 1.0 - params.beta) \
        * math.exp(-params.lam * grid.h)


def coeff_quadrature_oracle(i: int, k: int, kind: str, params: SchemeParams,
                            grid: Grid) -> float:
    """Single-cell interpolation weight by direct Gauss quadrature.

    kind selects the integrand over cell [x_{k-1}, x_k]:

        A1: (x_k - y)     (x_i - y)^{s-1-beta}      (left side,  1 <= k <= i-1)
        A2: (y - x_{k-1}) (x_i - y)^{s-1-beta}      (left side,  1 <= k <= i-1)
        A3: (x_k - y)     (y - x_i)^{s-1-beta}      (right side, i+2 <= k <= M+1)
        A4: (y - x_{k-1}) (y - x_i)^{s-1-beta}      (right side, i+2 <= k <= M+1)

    each divided by h^{s+1}.  Cells containing (or touching) the
    singularity x_i are rejected.  Accuracy is far better than 1e-10
    relative: the integrand is analytic on the cell with the nearest
    singularity at least one cell away.
    """
    if kind in ("A1", "A2"):
        if not 1 <= k <= i - 1:
            raise ValueError(f"{kind} requires 1 <= k <= i-1, got (i, k) = ({i}, {k})")
    elif kind in ("A3", "A4"):
        if not i + 2 <= k <= grid.M + 1:
            raise ValueError(f"{kind} requires i+2 <= k <= M+1, got (i, k) = ({i}, {k})")
    else:
        raise ValueError(f"unknown coefficient kind {kind!r}")
    h = grid.h
    beta, s = params.beta, params.s
    xg = grid.nodes
    x_i, y0, y1 = xg[i], xg[k - 1], xg[k]
    rule = gauss_legendre_rule(ORACLE_POINTS)
    y = (y1 + y0) / 2.0 + (y1 - y0) / 2.0 * rule.nodes
    hat = (y1 - y) if kind in ("A1", "A3") else (y - y0)
    dist = (x_i - y) if kind in ("A1", "A2") else (y - x_i)
    vals = hat * dist ** (s - 1.0 - beta)
    return (y1 - y0) / 2.0 * float(rule.weights @ vals) / h ** (s + 1.0)
