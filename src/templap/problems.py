"""The three benchmark problems: manufactured sources and exact solutions.

Problem 1: u(x) = x^2 (1-x) on (0, 1) with zero exterior data.  The source
is u's image under the operator, in closed form up to two smooth incomplete
integrals handled by Gauss-Jacobi (one code path for all lam >= 0).

Problem 2: exterior data -2x on [-1/2, 0] and 2x - 2 on [1, 3/2], interior
solution (x - x^2)^2.  The source is manufactured numerically by the
reference operator applied to the full piecewise extension.

Problem 3: constant source f = 1 on (-r, r) with absorbing exterior (the
mean first exit time of a tempered stable particle).  For lam = 0 the
solution is known in closed form; for lam > 0 convergence is measured by
successive refinement.
"""

from __future__ import annotations

import math

import numpy as np

from .assembly import BoundarySpec
from .core import Grid, SchemeParams, gamma_fn
from .quadrature import GAUSS_JACOBI_POINTS, jacobi_gauss_rule, row_block_quadrature
from .reference import reference_apply_operator
from .tails import expint, tail_profile

EXAMPLE2_SUPPORT = (-0.5, 1.5)


def example1_exact(x):
    return x * x * (1.0 - x)


def example1_f(params: SchemeParams, grid: Grid) -> np.ndarray:
    """Source manufactured from u = x^2 (1 - x) on (0, 1).

    Writes the kernel integral of u as u(x)(tail sum) plus boundary power
    terms plus two incomplete integrals of linear polynomials against
    e^{-lam t} t^{1-beta}; for beta = 1 the kernel powers collapse to
    elementary integrals plus a difference of exponential integral tails.
    The tails are the ones the operator's diagonal reuses (see tails.py).
    Every term, the tails included, is evaluated once on the distances x
    to the left endpoint and reversed for the distances 1 - x to the right
    one: both incomplete integrals share one e^{-lam t} grid per row block,
    and beta = 1 takes one E_1 sweep (``expint``).  Where h is a power of
    two, 1 - x is exactly x reversed; elsewhere the two differ by rounding.
    Scaled by the normalization constant, as the operator is.
    """
    if (grid.a, grid.b) != (0.0, 1.0):
        raise ValueError("the manufactured source for problem 1 lives on (0, 1)")
    beta, lam = params.beta, params.lam
    x = grid.interior
    u = example1_exact(x)
    up = 2.0 * x - 3.0 * x * x
    T = tail_profile(x, params)
    tails = T + T[::-1]

    if not params.is_log_case:
        # int_0^1 g(t) t^{1-beta} dt = sum wL g(tL); rescaled by d for int_0^d.
        rule = jacobi_gauss_rule(GAUSS_JACOBI_POINTS, 0.0, 1.0 - beta)
        tL = (1.0 / 2.0) * (1.0 + rule.nodes)
        wL = (1.0 / 2.0) ** ((1.0 - beta) + 1.0) * rule.weights
        cL = 3.0 * x - 1.0 + lam * up / (1.0 - beta)
        cR = (3.0 * x - 1.0 - lam * up / (1.0 - beta))[::-1]  # the right side runs over x reversed

        def integrands(rows, out, t):
            # (cL - t) e^{-lam t} and (t + cR) e^{-lam t} on t = x tL, one
            # exponential grid for both: the right side's rows are x reversed.
            left, right = out
            np.multiply.outer(x[rows], tL, out=t)
            np.exp(np.multiply(t, -lam, out=left), out=left)
            np.multiply(np.add(t, cR[rows, None], out=right), left, out=right)
            np.multiply(np.subtract(cL[rows, None], t, out=t), left, out=left)

        scale = x ** (2.0 - beta)
        left, right = scale * row_block_quadrature(integrands, (2, x.size), wL)
        power = x ** (1.0 - beta) * np.exp(-lam * x)
        f = (u * tails
             + up / (1.0 - beta) * (power - power[::-1])
             + left
             + right[::-1])
    else:
        if lam == 0.0:
            moment0 = x
            moment1 = x * x / 2.0
            log_tail = np.log(x)
            tail_diff = log_tail - log_tail[::-1]
        else:
            moment0 = -np.expm1(-lam * x) / lam
            moment1 = (-np.expm1(-lam * x) - lam * x * np.exp(-lam * x)) / lam ** 2
            e1 = expint(1, lam * x)
            tail_diff = e1[::-1] - e1
        f = (u * tails
             + (-moment1 + (3.0 * x - 1.0) * moment0)
             + (moment1[::-1] + (3.0 * x - 1.0) * moment0[::-1])
             + up * tail_diff)
    return params.cbeta * f


def example2_extension(y) -> np.ndarray:
    """The exact solution of problem 2 on all of R (interior plus exterior)."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    left = (y >= -0.5) & (y <= 0.0)
    right = (y >= 1.0) & (y <= 1.5)
    inside = (y > 0.0) & (y < 1.0)
    out[left] = -2.0 * y[left]
    out[right] = 2.0 * y[right] - 2.0
    out[inside] = (y[inside] - y[inside] ** 2) ** 2
    return out


def example2_exterior(y) -> np.ndarray:
    """Exterior data of problem 2 (zero inside the domain)."""
    y = np.asarray(y, dtype=float)
    return np.where((y > 0.0) & (y < 1.0), 0.0, example2_extension(y))


def example2_second_difference(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Exact 2u(x) - u(x-t) - u(x+t) for the interior quartic (x+-t inside)."""
    u2 = 2.0 - 12.0 * x + 12.0 * x * x
    return -(u2 + 2.0 * t * t) * t * t


def example2_setup(params: SchemeParams, grid: Grid):
    """Source, boundary data, and exact interior values for problem 2.

    The source is manufactured numerically by one batched call of the
    reference operator (with the exact quartic second difference, so the
    near field carries no rounding floor); the extension is symmetric under
    y -> 1 - y and the kernel is even, so only the lower half of the nodes
    is evaluated and the rest mirrored.
    """
    if (grid.a, grid.b) != (0.0, 1.0):
        raise ValueError("problem 2 lives on (0, 1)")
    x = grid.interior
    M = grid.M
    half = (M + 1) // 2
    f = np.empty(M)
    f[:half] = reference_apply_operator(
        example2_extension, x[:half], params, grid.a, grid.b,
        support=EXAMPLE2_SUPPORT, second_difference=example2_second_difference)
    f[half:] = f[:M - half][::-1]
    boundary = BoundarySpec(exterior_g=example2_exterior, u_a=0.0, u_b=0.0,
                            support=EXAMPLE2_SUPPORT)
    exact = (x - x * x) ** 2
    return f, boundary, exact


def example3_exact(beta: float, r: float, x):
    """Mean first exit time from (-r, r) for the untempered operator.

    sqrt(pi) (r^2 - x^2)^{beta/2} / (2^beta Gamma(1 + beta/2) Gamma(1/2 + beta/2)),
    valid only for lam = 0; vanishes at |x| = r.
    """
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > r):
        raise ValueError("points must lie inside [-r, r]")
    c = math.sqrt(math.pi) / (2.0 ** beta * gamma_fn(1.0 + beta / 2.0)
                              * gamma_fn(0.5 + beta / 2.0))
    out = c * np.maximum(r * r - x * x, 0.0) ** (beta / 2.0)
    return out if out.ndim else float(out)


def example3_setup(params: SchemeParams, grid: Grid):
    """Constant unit source and absorbing boundary; exact values iff lam = 0."""
    f = np.ones(grid.M)
    boundary = BoundarySpec()
    if params.lam == 0.0:
        r = grid.b
        exact = example3_exact(params.beta, r, grid.interior)
    else:
        exact = None  # no closed form: use successive refinement
    return f, boundary, exact
