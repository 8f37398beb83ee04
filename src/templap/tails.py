"""Exact kernel tail integrals over the two exterior half-lines.

For an interior node at distance d from the nearer endpoint, the tail is

    T(d) = int_d^inf e^{-lam t} t^{-1-beta} dt,

absorbed into the diagonal of the discrete operator.  Evaluation dispatches
on the parameters:

* lam = 0: the closed form d^{-beta} / beta.
* lam > 0, beta != 1, lam d < 3: integration by parts twice leaves the
  incomplete integral of e^{-lam t} t^{1-beta} over (0, d), evaluated
  spectrally by Gauss-Jacobi with weight (1+xi)^{1-beta}.
* lam > 0, lam d >= 3 or beta = 1: substituting t = d s gives
  T(d) = d^{-beta} E_{1+beta}(lam d), with the exponential integral from
  ``expint``.  The Gauss-Jacobi form sums terms of size lam^beta that cancel
  and cannot resolve e^{-lam t} once lam d is in the hundreds.

A problem-1 level needs the same profile twice: once for the manufactured
source and once for the diagonal.  Both take the right endpoint's tails as
the left endpoint's reversed, since b - x_i = x_{M+1-i} - a on a uniform
grid, so one sweep serves a level.  ``tail_profile`` keeps its most recent
result and returns it when the call matches it.  The key is everything the
value depends on: the parameters, the Gauss-Jacobi point count, and the
distances (a copy, so a caller that later changes its distances array
misses).  Returned arrays are read-only, so no caller can change a kept
result.  The memo is a tuple rebound in one step, so concurrent callers can
at worst compute a profile twice, never see a wrong one.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import SchemeParams, gamma_fn
from .quadrature import GAUSS_JACOBI_POINTS, jacobi_gauss_rule, row_block_quadrature

# ((params and point count, distances, read-only T),) of the latest sweep, or ()
_recent: tuple = ()

_E_AT_1 = {1: 0.21938393439552029, 2: 0.14849550677592205}  # E_1(1), E_2(1)


def tail_profile(distances, params: SchemeParams) -> np.ndarray:
    """T(d) for an array of positive distances (unnormalized), read-only."""
    global _recent
    # Contiguous, so that numpy's vectorized exp and pow round every entry alike.
    d = np.atleast_1d(np.ascontiguousarray(distances, dtype=float))
    if np.any(d <= 0.0):
        raise ValueError("tail integrals require positive distances")
    key = (params, GAUSS_JACOBI_POINTS)
    for k, kept, T in _recent:
        if k == key and np.array_equal(kept, d):
            return T
    T = _evaluate(d, params)
    T.flags.writeable = False
    _recent = ((key, d.copy(), T),)
    return T


def expint(p, x) -> np.ndarray:
    """E_p(x) = int_1^inf e^{-x s} s^{-p} ds for x > 0, each entry from its own x.

    * x > 1: the continued fraction
      e^{-x} / (x + p - 1 p/(x + p + 2 - 2 (p+1)/(x + p + 4 - ...))), the even
      part of e^{-x} / (x + p/(1 + 1/(x + (p+1)/(1 + ...)))) with one division
      per step, evaluated from the bottom at a fixed depth of 100.
    * 1/2 < x <= 1, p in {1, 2}: the Taylor series about 1 in u = 1 - x;
      here the power series cancels to 1e-15.
    * x <= 1/2, p in {1, 2}: the power series (A&S 5.1.11, 5.1.12).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    far, near = x > 1.0, x <= 0.5
    if p not in _E_AT_1 and not far.all():
        raise ValueError(f"E_p(x) for x <= 1 needs p = 1 or 2, got p = {p}")
    xf = x[far]
    t = np.zeros_like(xf)
    for i in range(100, 0, -1):  # t = i (p - 1 + i) / (x + p + 2 i - t), in place
        np.subtract(xf, t, out=t)
        t += p + 2 * i
        np.divide(i * (p - 1 + i), t, out=t)
    out[far] = np.exp(-xf) / (xf + p - t)
    if far.all():
        return out
    n, mid = int(p), ~(far | near)
    taylor, power, psi = _series_coefficients(n)
    out[mid] = _horner(1.0 - x[mid], taylor)
    xn = x[near]
    out[near] = (-xn) ** (n - 1) / math.factorial(n - 1) * (psi - np.log(xn)) - _horner(-xn, power)
    return out


@lru_cache(maxsize=None)
def _series_coefficients(n: int) -> tuple[tuple, tuple, float]:
    """E_n's Taylor coefficients about 1, its power-series coefficients and psi(n).

    E_n(1 - u) = sum_k u^k E_{n-k}(1) / k!, all terms positive, with
    E_m(1) = e^{-1} - m E_{m+1}(1) for m <= 0; 61 terms reach u = 1/2.  The
    power series is E_n(x) = (-x)^{n-1} (psi(n) - ln x) / (n-1)!
    - sum_{k != n-1} (-x)^k / ((k - n + 1) k!); 21 terms reach x = 1/2.
    """
    e = dict(_E_AT_1)
    for m in range(0, n - 61, -1):
        e[m] = math.exp(-1.0) - m * e[m + 1]
    taylor = tuple(e[n - k] / math.factorial(k) for k in range(61))
    power = tuple(0.0 if k == n - 1 else 1.0 / ((k - n + 1) * math.factorial(k)) for k in range(21))
    return taylor, power, -np.euler_gamma + sum(1.0 / m for m in range(1, n))


def _horner(z: np.ndarray, coefficients) -> np.ndarray:
    """sum_k coefficients[k] z^k, from the highest power down, in place."""
    s = np.zeros_like(z)
    for c in reversed(coefficients):
        s *= z
        s += c
    return s


def _evaluate(d: np.ndarray, params: SchemeParams) -> np.ndarray:
    beta, lam = params.beta, params.lam
    if lam == 0.0:
        return d ** (-beta) / beta
    if beta == 1.0:
        return expint(2, lam * d) / d
    far = lam * d >= 3.0
    if not far.any():
        return _integrated_by_parts(d, beta, lam)
    T = np.empty_like(d)
    T[far] = d[far] ** (-beta) * expint(1.0 + beta, lam * d[far])
    T[~far] = _integrated_by_parts(d[~far], beta, lam)
    return T


def _integrated_by_parts(d: np.ndarray, beta: float, lam: float) -> np.ndarray:
    """T(d) for beta != 1 through the Gauss-Jacobi form; used where lam d < 3."""
    rule = jacobi_gauss_rule(GAUSS_JACOBI_POINTS, 0.0, 1.0 - beta)
    # int_0^d e^{-lam t} t^{1-beta} dt, algebraic factor in the weight
    rate, shifted = -(lam * d / 2.0).ravel(), 1.0 + rule.nodes

    def integrand(sl, out, scratch):
        np.exp(np.multiply.outer(rate[sl], shifted, out=out), out=out)

    sums = row_block_quadrature(integrand, (d.size,), rule.weights)
    incomplete = (d / 2.0) ** (2.0 - beta) * sums.reshape(d.shape)
    return (np.exp(-lam * d) * d ** (-beta) / beta
            + lam / (beta * (1.0 - beta)) * np.exp(-lam * d) * d ** (1.0 - beta)
            + lam ** beta * gamma_fn(-beta)
            + lam ** 2 / (beta * (1.0 - beta)) * incomplete)
