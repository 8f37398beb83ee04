"""Exact kernel tail integrals over the two exterior half-lines.

For an interior node at distance d from the nearer endpoint, the tail is

    T(d) = int_d^inf e^{-lam t} t^{-1-beta} dt,

absorbed into the diagonal of the discrete operator.  Substituting t = d s
gives one formula for every order:

* lam = 0: the closed form d^{-beta} / beta.
* lam > 0: T(d) = E_{1+beta}(lam d) / d^beta, with the exponential
  integral from ``expint``: within 4e-14 relative at every lam d, and
  4e-15 within 0.01 of beta = 1, where its power series groups its pole terms.

``tail_profile`` is pure: each call sweeps its distances.  A level shares
one sweep between its problem-1 or problem-2 source and its diagonal
through ``assembly.level_tails``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import SchemeParams

_E_AT_1 = {1: 0.21938393439552029, 2: 0.14849550677592205}  # E_1(1), E_2(1)
# zeta(2), ..., zeta(17): enough for ln Gamma(1 - e) at |e| <= 0.1.
_ZETA = (1.6449340668482264, 1.2020569031595942, 1.0823232337111381, 1.03692775514337,
         1.0173430619844492, 1.008349277381923, 1.0040773561979444, 1.0020083928260821,
         1.000994575127818, 1.0004941886041194, 1.000246086553308, 1.0001227133475785,
         1.0000612481350588, 1.000030588236307, 1.0000152822594086, 1.0000076371976379)


def tail_profile(distances, params: SchemeParams) -> np.ndarray:
    """T(d) for an array of positive distances (unnormalized)."""
    # Contiguous, so that numpy's vectorized exp and pow round every entry alike.
    d = np.atleast_1d(np.ascontiguousarray(distances, dtype=float))
    if not np.all(d > 0.0):
        raise ValueError("tail integrals require positive distances")
    return _evaluate(d, params)


def expint(p, x) -> np.ndarray:
    """E_p(x) = int_1^inf e^{-x s} s^{-p} ds for x > 0, each entry from its own x.

    * x > 1: the continued fraction
      e^{-x} / (x + p - 1 p/(x + p + 2 - 2 (p+1)/(x + p + 4 - ...))), the even
      part of e^{-x} / (x + p/(1 + 1/(x + (p+1)/(1 + ...)))) with one division
      per step, evaluated from the bottom at a fixed depth of 100.
    * x <= 1, p not 1 or 2: the power series
      Gamma(1-p) x^{p-1} - sum_k (-x)^k / (k! (1-p+k)) (DLMF 8.19.10).
      Within 0.1 of an integer n >= 1, Gamma(1-p) x^{p-1} and the k = n-1
      term share a pole and are summed as one, ``pole_pair``.
    * 1/2 < x <= 1, p in {1, 2}: the Taylor series about 1 in u = 1 - x;
      here the power series cancels to 1e-15.
    * x <= 1/2, p in {1, 2}: the power series (A&S 5.1.11, 5.1.12).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    far = x > 1.0
    xf = x[far]
    t = np.zeros_like(xf)
    for i in range(100 if xf.size else 0, 0, -1):  # t = i (p - 1 + i) / (x + p + 2 i - t)
        np.subtract(xf, t, out=t)
        t += p + 2 * i
        np.divide(i * (p - 1 + i), t, out=t)
    out[far] = np.exp(-xf) / (xf + p - t)
    if far.all():
        return out
    if p not in _E_AT_1:
        xn = x[~far]
        n = round(p)
        if n >= 1 and abs(p - n) <= 0.1:
            out[~far] = pole_pair(p, n, xn) - horner(-xn, _power_coefficients(p, n - 1))
        else:
            out[~far] = math.gamma(1.0 - p) * xn ** (p - 1.0) - horner(-xn, _power_coefficients(p))
        return out
    n, near = int(p), x <= 0.5
    mid = ~(far | near)
    taylor, power, psi = _series_coefficients(n)
    out[mid] = horner(1.0 - x[mid], taylor)
    xn = x[near]
    out[near] = (-xn) ** (n - 1) / math.factorial(n - 1) * (psi - np.log(xn)) - horner(-xn, power)
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


def pole_pair(p: float, n: int, x) -> np.ndarray:
    """Gamma(1-p) x^{p-1} - (-x)^{n-1} / ((n-1)! (n-p)) for integer n >= 1, |p - n| < 1, x > 0.

    The two terms of E_p's power series with a pole at p = n, summed as
    (-1)^n x^{n-1} / (n-1)! expm1(e phi) / e with e = p - n and
    phi = ln x + ln Gamma(1-e) / e - sum_{j<n} log1p(e/j) / e, which is finite
    at e = 0: there it is E_n's (-x)^{n-1} (psi(n) - ln x) / (n-1)!.
    """
    x = np.asarray(x, dtype=float)
    e = p - n
    phi = np.log(x) + (_log_gamma_ratio(e)
                       - sum(math.log1p(e / j) / e if e else 1.0 / j for j in range(1, n)))
    return (-1.0) ** n * x ** (n - 1) / math.factorial(n - 1) * log_power(e, phi)


def log_power(q: float, r) -> np.ndarray:
    """(e^{q r} - 1) / q, which is r at q = 0: (d^q - 1) / q for r = ln d."""
    a = q * np.asarray(r, dtype=float)
    return r * np.divide(np.expm1(a), a, out=np.ones_like(a), where=a != 0.0)


def _log_gamma_ratio(e: float) -> float:
    """ln Gamma(1 - e) / e for |e| < 1, Euler's gamma at e = 0.

    Within 0.1 of 0 from gamma + sum_{k>=2} zeta(k) e^{k-1} / k, where
    ``math.lgamma`` would lose the digits that 1 - e rounds away.
    """
    if abs(e) > 0.1:
        return math.lgamma(1.0 - e) / e
    s = 0.0
    for k in range(len(_ZETA) + 1, 1, -1):
        s = s * e + _ZETA[k - 2] / k
    return np.euler_gamma + e * s


@lru_cache(maxsize=None)
def _power_coefficients(p: float, pole: int | None = None) -> tuple:
    """1 / (k! (1 - p + k)) for k < 22, with 0 at k = ``pole``; 22 terms reach x = 1."""
    return tuple(0.0 if k == pole else 1.0 / (math.factorial(k) * (1.0 - p + k))
                 for k in range(22))


def horner(z: np.ndarray, coefficients) -> np.ndarray:
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
    return expint(1.0 + beta, lam * d) / d ** beta
