"""Exact kernel tail integrals over the two exterior half-lines.

For an interior node at distance d from the nearer endpoint, the tail is

    T(d) = int_d^inf e^{-lam t} t^{-1-beta} dt,

absorbed into the diagonal of the discrete operator.  Substituting t = d s
gives one formula for every order:

* lam = 0: the closed form d^{-beta} / beta.
* lam > 0: T(d) = E_{1+beta}(lam d) / d^beta, with the exponential
  integral from ``expint``, one power series below lam d = 1 for every
  order: within 4e-14 relative at every lam d, and 4e-15 within 0.01 of
  beta = 1, where the series groups its pole terms.

``tail_profile`` is pure: each call sweeps its distances.  A level shares
one sweep between its problem-1 or problem-2 source and its diagonal
through ``assembly.level_tails``.
"""

from __future__ import annotations

import math

import numpy as np

from .core import SchemeParams

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
    * x <= 1: the power series
      Gamma(1-p) x^{p-1} - sum_k (-x)^k / (k! (1-p+k)) (DLMF 8.19.10),
      ``power_series``.  Within 0.1 of an integer n >= 1, Gamma(1-p) x^{p-1}
      and the k = n-1 term share a pole and are summed as one, ``pole_pair``;
      at p = n that is E_n's psi term (A&S 5.1.11, 5.1.12 for n = 1, 2).
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
    xn = x[~far]
    n = round(p)
    if n >= 1 and abs(p - n) <= 0.1:
        out[~far] = pole_pair(p, n, xn) - power_series(1.0 - p, xn, skip=(n - 1,))
    else:
        out[~far] = math.gamma(1.0 - p) * xn ** (p - 1.0) - power_series(1.0 - p, xn)
    return out


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


def power_series(q: float, z, skip=()) -> np.ndarray:
    """sum_{j not in skip} (-z)^j / (j! (q+j)), cut where z^j / j! < 1e-19 at the largest z.

    E_p's series less its Gamma term (q = 1 - p) and the problem-2 kernel
    moments; a skipped term contributes nothing.
    """
    z = np.asarray(z, dtype=float)
    zmax = float(z.max()) if z.size else 0.0
    n = 1
    while zmax ** n / math.factorial(n) > 1e-19:
        n += 1
    minus_z, s = -z, np.zeros_like(z)
    for j in range(n - 1, -1, -1):  # Horner, in place
        s *= minus_z
        s += 0.0 if j in skip else 1.0 / (math.factorial(j) * (q + j))
    return s


def _evaluate(d: np.ndarray, params: SchemeParams) -> np.ndarray:
    beta, lam = params.beta, params.lam
    if lam == 0.0:
        return d ** (-beta) / beta
    return expint(1.0 + beta, lam * d) / d ** beta
