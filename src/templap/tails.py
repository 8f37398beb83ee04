"""Exact kernel tail integrals over the two exterior half-lines.

For an interior node at distance d from the nearer endpoint, the tail is

    T(d) = int_d^inf e^{-lam t} t^{-1-beta} dt,

absorbed into the diagonal of the discrete operator.  Evaluation dispatches
on the parameters:

* lam = 0: the closed form d^{-beta} / beta.
* lam > 0, beta != 1: integration by parts twice leaves the incomplete
  integral of e^{-lam t} t^{1-beta} over (0, d), evaluated spectrally by
  Gauss-Jacobi with weight (1+xi)^{1-beta}.
* lam > 0, beta = 1: substituting t = d s gives the closed form
  T(d) = E_2(lam d) / d, with E_2 from ``scipy.special.expn``.

A problem-1 level needs the same two profiles twice: once for the
manufactured source and once for the diagonal.  ``tail_profile`` keeps the
two most recent results and returns a kept one when the call matches it.
The key is everything the value depends on: the parameters, the
Gauss-Jacobi point count, and the distances' shape and bytes (a copy, so
a caller that later changes its distances array misses).  Returned arrays
are read-only, so no caller can change a kept result.  The memo is a tuple
rebound in one step, so concurrent callers can at worst lose an entry and
compute a profile twice, never see a wrong one.
"""

from __future__ import annotations

import numpy as np

from .core import SchemeParams, gamma_fn
from .quadrature import GAUSS_JACOBI_POINTS, jacobi_gauss_rule, row_block_quadrature

_recent: tuple = ()  # ((key, read-only T), ...), most recent first, at most two


def tail_profile(distances, params: SchemeParams) -> np.ndarray:
    """T(d) for an array of positive distances (unnormalized), read-only."""
    global _recent
    d = np.atleast_1d(np.asarray(distances, dtype=float))
    if np.any(d <= 0.0):
        raise ValueError("tail integrals require positive distances")
    key = (params, GAUSS_JACOBI_POINTS, d.shape, d.tobytes())
    for k, T in _recent:
        if k == key:
            return T
    T = _evaluate(d, params)
    T.flags.writeable = False
    _recent = ((key, T),) + _recent[:1]
    return T


def _evaluate(d: np.ndarray, params: SchemeParams) -> np.ndarray:
    beta, lam = params.beta, params.lam
    if lam == 0.0:
        return d ** (-beta) / beta
    if beta != 1.0:
        rule = jacobi_gauss_rule(GAUSS_JACOBI_POINTS, 0.0, 1.0 - beta)
        # int_0^d e^{-lam t} t^{1-beta} dt, algebraic factor in the weight
        rate, shifted = -(lam * d / 2.0).ravel(), 1.0 + rule.nodes
        sums = row_block_quadrature(lambda sl: np.exp(np.multiply.outer(rate[sl], shifted)),
                                    d.size, rule.weights)
        incomplete = (d / 2.0) ** (2.0 - beta) * sums.reshape(d.shape)
        return (np.exp(-lam * d) * d ** (-beta) / beta
                + lam / (beta * (1.0 - beta)) * np.exp(-lam * d) * d ** (1.0 - beta)
                + lam ** beta * gamma_fn(-beta)
                + lam ** 2 / (beta * (1.0 - beta)) * incomplete)
    # Imported here so that ``import templap`` does not load scipy.special.
    from scipy.special import expn

    return expn(2, lam * d) / d
