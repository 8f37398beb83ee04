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
manufactured source and once for the diagonal.  ``tail_profile`` keeps its
most recent result and returns it when the call matches it.
The key is everything the value depends on: the parameters, the
Gauss-Jacobi point count, and the distances (a copy, so a caller that
later changes its distances array misses).  A call whose distances are the
kept call's distances reversed gets the kept result reversed.  That is
the value a new sweep would return, bit for bit: every
entry of T is computed from its own distance alone, by numpy's vectorized
functions on contiguous data and by row sums that do not depend on a row's
position (see ``row_block_quadrature``).  On a grid whose h is a power of
two, b - x is exactly x - a reversed, so such a grid sweeps once per
level.  Returned arrays are read-only (a reversed one is a read-only view),
so no caller can change a kept result.  The memo is a tuple rebound in one
step, so concurrent callers can at worst compute a profile twice, never
see a wrong one.
"""

from __future__ import annotations

import numpy as np

from .core import SchemeParams, gamma_fn
from .quadrature import GAUSS_JACOBI_POINTS, jacobi_gauss_rule, row_block_quadrature

# ((params and point count, distances, read-only T),) of the latest sweep, or ()
_recent: tuple = ()


def tail_profile(distances, params: SchemeParams) -> np.ndarray:
    """T(d) for an array of positive distances (unnormalized), read-only."""
    global _recent
    # Contiguous, so that numpy's vectorized exp and pow round every entry alike.
    d = np.atleast_1d(np.ascontiguousarray(distances, dtype=float))
    if np.any(d <= 0.0):
        raise ValueError("tail integrals require positive distances")
    key = (params, GAUSS_JACOBI_POINTS)
    for k, kept, T in _recent:
        if k == key and kept.shape == d.shape:
            if np.array_equal(kept, d):
                return T
            if np.array_equal(kept, np.flip(d)):
                return np.flip(T)
    T = _evaluate(d, params)
    T.flags.writeable = False
    _recent = ((key, d.copy(), T),)
    return T


def _evaluate(d: np.ndarray, params: SchemeParams) -> np.ndarray:
    beta, lam = params.beta, params.lam
    if lam == 0.0:
        return d ** (-beta) / beta
    if beta != 1.0:
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
    # Imported here so that ``import templap`` does not load scipy.special.
    from scipy.special import expn

    return expn(2, lam * d) / d
