"""Exact kernel tail integrals over the two exterior half-lines.

For an interior node at distance d from the nearer endpoint, the tail is

    T(d) = int_d^inf e^{-lam t} t^{-1-beta} dt,

absorbed into the diagonal of the discrete operator.  Evaluation dispatches
on the parameters:

* lam = 0: the closed form d^{-beta} / beta.
* lam > 0, beta != 1: integration by parts twice leaves the incomplete
  integral of e^{-lam t} t^{1-beta} over (0, d), evaluated spectrally by
  Gauss-Jacobi with weight (1+xi)^{1-beta}.
* lam > 0, beta = 1: the identity T(d) = e^{-lam d}/d - lam E1(lam d) for
  d < 1/(2 lam) and for lam d > 30 (where T itself is below e^{-30});
  in between, substituting w = 1/t maps the tail onto int e^{-lam/w} dw
  over (lam/K, 1/d] (the cutoff K drops an O(e^{-K}) remainder), done by
  Gauss-Legendre.
"""

from __future__ import annotations

import numpy as np

from .core import SchemeParams, e1, gamma_fn
from .quadrature import (
    GAUSS_JACOBI_POINTS,
    TAIL_SUBSTITUTION_POINTS,
    gauss_legendre_rule,
    jacobi_gauss_rule,
)

# Cutoff K of the reciprocal substitution used for the beta = 1 tail: the
# integral of e^{-lam/w} over (0, lam/K] is dropped, an O(e^{-K}) truncation.
TAIL_SUBSTITUTION_CUTOFF = 80.0


def tail_profile(distances, params: SchemeParams) -> np.ndarray:
    """T(d) for an array of positive distances (unnormalized)."""
    d = np.atleast_1d(np.asarray(distances, dtype=float))
    if np.any(d <= 0.0):
        raise ValueError("tail integrals require positive distances")
    beta, lam = params.beta, params.lam
    if lam == 0.0:
        return d ** (-beta) / beta
    if beta != 1.0:
        rule = jacobi_gauss_rule(GAUSS_JACOBI_POINTS, 0.0, 1.0 - beta)
        # int_0^d e^{-lam t} t^{1-beta} dt, algebraic factor in the weight
        expo = np.exp(np.multiply.outer(-(lam * d / 2.0), 1.0 + rule.nodes))
        incomplete = (d / 2.0) ** (2.0 - beta) * (expo @ rule.weights)
        return (np.exp(-lam * d) * d ** (-beta) / beta
                + lam / (beta * (1.0 - beta)) * np.exp(-lam * d) * d ** (1.0 - beta)
                + lam ** beta * gamma_fn(-beta)
                + lam ** 2 / (beta * (1.0 - beta)) * incomplete)
    out = np.empty_like(d)
    identity = (d < 0.5 / lam) | (lam * d > 30.0)
    if identity.any():
        z = lam * d[identity]
        out[identity] = np.exp(-z) / d[identity] - lam * e1(z)
    if (~identity).any():
        out[~identity] = _tail_unit_order_substitution(d[~identity], lam)
    return out


def _tail_unit_order_substitution(d: np.ndarray, lam: float) -> np.ndarray:
    """beta = 1 tail for 1/(2 lam) <= d <= 30/lam via the reciprocal substitution."""
    K = TAIL_SUBSTITUTION_CUTOFF
    rule = gauss_legendre_rule(TAIL_SUBSTITUTION_POINTS)
    eta = (np.multiply.outer(1.0 / (2.0 * d), rule.nodes + 1.0)
           - lam * (rule.nodes - 1.0) / (2.0 * K))
    return (1.0 / (2.0 * d) - lam / (2.0 * K)) * (np.exp(-lam / eta) @ rule.weights)
