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
"""

from __future__ import annotations

import numpy as np

from .core import SchemeParams, gamma_fn
from .quadrature import GAUSS_JACOBI_POINTS, jacobi_gauss_rule


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
    # Imported here so that ``import templap`` does not load scipy.special.
    from scipy.special import expn

    return expn(2, lam * d) / d
