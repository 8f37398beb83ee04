"""Direct high-accuracy application of the tempered fractional Laplacian.

Independent of the finite-difference machinery: used to manufacture source
terms and to cross-check the discretization.  The principal value is
removed by pairing y = x - t with y = x + t on the symmetric near field
|y - x| <= delta (delta = distance from x to the nearer endpoint), where
the second difference 2u(x) - u(x-t) - u(x+t) is O(t^2):

    near  = int_0^delta [second difference] e^{-lam t} t^{-1-beta} dt
    far   = 2 u(x) T(delta) - int_{t>delta} u(x +/- t) e^{-lam t} t^{-1-beta} dt

with T the exact kernel tail.  The near field is integrated by Gauss-Jacobi
with the algebraic factor t^{1-beta} in the weight; the far field by
composite Gauss-Legendre on geometrically graded panels, split additionally
at any points where u has kinks (domain endpoints, exterior support edges).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import SchemeParams
from .quadrature import (
    GAUSS_JACOBI_POINTS,
    PANEL_POINTS,
    geometric_breakpoints,
    jacobi_gauss_rule,
    panel_quadrature_points,
)
from .tails import tail_profile


def reference_apply_operator(
    u: Callable[[np.ndarray], np.ndarray],
    x: float,
    params: SchemeParams,
    a: float,
    b: float,
    support: tuple[float, float] | None = None,
    second_difference: Callable[[float, np.ndarray], np.ndarray] | None = None,
) -> float:
    """Evaluate -(Delta + lam)^{beta/2} u at an interior point x.

    u must accept numpy arrays and be defined on all of R: smooth (two
    continuous derivatives) on a neighborhood of [a, b] and equal to the
    exterior data outside.  ``support`` = (lo, hi), when given, declares
    that u vanishes outside [lo, hi]; by default u is assumed to vanish
    outside [a, b].  The normalization constant is applied iff
    params.apply_cbeta.

    ``second_difference(x, t)``, when supplied, must return
    2 u(x) - u(x-t) - u(x+t) evaluated stably (e.g. from derivatives of a
    polynomial u); this removes the rounding floor of the generic formula,
    which limits accuracy to roughly 1e-10 absolute at the smallest
    near-field quadrature nodes.
    """
    if not a < x < b:
        raise ValueError(f"x = {x} is not interior to ({a}, {b})")
    lo = a if support is None else min(support[0], a)
    hi = b if support is None else max(support[1], b)
    beta, lam = params.beta, params.lam
    delta = min(x - a, b - x)

    rule = jacobi_gauss_rule(GAUSS_JACOBI_POINTS, 0.0, 1.0 - beta)
    t = (delta / 2.0) * (1.0 + rule.nodes)
    ux = float(u(np.array([x]))[0])
    if second_difference is None:
        sd = 2.0 * ux - u(x + t) - u(x - t)
    else:
        sd = np.asarray(second_difference(x, t), dtype=float)
    near = (delta / 2.0) ** (2.0 - beta) \
        * float(rule.weights @ (sd / (t * t) * np.exp(-lam * t)))

    far = 2.0 * ux * float(tail_profile(delta, params)[0])
    kinks = [p for p in (a, b, support[0] if support else None,
                         support[1] if support else None) if p is not None]

    for sgn, reach in ((+1.0, hi - x), (-1.0, x - lo)):
        if reach <= delta * (1.0 + 1e-14):
            continue
        breaks = geometric_breakpoints(delta, reach, first_width=delta)
        extra = [sgn * (p - x) for p in kinks if delta < sgn * (p - x) < reach]
        if extra:
            breaks = np.unique(np.concatenate([breaks, extra]))
        pts, wts = panel_quadrature_points(breaks, PANEL_POINTS)
        far -= float(wts @ (u(x + sgn * pts) * np.exp(-lam * pts) * pts ** (-1.0 - beta)))

    return params.scale * (near + far)
